"""Call spans for the traced benchmark run, recorded from outside the library.

`install` wraps each public gapkit function at every gapkit module attribute
bound to it (so `harness.soft_impute` and `cli.petrels_weights` are wrapped
as well as `completion.soft_impute` and `subspace.petrels_weights`), plus
`IncompleteMatrix.__init__` and `IncompleteMatrix.filled` on the class. A
wrapper records one span: name, start, end and the index of the enclosing
span. Spans stay in memory; `write` dumps them when the run ends.

A span's layer is the module that defines the function, so a call from one
module into another is charged to the callee. Self time is a span's duration
minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = (
    "core", "mechanisms", "imputation", "em", "structcov", "mnar",
    "completion", "subspace", "graph", "timeseries", "harness", "cli",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        # Exact per-phase counters filled by return hooks (see HOOKS).
        self.counts = defaultdict(int)
        self.trackers: list = []

    def _open(self, name):
        i = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i):
        self.ends[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def mark(self):
        """Index of the next span; phases are contiguous index ranges."""
        return len(self.starts)

    def summarize(self, lo, hi):
        """Per-name calls, inclusive and self seconds, and each call's duration,
        over spans [lo, hi)."""
        child = defaultdict(float)
        for i in range(lo, hi):
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        calls, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        durations = defaultdict(list)
        for i in range(lo, hi):
            name, dur = self.names[i], self.ends[i] - self.starts[i]
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - child[i]
            durations[name].append(dur)
        return calls, incl, self_s, durations

    def write(self, path, header):
        """One JSON header line, then one line per span: [name, start, end, parent]."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, name in enumerate(self.names):
                fh.write(json.dumps([name, self.starts[i] - t0, self.ends[i] - t0, self.parents[i]]) + "\n")


def _filled_bytes(tracer, args, out):
    # values read + mask read + output written, from array sizes (computed).
    X = args[0]
    tracer.counts["core.filled.bytes_computed"] += X.values.nbytes + X.mask.nbytes + out.nbytes


def _em_iters(tracer, args, fit):
    tracer.counts["em.iters"] += fit.n_iter


def _soft_iters(tracer, args, res):
    tracer.counts["completion.iters"] += res.iters


def _separation(tracer, args, res):
    tracer.counts["mnar.separation_warnings"] += res.separation_warnings


def _tracker(tracer, args, state):
    tracer.trackers.append(state)


HOOKS = {
    "core.filled": _filled_bytes,
    "em.em_gaussian_fit": _em_iters,
    "em.em_student_fit": _em_iters,
    "completion.soft_impute": _soft_iters,
    "mnar.sem_selection_fit": _separation,
    "subspace.petrels_init": _tracker,
}


def install(tracer: Tracer):
    """Wrap every public gapkit function binding; returns the bindings as
    (owner, attribute, original, wrapper), already switched to the wrappers."""
    modules = [importlib.import_module("gapkit")]
    modules += [importlib.import_module(f"gapkit.{layer}") for layer in LAYERS]
    wrapped, bindings = {}, []
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if not (inspect.isfunction(obj) and obj.__module__.startswith("gapkit.")):
                continue
            if obj.__name__.startswith("_"):
                continue
            if obj not in wrapped:
                name = f"{obj.__module__.split('.')[1]}.{obj.__name__}"
                wrapped[obj] = tracer.wrap(name, obj, HOOKS.get(name))
            bindings.append((module, attr, obj, wrapped[obj]))
    cls = modules[1].IncompleteMatrix
    for attr, name in (("__init__", "core.IncompleteMatrix"), ("filled", "core.filled")):
        original = cls.__dict__[attr]
        bindings.append((cls, attr, original, tracer.wrap(name, original, HOOKS.get(name))))
    enable(bindings, True)
    return bindings


def enable(bindings, on):
    for owner, attr, original, wrapper in bindings:
        setattr(owner, attr, wrapper if on else original)


# Per-layer metrics: (name, unit). Each is computed per phase (the traced
# set-up, then each traced pass) by phase_metrics.
PER_LAYER = [
    ("core.filled.calls", "count"),
    ("core.filled.s", "s"),
    ("core.filled.bytes_computed", "bytes"),
    ("core.csv_io.s", "s"),
    ("core.IncompleteMatrix.calls", "count"),
    ("core.IncompleteMatrix.s", "s"),
    ("mechanisms.gen_mask.s", "s"),
    ("graph.stsrgl_fit.s_n", "s"),
    ("graph.stsrgl_fit.s_2n", "s"),
    ("graph.stsrgl_fit.scale_2n", "ratio"),
    ("graph.gmrf_learn.calls", "count"),
    ("graph.gmrf_learn.s", "s"),
    ("graph.var_learn.s", "s"),
    ("graph.recover_tikhonov.s", "s"),
    ("graph.recover_tv.s", "s"),
    ("subspace.robust_update.s", "s"),
    ("subspace.robust_stage1.calls", "count"),
    ("subspace.robust_stage1.s", "s"),
    ("subspace.petrels_update.s", "s"),
    ("subspace.petrels_weights.calls", "count"),
    ("subspace.reinit_count", "count"),
    ("cli.track.s_n", "s"),
    ("cli.track.s_2n", "s"),
    ("cli.track.scale_2n", "ratio"),
    ("em.em_gaussian_fit.s", "s"),
    ("em.em_student_fit.s", "s"),
    ("em.observed_loglik.calls", "count"),
    ("em.observed_loglik.s", "s"),
    ("em.iters", "count"),
    ("structcov.em_structured_fit.s", "s"),
    ("imputation.impute_conditional_gaussian.s", "s"),
    ("imputation.impute_mean.calls", "count"),
    ("timeseries.ar1t_fit_saem.s", "s"),
    ("timeseries.ar1t_multiple_impute.s", "s"),
    ("mnar.sem_selection_fit.s", "s"),
    ("mnar.separation_warnings", "count"),
    ("completion.soft_impute.calls", "count"),
    ("completion.soft_impute.s", "s"),
    ("completion.iters", "count"),
    ("harness.run_experiment.s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.spans", "count"),
]

EXACT_COUNTS = (
    "core.filled.bytes_computed", "em.iters", "completion.iters", "mnar.separation_warnings",
)


def _ratio(durations):
    return durations[1] / durations[0] if len(durations) >= 2 and durations[0] > 0 else 0.0


def _nth(durations, k):
    return durations[k] if len(durations) > k else 0.0


def phase_metrics(tracer, lo, hi):
    """Every PER_LAYER value over spans [lo, hi) and the phase's counters.

    Functions a workload never calls read 0; `s_n`/`s_2n` are the first and
    second call of the pair in call order, and `scale_2n` their ratio (0 when
    the pair is not called)."""
    calls, incl, self_s, durations = tracer.summarize(lo, hi)
    out = {name: tracer.counts[name] for name in EXACT_COUNTS}
    for name, _unit in PER_LAYER:
        span_name = name.rsplit(".", 1)[0]
        if name.endswith(".calls"):
            out[name] = calls[span_name]
        elif name.endswith(".s"):
            out[name] = incl[span_name]
    out["core.csv_io.s"] = incl["core.read_matrix_csv"] + incl["core.write_matrix_csv"]
    stsrgl, track = durations["graph.stsrgl_fit"], durations["cli.track.n"] + durations["cli.track.2n"]
    out["graph.stsrgl_fit.s_n"], out["graph.stsrgl_fit.s_2n"] = _nth(stsrgl, 0), _nth(stsrgl, 1)
    out["graph.stsrgl_fit.scale_2n"] = _ratio(stsrgl)
    out["cli.track.s_n"], out["cli.track.s_2n"] = _nth(track, 0), _nth(track, 1)
    out["cli.track.scale_2n"] = _ratio(track)
    out["em.observed_loglik.calls"] = calls["em.observed_loglik_gaussian"] + calls["em.observed_loglik_student"]
    out["em.observed_loglik.s"] = incl["em.observed_loglik_gaussian"] + incl["em.observed_loglik_student"]
    out["subspace.reinit_count"] = sum(state.reinit_count for state in tracer.trackers)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for name, v in self_s.items() if name.split(".", 1)[0] == layer)
    out["trace.spans"] = hi - lo
    return out
