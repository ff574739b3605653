"""gapkit benchmark: one workload, one seed, one closed-loop run.

    python3 benchmarks/run.py --workload graph_joint --seed 1 --seconds 30 --trace 0

A single caller makes each library or CLI call after the previous one
returns. All inputs are drawn from --seed during set-up; then whole passes
over the workload's call sequence repeat while the next one is expected to
end within --seconds (at least MIN_PASSES passes), every output is checked,
and the medians are reported. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 wraps the library's
public functions (spans.py) and reports the per-layer metrics instead. The
lines before it restate every metric with its unit, plus the machine record.
See benchmarks/README.md for the metric definitions.
"""
import os

# Single-threaded BLAS, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GAPKIT_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 3
MIN_PASSES = 2
COUNT_UNITS = ("count", "bytes")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gapkit; "
    "print(time.perf_counter() - t, gapkit.__file__)"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, wrong gapkit, ...)."""


class Recorder:
    """Side channel from the ops to the measuring loop: step latencies, reference
    outputs for rerun checks, and benchmark-level spans."""

    def __init__(self):
        self.step_times = []
        self.reference = {}
        self.tracer = None

    def span(self, name):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()


def import_gapkit():
    if not (SRC / "gapkit" / "__init__.py").is_file():
        raise BenchError(f"no gapkit source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import gapkit

    elapsed = perf_counter() - t0
    _check_origin(gapkit.__file__)
    return elapsed


def _check_origin(path):
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported gapkit from {path}, not from {SRC}")


def child_import_seconds():
    """`import gapkit` timed inside a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, path = done.stdout.split(maxsplit=1)
    _check_origin(path.strip())
    return float(seconds)


def machine_record():
    import numpy as np
    import scipy

    record = {
        "cores": len(os.sched_getaffinity(0)),
        "cpu": "unknown",
        "l3": "unknown",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            record["cpu"] = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    try:
        record["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        record["blas"] = "unknown"
    return record


class HostProbe:
    """Host speed around each operation, from a fixed probe kernel.

    On a shared VM the host's speed can drift by tens of percent over
    seconds while CPU time tracks wall time (measured on a 2-core Xeon VM),
    and no repetition inside one run averages that out. The probe runs small
    solves and pure-Python arithmetic, the mix of the library's hot paths,
    before and after every operation. An operation's time divided by (probe time / REFERENCE_S) is
    its time at the reference host speed.
    """

    # Median probe time on the machine the benchmark was defined on
    # (2-core Xeon VM, numpy 2.4 with single-threaded OpenBLAS).
    REFERENCE_S = 0.0038

    def __init__(self):
        import numpy as np

        A = np.random.default_rng(0).standard_normal((8, 8))
        self._A, self._b = A @ A.T + 8 * np.eye(8), np.ones(8)
        self._solve = np.linalg.solve
        self.samples = []

    def __call__(self):
        t0 = perf_counter()
        for _ in range(200):
            self._solve(self._A, self._b)
        acc = 0.0
        for i in range(16000):
            acc += i * 0.5
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def to_reference(self, seconds, before, after):
        """`seconds` at the reference speed, given the probe times around it."""
        return seconds * 2.0 * self.REFERENCE_S / (before + after)


def run_pass(ops, failures, pass_index, probe):
    """One closed-loop pass. Returns {op: call seconds} and {op: seconds at
    the reference host speed}; checks run outside the timed region."""
    times, ref = {}, {}
    before = probe()
    for name, call, check in ops:
        t0 = perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:  # a raising call is a failed operation
            error = exc
        times[name] = perf_counter() - t0
        after = probe()
        ref[name] = probe.to_reference(times[name], before, after)
        before = after
        if error is not None:
            failures.append((pass_index, name, f"raised {type(error).__name__}: {error}"))
            continue
        try:
            message = check(result)
        except Exception as exc:  # a check that cannot run fails the op too
            message = f"check raised {type(exc).__name__}: {exc}"
        if message:
            failures.append((pass_index, name, message))
    return times, ref


def run_passes(ops, seconds, probe, pass_context=lambda k: nullcontext(False)):
    """Repeat passes while another one is expected to end within `seconds`
    (at least MIN_PASSES).

    Pass k runs inside `pass_context(k)`, which yields whether it is traced.
    """
    failures, passes = [], []
    start = perf_counter()
    while len(passes) < MIN_PASSES or (perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        k = len(passes)
        with pass_context(k) as traced:
            times, ref = run_pass(ops, failures, k, probe)
        passes.append({"traced": traced, "wall": sum(times.values()), "ops": times, "ref": ref})
    return passes, failures


def median_wall(passes, key="ops"):
    """Sum over ops of each op's median time across passes.

    Host noise comes in bursts that hit one op of one pass; the per-op
    median drops them, where the median of pass totals would keep them."""
    return sum(statistics.median(p[key][name] for p in passes) for name in passes[0][key])


def percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def end_to_end(args, workdir, import_in_process_s):
    import workloads

    setup, make_ops = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.workload][args.size]
    import_s, gen_s = [], []
    for _ in range(SETUP_REPEATS):
        import_s.append(child_import_seconds())
        t0 = perf_counter()
        inputs = setup(args.seed, size, workdir)
        gen_s.append(perf_counter() - t0)
    recorder, probe = Recorder(), HostProbe()
    passes, failures = run_passes(make_ops(inputs, recorder), args.seconds, probe)
    metrics = {
        "setup_s": (statistics.median(import_s) + statistics.median(gen_s), "s"),
        "wall_s": (median_wall(passes, "ref"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "wall_raw_s": (median_wall(passes), "s"),
        "host_probe_ms": (1e3 * statistics.median(probe.samples), "ms"),
    }
    if recorder.step_times:
        extra["step_p50_us"] = (1e6 * percentile(recorder.step_times, 50), "us")
        extra["step_p99_us"] = (1e6 * percentile(recorder.step_times, 99), "us")
        extra["steps"] = (len(recorder.step_times), "count")
    notes = {
        "import_s": import_s,
        "import_in_process_s": import_in_process_s,
        "generate_s": gen_s,
        "largest_input_mb": _largest_input_mb(inputs),
    }
    return metrics, extra, passes, failures, notes


def _largest_input_mb(inputs):
    sizes = [0]
    for value in inputs.values():
        arr = getattr(value, "values", value)
        sizes += [a.nbytes for a in (arr if isinstance(arr, tuple) else (arr,)) if hasattr(a, "nbytes")]
    return max(sizes) / 2**20


def per_layer(args, workdir):
    import spans
    import workloads

    setup, make_ops = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.workload][args.size]
    tracer = spans.Tracer()
    bindings = spans.install(tracer)
    phases = []

    def phase_start():
        tracer.counts.clear()
        tracer.trackers.clear()
        return tracer.mark()

    def phase_end(lo, kind):
        summary = spans.phase_metrics(tracer, lo, tracer.mark())
        phases.append((kind, summary))

    lo = phase_start()
    inputs = setup(args.seed, size, workdir)
    phase_end(lo, "setup")

    @contextmanager
    def pass_context(k):
        # Alternate: untraced passes (even k) give the overhead baseline,
        # traced passes (odd k) the spans.
        traced = k % 2 == 1
        spans.enable(bindings, traced)
        lo = phase_start()
        yield traced
        if traced:
            phase_end(lo, "pass")

    recorder = Recorder()
    recorder.tracer = tracer
    passes, failures = run_passes(make_ops(inputs, recorder), args.seconds, HostProbe(), pass_context)
    spans.enable(bindings, False)

    setup_values = phases[0][1]
    pass_values = [summary for kind, summary in phases if kind == "pass"]
    metrics, varied = {}, []
    for name, unit in spans.PER_LAYER:
        values = [v[name] for v in pass_values]
        if unit in COUNT_UNITS:
            # Counts must repeat exactly: report the first pass, flag any drift.
            if len(set(values)) > 1:
                varied.append(name)
            metrics[name] = (setup_values[name] + values[0], unit)
        else:
            metrics[name] = (setup_values[name] + statistics.median(values), unit)
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics["trace.overhead_s"] = (median_wall(traced, "ref") - median_wall(plain, "ref"), "s")
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                              "machine": machine_record()})
    notes = {"largest_input_mb": _largest_input_mb(inputs),
             "spans_file": str(trace_path.relative_to(ROOT)), "traced_passes": len(traced),
             "counts_varied_between_passes": varied}
    return metrics, {}, passes, failures, notes


def report(args, metrics, extra, passes, failures, notes):
    attempted = sum(len(p["ops"]) for p in passes)
    machine = machine_record()
    lines = [
        f"# gapkit benchmark: workload={args.workload} seed={args.seed} size={args.size} "
        f"trace={args.trace} passes={len(passes)} (closed loop, one caller)",
        "# machine: " + json.dumps(machine),
        f"# working sets: largest input array {notes['largest_input_mb']:.2f} MB "
        f"(streams are read one column per step), L3 {machine['l3']}; every working set "
        "is at most about 1 MB and stays in cache, so no bandwidth metric is reported",
    ]
    for name, (value, unit) in {**metrics, **extra}.items():
        lines.append(f"{name} {value:.6g} {unit}")
    lines.append(f"fail_frac {len(failures) / attempted:.6g} ratio ({len(failures)}/{attempted})")
    for k, v in notes.items():
        lines.append(f"# {k}: {v}")
    lines.append("# pass walls (s): " + " ".join(
        f"{p['wall']:.3f}{'t' if p['traced'] else ''}" for p in passes))
    for name in passes[0]["ops"]:
        times = [p["ops"][name] for p in passes]
        lines.append(f"# op {name}: median {statistics.median(times):.4g} s; passes: "
                     + " ".join(f"{t:.4g}" for t in times))
    seen = set()
    for _pass, name, message in failures:
        if (name, message) not in seen:
            seen.add((name, message))
            lines.append(f"# FAILED {name}: {message}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("graph_joint", "stream_track", "estimate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: reduced sizes for the self-test")
    args = parser.parse_args(argv)
    try:
        import_s = import_gapkit()
    except (BenchError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        result = per_layer(args, workdir) if args.trace else end_to_end(args, workdir, import_s)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, *result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
