"""Benchmark harness: config parsing, replicated runs and paired comparison.

Configs are plain key/value text files with [section] headers (JSON is also
accepted); every replicate derives its randomness from the config seed plus
the replicate index, so a run is reproducible byte-for-byte from its emitted
manifest.
"""
from __future__ import annotations

import configparser
import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .completion import hard_impute, soft_impute
from .core import IncompleteMatrix, SeedSpec, _check_count, format_float, read_matrix_csv, rmse_missing
from .imputation import ImputerKind, ImputerSpec, run_imputer
from .mechanisms import MechanismKind, MechanismSpec, gen_mask
from .timeseries import _initial_fill

RESULT_HEADER = ("replicate", "metric", "value")


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    dataset: dict
    mechanism: dict
    method: dict
    metrics: tuple = ("rmse",)
    replicates: int = 1
    seed: int = 0

    def __post_init__(self):
        try:
            _check_count("replicates", self.replicates, 1)
        except ValueError as exc:
            raise ConfigError(exc) from None
        self.metrics = tuple(self.metrics)
        path = self.dataset.get("path")
        if path is not None and not os.path.exists(path):
            raise ConfigError(f"dataset file not found: {path}")

    def to_dict(self) -> dict:
        return {
            "dataset": dict(self.dataset),
            "mechanism": dict(self.mechanism),
            "method": dict(self.method),
            "metrics": list(self.metrics),
            "replicates": self.replicates,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Section dicts plus top-level run keys; metrics may be a comma-separated string."""
        try:
            for key in d:
                if key not in ("dataset", "mechanism", "method", "metrics", "replicates", "seed"):
                    raise ConfigError(f"unknown config key {key!r}: not a section or a [run] key")
            metrics = d.get("metrics", ("rmse",))
            if isinstance(metrics, str):
                metrics = [m.strip() for m in metrics.split(",") if m.strip()]
            return cls(
                dataset=dict(d["dataset"]),
                mechanism=dict(d.get("mechanism", {"kind": "none"})),
                method=dict(d["method"]),
                metrics=tuple(metrics),
                replicates=_typed("run", "replicates", d.get("replicates", 1), 1),
                seed=_typed("run", "seed", d.get("seed", 0), 0),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config section: {exc}") from exc
        except TypeError as exc:
            raise ConfigError(f"malformed config: {exc}") from exc


def _coerce(value: str):
    try:
        return json.loads(value)
    except (json.JSONDecodeError, ValueError):
        return value


def load_config(path) -> ExperimentConfig:
    """Read a JSON config, or sectioned key/value text mapped to the JSON
    layout with the [run] keys at the top level."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return ExperimentConfig.from_dict(json.loads(text))
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    d = {section: {k: _coerce(v) for k, v in parser.items(section)} for section in parser.sections()}
    return ExperimentConfig.from_dict({**d.pop("run", {}), **d})


# ---------------------------------------------------------------------------
# Dataset generators and method dispatch.
# ---------------------------------------------------------------------------


# How a config section picks its kind: the key that names it, the default
# kind and the name of the choice, then the keys each kind reads with their
# defaults. A given value must have its default's type (`_typed`); _settings
# rejects any other key, so that a typo or a key the chosen kind ignores
# cannot run on a default.
_DATASET = ("kind", "gaussian", "dataset kind", {
    "gaussian": {"p": 5, "n": 200, "rho": 0.5},
    "lowrank": {"p": 50, "n": 50, "rank": 2, "noise": 0.0},
    "csv": {"path": ""},
})
_MECHANISM = ("kind", "none", "mechanism kind", {
    "none": {},
    "mcar": {"rate": 0.2},
    "mar": {"driver_row": 0, "phi0": 0.0, "phi1": 1.0},
    "mnar": {"phi0": 0.0, "phi1": 1.0},
})
_IMPUTE = ("method", "mean", "imputation method", {
    "mean": {},
    "locf": {},
    "linear": {},
    "knn": {"k": 5},
    "condgauss": {"add_noise": False},
    "iterative": {"add_noise": False, "ridge_penalty": 1e-3, "max_sweeps": 50, "tol": 1e-6},
})
_COMPLETE = ("mode", "hard", "completion mode", {
    "hard": {"rank": 2, "tol": 1e-6, "max_iter": 500},
    "soft": {"lam": 1.0, "tol": 1e-6, "max_iter": 500},
})


def _settings(section, spec: dict, layout, also=()):
    """(kind, settings) of a config section laid out as above. settings holds
    every key the kind reads; any other key of spec, except the one naming
    the kind and those in also, raises ConfigError."""
    key, default, what, tables = layout
    kind = spec.get(key, default)
    if not isinstance(kind, str) or kind not in tables:
        raise ConfigError(f"unknown {what} {kind!r}")
    table = tables[kind]
    for name in spec:
        if name not in table and name != key and name not in also:
            raise ConfigError(f"[{section}] {name} is not read under {key} = {kind}")
    return kind, {k: _typed(section, k, spec[k], d) if k in spec else d for k, d in table.items()}


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _typed(section, name, value, default):
    """value as its default's type: true/false for a bool, an integral number
    for an int, a number of finite float value for a float; a bool is never a number."""
    kind = type(default)
    if kind is bool or kind is str:
        ok = isinstance(value, kind)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        ok = False
    else:
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = np.inf
        integral = kind is float or number.is_integer()
        ok = kind is int and isinstance(value, int) or np.isfinite(number) and integral
    if not ok:
        raise ConfigError(f"[{section}] {name} = {value!r} is not {_TYPE_NAMES[kind]}")
    return kind(value)


def _method_settings(spec: dict):
    """(module, method or mode, settings) of the [method] section."""
    module = spec.get("module", "impute")
    if module not in ("impute", "complete"):
        raise ConfigError(f"unknown method module {module!r}")
    layout = _IMPUTE if module == "impute" else _COMPLETE
    return (module, *_settings("method", spec, layout, ("module", "label")))


def _make_dataset(spec: dict, seed: SeedSpec):
    kind, s = _settings("dataset", spec, _DATASET)
    rng = seed.rng()
    if kind == "gaussian":
        p = s["p"]
        sigma = s["rho"] ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        L = np.linalg.cholesky(sigma)
        return L @ rng.standard_normal((p, s["n"]))
    if kind == "lowrank":
        X = rng.standard_normal((s["p"], s["rank"])) @ rng.standard_normal((s["rank"], s["n"]))
        if s["noise"] > 0:
            X = X + s["noise"] * rng.standard_normal(X.shape)
        return X
    return read_matrix_csv(s["path"]).values


def _locf_fill(X: IncompleteMatrix):
    """Row-wise last observation carried forward (leading gaps filled backward)."""
    out = X.values.copy()
    for i in range(X.p):
        obs = np.flatnonzero(X.mask[i] == 1)
        if len(obs) == 0:
            raise ValueError(f"fully missing row {i}")
        idx = np.searchsorted(obs, np.arange(X.n), side="right") - 1
        idx = np.clip(idx, 0, len(obs) - 1)
        out[i] = X.values[i, obs[idx]]  # an observed entry indexes itself
    return out


def _linear_fill(X: IncompleteMatrix):
    """Row-wise linear interpolation over the column index (flat at the ends)."""
    out = np.empty_like(X.values)
    for i in range(X.p):
        observed = X.mask[i] == 1
        if not observed.any():
            raise ValueError(f"fully missing row {i}")
        out[i] = _initial_fill(X.values[i], observed)
    return out


def _run_method(spec: dict, X: IncompleteMatrix, seed: SeedSpec):
    module, name, s = _method_settings(spec)
    if module == "complete":
        if name == "hard":
            return hard_impute(X, s["rank"], tol=s["tol"], max_iter=s["max_iter"]).X
        return soft_impute(X, s["lam"], tol=s["tol"], max_iter=s["max_iter"]).X
    # trivial time-series comparators live only here in the harness
    if name == "locf":
        return _locf_fill(X)
    if name == "linear":
        return _linear_fill(X)
    return run_imputer(X, ImputerSpec(ImputerKind(name), **s), seed)


def _mae_missing(Xhat, Xtrue, mask):
    hole = np.asarray(mask) == 0
    if not hole.any():
        raise ValueError("empty evaluation set: no masked entries")
    return float(np.mean(np.abs(np.asarray(Xhat)[hole] - np.asarray(Xtrue)[hole])))


_METRICS = {"rmse": rmse_missing, "mae": _mae_missing}


@dataclass
class ExperimentResult:
    rows: list = field(default_factory=list)  # (replicate, metric, value)
    notes: list = field(default_factory=list)  # metric-level reports
    failures: list = field(default_factory=list)  # replicate-level errors
    n_replicates: int = 0
    manifest: dict = field(default_factory=dict)

    @property
    def all_failed(self) -> bool:
        failed = {r for r, _ in self.failures}
        return self.n_replicates > 0 and len(failed) == self.n_replicates

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(RESULT_HEADER)
        for rep, metric, value in sorted(self.rows, key=lambda r: (r[0], r[1])):
            writer.writerow([rep, metric, format_float(value)])
        for rep, message in sorted(self.notes, key=lambda r: (r[0], r[1])):
            writer.writerow([rep, "note", message])
        for rep, message in sorted(self.failures, key=lambda r: (r[0], r[1])):
            writer.writerow([rep, "error", message])
        return buf.getvalue()

    def manifest_json(self) -> str:
        return json.dumps(self.manifest, sort_keys=True, indent=2) + "\n"


def _one_replicate(config: ExperimentConfig, rep: int):
    base = SeedSpec(config.seed, rep * 16)
    Xtrue = _make_dataset(config.dataset, base)
    kind, s = _settings("mechanism", config.mechanism, _MECHANISM)
    if kind == "none":
        mask = np.ones(Xtrue.shape, dtype=np.int8)
    else:
        mask = gen_mask(Xtrue.shape, MechanismSpec(MechanismKind(kind), **s), X=Xtrue, seed=base.substream(1))
    X = IncompleteMatrix(Xtrue, mask)
    Xhat = _run_method(config.method, X, base.substream(2))
    rows = []
    notes = []
    for metric in config.metrics:
        if metric not in _METRICS:
            raise ConfigError(f"unknown metric {metric!r}")
        try:
            rows.append((rep, metric, _METRICS[metric](Xhat, Xtrue, mask)))
        except ValueError as exc:
            notes.append((rep, f"{metric}: {exc}"))
    return rows, notes


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every replicate, collecting one row per (replicate, metric).

    Replicate errors are recorded and the run continues; metric evaluations
    that fail (for example an empty evaluation set) are reported as notes
    without failing the replicate.
    """
    # sections and imputer settings are checked first, so a replicate failing on its data hides no bad one
    _settings("dataset", config.dataset, _DATASET)
    _settings("mechanism", config.mechanism, _MECHANISM)
    module, name, s = _method_settings(config.method)
    if module == "impute" and name not in ("locf", "linear"):
        try:
            ImputerSpec(ImputerKind(name), **s)
        except ValueError as exc:
            raise ConfigError(f"[method] {exc}") from exc
    result = ExperimentResult(n_replicates=config.replicates)
    result.manifest = {
        "config": config.to_dict(),
        "gapkit_version": __version__,
        "result_header": list(RESULT_HEADER),
    }
    for rep in range(config.replicates):
        try:
            rows, notes = _one_replicate(config, rep)
        except ConfigError:
            raise
        except Exception as exc:  # per-replicate failure is recorded, not fatal
            result.failures.append((rep, f"replicate failed: {exc}"))
            continue
        result.rows.extend(rows)
        result.notes.extend(notes)
    return result


def run_from_manifest(manifest: dict) -> ExperimentResult:
    return run_experiment(ExperimentConfig.from_dict(manifest["config"]))


# ---------------------------------------------------------------------------
# Paired comparison across method configs.
# ---------------------------------------------------------------------------


@dataclass
class ComparisonRow:
    label: str
    metric: str
    median: float
    p_value: float
    wins: int
    n_pairs: int


def compare_methods(configs: list[ExperimentConfig]) -> list[ComparisonRow]:
    """Aligned-seed comparison of >= 2 methods on one dataset and mechanism.

    All configs must share dataset, mechanism, seed and replicate count; the
    first config is the baseline. Each later method gets a two-sided sign
    test on the paired per-replicate metric differences against the baseline
    (p = 1 when nothing differs, as in a self-comparison).
    """
    from scipy.stats import binomtest

    if len(configs) < 2:
        raise ConfigError("compare_methods needs at least two configs")
    head = configs[0]
    for other in configs[1:]:
        if other.dataset != head.dataset or other.mechanism != head.mechanism:
            raise ConfigError("configs must share dataset and mechanism")
        if other.seed != head.seed or other.replicates != head.replicates:
            raise ConfigError("configs must share seed and replicate count")
    tables = [{(rep, metric): value for rep, metric, value in run_experiment(c).rows} for c in configs]
    out = []
    for idx, (cfg, table) in enumerate(zip(configs, tables)):
        label = cfg.method.get("label") or _method_label(cfg.method, idx)
        for metric in head.metrics:
            vals = [table[k] for k in sorted(table) if k[1] == metric]
            if not vals:
                continue
            paired = [
                (tables[0].get((rep, metric)), table.get((rep, metric)))
                for rep in range(head.replicates)
            ]
            diffs = [b - a for a, b in paired if a is not None and b is not None]
            nonzero = [d for d in diffs if d != 0.0]
            wins = sum(1 for d in nonzero if d < 0)  # lower metric wins
            p = binomtest(wins, len(nonzero), 0.5).pvalue if nonzero else 1.0
            out.append(
                ComparisonRow(label, metric, float(np.median(vals)), float(p), wins, len(nonzero))
            )
    return out


def _method_label(method: dict, idx: int) -> str:
    module = method.get("module", "impute")
    name = method.get("method") or method.get("mode") or ""
    return f"{idx}:{module}:{name}"


def comparison_csv(rows: list[ComparisonRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "metric", "median", "p_value", "wins", "n_pairs"])
    for r in sorted(rows, key=lambda r: (r.label, r.metric)):
        writer.writerow(
            [r.label, r.metric, format_float(r.median), format_float(r.p_value), r.wins, r.n_pairs]
        )
    return buf.getvalue()
