"""gapkit command-line harness.

Exit codes: 0 success; 2 any invalid option, value or file, reported as
`config error: <msg>`; 3 every bench replicate failed; 4 a numerical
failure in any command, reported as `numerical failure: <msg>`. Commands
raise and one error boundary on the `main` group maps the exception to its
exit code.
"""
from __future__ import annotations

import json
import math
import sys

import click
from click.core import ParameterSource
import numpy as np

from . import __version__
from .completion import hard_impute, soft_impute
from .core import (
    IncompleteMatrix,
    SeedSpec,
    _orthonormalize,
    format_float,
    read_matrix_csv,
    sep,
    write_mask_csv,
    write_matrix_csv,
)
from .em import EmConfig, EVariant, em_gaussian_fit, em_student_fit
from .graph import (
    RecoveryConfig,
    FidelityKind,
    UndirectedGraph,
    gmrf_learn,
    recover_tikhonov,
    recover_tv,
    stsrgl_fit,
    var_learn,
)
from .harness import (
    comparison_csv,
    compare_methods,
    load_config,
    run_experiment,
)
from .mechanisms import MechanismKind, MechanismSpec, classify_pattern, gen_mask
from .mnar import sem_selection_fit
from .structcov import CovStructure, StructureKind, em_structured_fit
from .subspace import RobustConfig, petrels_init, petrels_update, petrels_weights, robust_update
from .timeseries import Ar1StudentParams, _ols_ar1, ar1t_fit_saem, ar1t_multiple_impute
from .imputation import ImputerKind, ImputerSpec, multiple_impute, run_imputer

EXIT_CONFIG = 2
EXIT_ALL_FAILED = 3
EXIT_NUMERICAL = 4


def _fail(code, label, exc):
    message = " ".join(str(exc).splitlines())
    click.echo(f"{label}: {message}", err=True)
    sys.exit(code)


class _ErrorBoundary(click.Group):
    """Maps what any subcommand raises to an exit code and a one-line message.

    The order matters: click's Exit (raised by --help) and Abort subclass
    RuntimeError, and LinAlgError subclasses ValueError. A broken pipe is
    left to click, which exits quietly.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.exceptions.Exit, click.Abort, BrokenPipeError):
            raise
        except (np.linalg.LinAlgError, RuntimeError, ArithmeticError) as exc:
            _fail(EXIT_NUMERICAL, "numerical failure", exc)
        except (ValueError, OSError) as exc:
            _fail(EXIT_CONFIG, "config error", exc)


@click.group(cls=_ErrorBoundary)
@click.version_option(__version__)
def main():
    """Missing-data toolkit: simulate masks, impute, estimate, benchmark."""


def _read_lines(path, parse):
    """parse(line) for each stripped line of a text file; a ValueError is
    re-raised naming the file and the 1-based line."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                out.append(parse(line.strip()))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return out


def _only_under(ctx, names, setting):
    """Reject each option in names given on the command line: it applies
    under setting only, and the command line chose another."""
    given = [f"--{name.replace('_', '-')}" for name in names
             if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT]
    if given:
        raise ValueError(f"{' and '.join(given)} appl{'ies' if len(given) == 1 else 'y'} to {setting} only")


def _finite(token):
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token!r} is not a finite number")
    return value


@main.command("mask")
@click.option("--mechanism", type=click.Choice([k.value for k in MechanismKind]), required=True)
@click.option("--shape", nargs=2, type=int, default=None, help="p n (MCAR without data)")
@click.option("--data", "data_path", type=click.Path(exists=True), default=None)
@click.option("--rate", type=float, default=0.2)
@click.option("--phi0", type=float, default=0.0)
@click.option("--phi1", type=float, default=1.0)
@click.option("--driver-row", type=int, default=0)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), required=True)
@click.option("--classify", is_flag=True, help="print the pattern class of the mask")
@click.pass_context
def mask_cmd(ctx, mechanism, shape, data_path, rate, phi0, phi1, driver_row, seed, out, classify):
    """Draw an observation mask under a missingness mechanism."""
    if mechanism == "mcar":
        _only_under(ctx, ("phi0", "phi1"), "--mechanism mar or mnar")
    else:
        _only_under(ctx, ("rate",), "--mechanism mcar")
    if mechanism != "mar":
        _only_under(ctx, ("driver_row",), "--mechanism mar")
    spec = MechanismSpec(
        MechanismKind(mechanism), rate=rate, driver_row=driver_row, phi0=phi0, phi1=phi1
    )
    X = None
    if data_path is not None:
        X = read_matrix_csv(data_path).values
        shape = X.shape
    if shape is None:
        raise ValueError("either --shape or --data is required")
    m = gen_mask(tuple(shape), spec, X=X, seed=SeedSpec(seed))
    write_mask_csv(out, m)
    if classify:
        click.echo(classify_pattern(m).value)


@main.command("impute")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--mask", "mask_path", type=click.Path(exists=True), default=None)
@click.option("--method", type=click.Choice([k.value for k in ImputerKind]), default="mean")
@click.option("--k", type=int, default=5)
@click.option("--add-noise", is_flag=True)
@click.option("--draws", type=int, default=1, help="multiple-imputation draw count")
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), required=True)
@click.pass_context
def impute_cmd(ctx, in_path, mask_path, method, k, add_noise, draws, seed, out):
    """Fill the holes of a CSV matrix."""
    if method != "knn":
        _only_under(ctx, ("k",), "--method knn")
    if method in ("mean", "knn"):
        _only_under(ctx, ("add_noise",), "--method condgauss or iterative")
    if not add_noise:
        _only_under(ctx, ("seed",), "--add-noise")
    X = read_matrix_csv(in_path, mask_path)
    spec = ImputerSpec(ImputerKind(method), k=k, add_noise=add_noise)
    if draws != 1:
        for d, Xc in enumerate(multiple_impute(X, spec, draws, SeedSpec(seed))):
            write_matrix_csv(_numbered(out, d + 1), Xc)
    else:
        write_matrix_csv(out, run_imputer(X, spec, SeedSpec(seed)))


def _numbered(path, d):
    if "." in path.rsplit("/", 1)[-1]:
        stem, ext = path.rsplit(".", 1)
        return f"{stem}.{d}.{ext}"
    return f"{path}.{d}"


@main.command("estimate")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--mask", "mask_path", type=click.Path(exists=True), default=None)
@click.option("--model", type=click.Choice(["gaussian", "student"]), default="gaussian")
@click.option("--evariant", type=click.Choice([v.value for v in EVariant]), default="exact")
@click.option("--structure", default=None, help="factor:r or floor:sigma")
@click.option("--estimate-nu", is_flag=True)
@click.option("--tol", type=float, default=1e-8)
@click.option("--maxiter", type=int, default=500)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def estimate_cmd(ctx, in_path, mask_path, model, evariant, structure, estimate_nu, tol, maxiter, seed, out):
    """EM parameter estimation; emits JSON with mu, sigma, nu and the trace."""
    if structure and model == "student":
        raise ValueError("--structure applies to the gaussian model only")
    if estimate_nu and model != "student":
        raise ValueError("--estimate-nu needs --model student")
    if evariant == "exact":
        _only_under(ctx, ("seed",), "--evariant sem, mcem or saem")
    X = read_matrix_csv(in_path, mask_path)
    cfg = EmConfig(e_variant=EVariant(evariant), tol=tol, max_iter=maxiter, seed=SeedSpec(seed))
    if structure:
        fit = em_structured_fit(X, _parse_structure(structure), cfg)
    elif model == "gaussian":
        fit = em_gaussian_fit(X, cfg=cfg)
    else:
        fit = em_student_fit(X, cfg=cfg, estimate_nu=estimate_nu)
    payload = {
        "mu": list(map(float, fit.params.mu)),
        "sigma": [list(map(float, row)) for row in fit.params.sigma],
        "loglik_trace": list(map(float, fit.loglik_trace)),
        "converged": bool(fit.converged),
    }
    if model == "student":
        payload["nu"] = float(fit.params.nu)
    _emit_json(payload, out)


def _parse_structure(text):
    kind, _, value = text.partition(":")
    if kind == "factor" and value.isdecimal():
        return CovStructure(StructureKind.FACTOR_MODEL, r=int(value))
    if kind == "floor" and value:
        return CovStructure(StructureKind.NOISE_FLOOR, sigma_known=float(value))
    raise ValueError(f"bad --structure {text!r}; expected factor:r or floor:sigma")


def _emit_json(payload, out):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@main.command("mnar-fit")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--mask", "mask_path", type=click.Path(exists=True), default=None)
@click.option("--phi0", type=float, default=0.0)
@click.option("--phi1-init", type=float, default=0.0)
@click.option("--iters", type=int, default=200)
@click.option("--burnin", type=int, default=50)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), default=None)
def mnar_fit_cmd(in_path, mask_path, phi0, phi1_init, iters, burnin, seed, out):
    """Stochastic-EM fit of the self-masked selection model."""
    X = read_matrix_csv(in_path, mask_path)
    res = sem_selection_fit(
        X, init_phi=(phi0, phi1_init), iters=iters, burn_in=burnin, seed=SeedSpec(seed)
    )
    payload = {
        "mu": list(map(float, res.theta.mu)),
        "sigma": list(map(float, res.theta.sigma)),
        "phi": list(map(float, res.phi)),
        "separation_warnings": res.separation_warnings,
        "mu_chain": [list(map(float, row)) for row in res.mu_chain],
        "phi_chain": [list(map(float, row)) for row in res.phi_chain],
    }
    _emit_json(payload, out)


@main.command("complete")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--mask", "mask_path", type=click.Path(exists=True), default=None)
@click.option("--mode", type=click.Choice(["hard", "soft"]), default="hard")
@click.option("--rank", type=int, default=2)
@click.option("--lam", "--lambda", type=float, default=1.0)
@click.option("--tol", type=float, default=1e-6)
@click.option("--maxiter", type=int, default=500)
@click.option("--out", type=click.Path(), required=True)
@click.pass_context
def complete_cmd(ctx, in_path, mask_path, mode, rank, lam, tol, maxiter, out):
    """Low-rank completion of a gappy CSV matrix."""
    if mode == "hard":
        _only_under(ctx, ("lam",), "--mode soft")
    else:
        _only_under(ctx, ("rank",), "--mode hard")
    X = read_matrix_csv(in_path, mask_path)
    if mode == "hard":
        res = hard_impute(X, rank, tol=tol, max_iter=maxiter)
    else:
        res = soft_impute(X, lam, tol=tol, max_iter=maxiter)
    write_matrix_csv(out, res.X)
    if not res.converged:
        click.echo("warning: completion did not converge", err=True)


@main.command("track")
@click.option("--stream", type=click.Path(exists=True), required=True, help="p x T CSV, empty = missing")
@click.option("--mode", type=click.Choice(["petrels", "robust"]), default="petrels")
@click.option("--rank", type=int, default=2)
@click.option("--forget", type=float, default=0.98)
@click.option("--rho", type=float, default=1.0)
@click.option("--alpha", type=float, default=0.0)
@click.option("--truth", type=click.Path(exists=True), default=None, help="p x r basis CSV for sep")
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), required=True)
@click.pass_context
def track_cmd(ctx, stream, mode, rank, forget, rho, alpha, truth, seed, out):
    """Stream a gappy matrix through the subspace tracker; per-step CSV out."""
    if mode == "petrels":
        _only_under(ctx, ("rho", "alpha"), "--mode robust")
    Y = read_matrix_csv(stream)
    state = petrels_init(Y.p, rank, SeedSpec(seed), lambda_forget=forget)
    cfg = RobustConfig(rho=rho, alpha_reg=alpha)
    U_true = None
    if truth:
        T = read_matrix_csv(truth)
        if T.n_missing() > 0:
            raise ValueError(f"--truth {truth} has missing entries")
        if T.shape != (Y.p, rank):
            raise ValueError(f"--truth must be {Y.p} x {rank} (p x rank), got {T.p} x {T.n}")
        _orthonormalize(T.values, f"basis in --truth {truth}")  # sep's own rank test, once at load
        U_true = T.values
    # One row per step, built once: a step must not copy the whole stream.
    steps = zip(np.ascontiguousarray(Y.filled(0.0).T), np.ascontiguousarray(Y.mask.T))
    lines = ["t,residual" + (",sep" if U_true is not None else "")]
    with np.errstate(over="raise"):  # an overflow in the tracker is a numerical failure
        for t, (y_t, m_t) in enumerate(steps):
            if mode == "petrels":
                petrels_update(state, y_t, m_t)
            else:
                robust_update(state, y_t, m_t, cfg)
            # the residual under the updated basis, not a repeat of the update's solve
            w, _ = petrels_weights(state.U, y_t, m_t)
            resid = np.linalg.norm(m_t * (y_t - state.U @ w))
            row = f"{t},{format_float(resid)}"
            if U_true is not None:
                try:
                    row += f",{format_float(sep(state.U, U_true))}"
                except ValueError as exc:  # the truth was checked above, so the tracked basis lost rank
                    raise np.linalg.LinAlgError(f"tracked basis at step {t}: {exc}") from exc
            lines.append(row)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@main.group("graph")
def graph_group():
    """Graph-signal recovery and graph learning."""


def _read_edge_csv(path, p):
    def edge(line):
        if not line or line.startswith("#"):
            return None
        fields = line.split(",")
        if len(fields) != 3:
            raise ValueError(f"expected i,j,weight, got {line!r}")
        i, j = int(fields[0]), int(fields[1])
        if not (0 <= i < p and 0 <= j < p):
            raise ValueError(f"node index outside [0, {p})")
        return i, j, _finite(fields[2])

    edges = [e for e in _read_lines(path, edge) if e is not None]
    try:
        return UndirectedGraph.from_edges(p, edges)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _write_edge_csv(path, pairs):
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, w in pairs:
            fh.write(f"{i},{j},{format_float(w)}\n")


@graph_group.command("recover")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--mask", "mask_path", type=click.Path(exists=True), default=None)
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--smoothness", "smooth", type=click.Choice(["tikhonov", "tv"]), default="tikhonov")
@click.option("--fidelity", type=click.Choice([v.value for v in FidelityKind]), default="exact")
@click.option("--alpha", type=float, default=1.0, help="smoothness weight (squared or huber fidelity)")
@click.option("--beta", type=float, default=0.0, help="Frobenius weight (squared or huber fidelity)")
@click.option("--out", type=click.Path(), required=True)
@click.pass_context
def graph_recover_cmd(ctx, in_path, mask_path, graph_path, smooth, fidelity, alpha, beta, out):
    """Interpolate missing node signals on a known graph."""
    if smooth == "tv":
        _only_under(ctx, ("fidelity",), "--smoothness tikhonov")
    if smooth == "tv" or fidelity == "exact":
        _only_under(ctx, ("alpha", "beta"), "--smoothness tikhonov with --fidelity squared or huber")
    Y = read_matrix_csv(in_path, mask_path)
    G = _read_edge_csv(graph_path, Y.p)
    if smooth == "tv":
        X = recover_tv(Y, G)
    else:
        cfg = RecoveryConfig(fidelity=FidelityKind(fidelity), alpha=alpha, beta=beta)
        X = recover_tikhonov(Y, G, cfg)
    write_matrix_csv(out, X)


@graph_group.command("learn")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--model", type=click.Choice(["gmrf", "var"]), default="gmrf")
@click.option("--alpha", type=float, default=0.1)
@click.option("--out", type=click.Path(), required=True)
def graph_learn_cmd(in_path, model, alpha, out):
    """Learn a graph from a complete signal matrix; edge-list CSV out."""
    X = read_matrix_csv(in_path)
    if X.n_missing() > 0:
        raise ValueError("graph learning needs a complete matrix; impute first")
    vals = X.values
    if model == "gmrf":
        with np.errstate(over="ignore", invalid="ignore"):
            S = vals @ vals.T / X.n
        if not np.isfinite(S).all():
            raise ArithmeticError(
                f"gmrf_learn at alpha={alpha}: the second-moment matrix overflows float64; "
                "rescale the signals"
            )
        G = gmrf_learn(S, alpha)
        _write_edge_csv(out, G.edges())
    else:
        _write_edge_csv(out, var_learn(vals, alpha).edges())


@graph_group.command("joint")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--mask", "mask_path", type=click.Path(exists=True), default=None)
@click.option("--alpha-a", type=float, default=0.01)
@click.option("--alpha-l", type=float, default=0.05)
@click.option("--sigma-n2", type=float, default=0.01)
@click.option("--iters", type=int, default=10)
@click.option("--out-prefix", required=True, help="writes <prefix>.X.csv, .L.csv, .A.csv")
def graph_joint_cmd(in_path, mask_path, alpha_a, alpha_l, sigma_n2, iters, out_prefix):
    """Joint signal recovery plus spatial/temporal graph learning."""
    Y = read_matrix_csv(in_path, mask_path)
    res = stsrgl_fit(Y, alpha_a=alpha_a, alpha_l=alpha_l, sigma_n2=sigma_n2, iters=iters)
    write_matrix_csv(f"{out_prefix}.X.csv", res.X)
    _write_edge_csv(f"{out_prefix}.L.csv", res.L.edges())
    _write_edge_csv(f"{out_prefix}.A.csv", res.A.edges())


@main.command("ts-fit")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--iters", type=int, default=300)
@click.option("--nu", type=float, default=None, help="fix the degrees of freedom")
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), default=None)
def ts_fit_cmd(in_path, iters, nu, seed, out):
    """Fit the AR(1) Student-t model to a single-column gappy series."""
    y = _read_series(in_path)
    cfg = EmConfig(max_iter=iters, seed=SeedSpec(seed))
    init = None if nu is None else Ar1StudentParams(*_ols_ar1(y), nu)
    fit = ar1t_fit_saem(y, init=init, cfg=cfg, estimate_nu=nu is None)
    payload = {
        "mu": fit.params.mu,
        "a": fit.params.a,
        "sigma": fit.params.sigma,
        "nu": fit.params.nu,
        "iters": fit.n_iter,
    }
    _emit_json(payload, out)


def _read_series(path):
    def value(line):
        tok = line.rstrip(",")
        return _finite(tok) if tok else np.nan

    return np.array(_read_lines(path, value), dtype=float)


@main.command("ts-impute")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--draws", type=int, default=5)
@click.option("--mu", type=float, required=True)
@click.option("--a", type=float, required=True)
@click.option("--sigma", type=float, required=True)
@click.option("--nu", type=float, required=True)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), required=True)
def ts_impute_cmd(in_path, draws, mu, a, sigma, nu, seed, out):
    """Posterior-draw completions of a gappy series; one column per draw."""
    y = _read_series(in_path)
    paths = ar1t_multiple_impute(y, Ar1StudentParams(mu, a, sigma, nu), draws, SeedSpec(seed))
    write_matrix_csv(out, paths.T)


@main.command("bench")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out-dir", type=click.Path(), default=".")
def bench_cmd(config_path, out_dir):
    """Run a replicated experiment; writes results.csv and manifest.json."""
    import os

    result = run_experiment(load_config(config_path))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.csv"), "w", encoding="utf-8") as fh:
        fh.write(result.to_csv())
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(result.manifest_json())
    if result.all_failed:
        click.echo("all replicates failed", err=True)
        sys.exit(EXIT_ALL_FAILED)


@main.command("compare")
@click.option("--config", "config_paths", type=click.Path(exists=True), multiple=True, required=True)
@click.option("--out", type=click.Path(), required=True)
def compare_cmd(config_paths, out):
    """Aligned-seed comparison of several method configs."""
    rows = compare_methods([load_config(p) for p in config_paths])
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(comparison_csv(rows))


if __name__ == "__main__":
    main()
