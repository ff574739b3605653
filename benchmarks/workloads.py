"""The three benchmark workloads: seeded inputs, call sequences and checks.

Every workload is a `setup` that draws all inputs from the workload seed and
an `ops` list that makes one closed-loop pass over the library. An op is
(name, call, check): `call()` makes the timed library or CLI call(s) and
`check(result)` returns None or a message naming the failed assertion. The
checks are acceptance-criterion assertions that apply to a single call; they
run outside the timed region and make no library calls of their own.

Library functions are always looked up through their module at call time
(`graph.stsrgl_fit`, never a name imported at load time), so the traced run
sees every call through the wrappers installed in spans.py.
"""
from __future__ import annotations

import os
from time import perf_counter

import numpy as np
from click.testing import CliRunner

from gapkit import (
    cli,
    core,
    em,
    graph,
    harness,
    imputation,
    mechanisms,
    mnar,
    structcov,
    subspace,
    timeseries,
)

# Stated sizes ("full") and the reduced sizes the self-test uses ("small").
SIZES = {
    "graph_joint": {
        "full": dict(side=8, n=200, fields=60, field_side=10, tv_iters=200, gmrf_iters=500),
        "small": dict(side=4, n=20, fields=6, field_side=4, tv_iters=20, gmrf_iters=50),
    },
    "stream_track": {
        "full": dict(p=50, clean_steps=3000, outlier_steps=4000, cli_n=1000),
        "small": dict(p=20, clean_steps=300, outlier_steps=400, cli_n=50),
    },
    "estimate": {
        "full": dict(
            n8=1000, n3=2000, saem_iters=100, sem_n=5000, sem_iters=800,
            ar_n=3000, ar_iters=100, mi_draws=10, mi_sweeps=20, exp_side=100, exp_reps=5,
        ),
        "small": dict(
            n8=100, n3=200, saem_iters=10, sem_n=300, sem_iters=40,
            ar_n=200, ar_iters=10, mi_draws=2, mi_sweeps=2, exp_side=20, exp_reps=2,
        ),
    },
}

MCAR = mechanisms.MechanismKind.MCAR


def _rng(seed, stream):
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, stream])


def _mcar_matrix(values, rate, seed, stream):
    mask = mechanisms.gen_mask(
        values.shape,
        mechanisms.MechanismSpec(MCAR, rate=rate),
        seed=core.SeedSpec(seed, stream),
    )
    return core.IncompleteMatrix(values, mask)


def _rmse(Xhat, Xtrue, mask):
    hole = np.asarray(mask) == 0
    return float(np.sqrt(np.mean((np.asarray(Xhat)[hole] - Xtrue[hole]) ** 2)))


def _mean_fill(Y, axis):
    """Y with each missing entry set to the observed mean along `axis`
    (axis=0: column means, axis=1: row means)."""
    obs = Y.mask == 1
    zeros = np.where(obs, Y.values, 0.0)
    means = np.expand_dims(zeros.sum(axis=axis) / Y.mask.sum(axis=axis), axis)
    return np.where(obs, zeros, means)


def _keeps_observed(Xhat, Y):
    obs = Y.mask == 1
    if not np.array_equal(np.asarray(Xhat)[obs], Y.values[obs]):
        return "observed entries changed"
    return None


def _finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(np.asarray(a, dtype=float))):
            return "non-finite fitted values"
    return None


def _first(*messages):
    return next((m for m in messages if m), None)


# ---------------------------------------------------------------------------
# graph_joint
# ---------------------------------------------------------------------------


def _grid(side):
    p = side * side
    W = np.zeros((p, p))
    for i in range(side):
        for j in range(side):
            v = i * side + j
            if j + 1 < side:
                W[v, v + 1] = W[v + 1, v] = 1.0
            if i + 1 < side:
                W[v, v + side] = W[v + side, v] = 1.0
    return W


def _laplacian_spectrum(W):
    w_eig, V = np.linalg.eigh(np.diag(W.sum(1)) - W)
    nz = w_eig > 1e-9
    return V[:, nz], w_eig[nz]


def setup_graph_joint(seed, size, workdir):
    """Criterion-5 generators, scaled down: a GMRF-driven AR(1) grid field
    (lag 0.4, noise 0.1, 50% MCAR) and smooth low-frequency fields."""
    rng = _rng(seed, 1)
    W = _grid(size["side"])
    V, lam = _laplacian_spectrum(W)
    half = V / np.sqrt(lam)
    p, n2 = W.shape[0], 2 * size["n"]
    X = np.zeros((p, n2))
    cur = half @ rng.standard_normal(len(lam))
    for t in range(n2):
        cur = 0.4 * cur + half @ rng.standard_normal(len(lam))
        X[:, t] = cur
    Y2n = _mcar_matrix(X + 0.1 * rng.standard_normal((p, n2)), 0.5, seed, 1)
    Yn = core.IncompleteMatrix(Y2n.values[:, : size["n"]], Y2n.mask[:, : size["n"]])

    Wf = _grid(size["field_side"])
    Vf, lamf = _laplacian_spectrum(Wf)
    amps = 1.0 / (0.3 + lamf)
    fields = Vf @ (amps[:, None] * rng.standard_normal((len(lamf), size["fields"])))
    Yf = _mcar_matrix(fields + 0.1 * rng.standard_normal(fields.shape), 0.5, seed, 2)
    return dict(size=size, X=X, Yn=Yn, Y2n=Y2n, Wf=Wf, fields=fields, Yf=Yf)


def ops_graph_joint(inp, recorder):
    size, X, Yf, fields = inp["size"], inp["X"], inp["Yf"], inp["fields"]
    out = {}
    joint = dict(alpha_a=0.02, alpha_l=0.07, sigma_n2=0.01, iters=8, x_sweeps=3,
                 gmrf_iters=size["gmrf_iters"])

    def fit(Y):
        def call():
            res = graph.stsrgl_fit(Y, **joint)
            out[Y.n] = res
            return res

        def check(res):
            truth = X[:, : Y.n]
            r_fit = _rmse(res.X, truth, Y.mask)
            r_mean = _rmse(_mean_fill(Y, 0), truth, Y.mask)
            if not r_fit < r_mean:
                return f"joint-fit RMSE {r_fit:.4f} does not beat column-mean fill {r_mean:.4f}"
            return None

        return call, check

    def learn_gmrf():
        Xc = out[inp["Y2n"].n].X
        return graph.gmrf_learn(Xc @ Xc.T / Xc.shape[1], joint["alpha_l"])

    def learn_var():
        return graph.var_learn(out[inp["Y2n"].n].X, 50.0)

    r_mean_f = _rmse(_mean_fill(Yf, 1), fields, Yf.mask)

    def tikhonov(fidelity):
        cfg = graph.RecoveryConfig(fidelity=graph.FidelityKind(fidelity))
        return lambda: graph.recover_tikhonov(Yf, inp["Wf"], cfg)

    def check_exact(Xhat):
        r_tik = _rmse(Xhat, fields, Yf.mask)
        if not r_tik <= 0.7 * r_mean_f:
            return f"exact Tikhonov RMSE {r_tik:.4f} above 0.7 x mean fill {r_mean_f:.4f}"
        return _keeps_observed(Xhat, Yf)

    return [
        ("graph.stsrgl_fit.n", *fit(inp["Yn"])),
        ("graph.stsrgl_fit.2n", *fit(inp["Y2n"])),
        ("graph.gmrf_learn", learn_gmrf, lambda g: _finite(g.W)),
        ("graph.var_learn", learn_var, lambda g: _finite(g.A)),
        ("graph.recover_tikhonov.exact", tikhonov("exact"), check_exact),
        ("graph.recover_tikhonov.squared", tikhonov("squared"), _finite),
        ("graph.recover_tikhonov.huber", tikhonov("huber"), _finite),
        (
            "graph.recover_tv",
            lambda: graph.recover_tv(Yf, inp["Wf"], max_iter=size["tv_iters"]),
            lambda Xhat: _first(_finite(Xhat), _keeps_observed(Xhat, Yf)),
        ),
    ]


# ---------------------------------------------------------------------------
# stream_track
# ---------------------------------------------------------------------------

RANK = 2
NOISE_SD = 10 ** (-20 / 20)  # SNR 20 dB at unit signal power


def _stream(rng, U, steps, outliers, seed, stream):
    p = U.shape[0]
    Y = U @ rng.standard_normal((RANK, steps)) + NOISE_SD * rng.standard_normal((p, steps))
    if outliers:
        spikes = rng.random((p, steps)) < 0.1
        Y = Y + spikes * 10.0 * rng.choice([-1.0, 1.0], (p, steps))
    return _mcar_matrix(Y, 0.1, seed, stream)


def _write_stream_csv(path, Y):
    """Stream CSV in the CLI's format: one row per variable, empty = missing."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for vals, obs in zip(Y.values, Y.mask):
            fh.write(",".join(repr(float(v)) if o else "" for v, o in zip(vals, obs)) + "\n")


def setup_stream_track(seed, size, workdir):
    """Criterion-4 streams: p x r subspace, SNR 20 dB, 10% rows missing per
    step; a clean stream, an outlier stream, and two outlier CSV streams."""
    rng = _rng(seed, 2)
    p = size["p"]
    U = np.linalg.qr(rng.standard_normal((p, RANK)))[0]
    # Steps read one column each: keep the columns contiguous.
    steps = {}
    for stream, (key, outliers) in enumerate((("clean", False), ("outlier", True)), start=10):
        Y = _stream(rng, U, size[f"{key}_steps"], outliers, seed, stream)
        steps[key] = (np.ascontiguousarray(Y.values.T), np.ascontiguousarray(Y.mask.T))
    csv = {}
    for stream, (label, n) in enumerate((("n", size["cli_n"]), ("2n", 2 * size["cli_n"])), start=12):
        path = os.path.join(workdir, f"stream_{label}.csv")
        _write_stream_csv(path, _stream(rng, U, n, True, seed, stream))
        csv[label] = (path, n)
    return dict(U=U, csv=csv, workdir=workdir, seed=seed, **steps)


def ops_stream_track(inp, recorder):
    U, seed = inp["U"], inp["seed"]
    p = U.shape[0]
    cfg = subspace.RobustConfig(rho=1.0)
    seps = {}

    def track(key, robust):
        Y, M = inp[key]

        def call():
            state = subspace.petrels_init(p, RANK, core.SeedSpec(seed, 3), lambda_forget=0.98)
            if robust:
                steps = recorder.step_times
                for y_t, m_t in zip(Y, M):
                    t0 = perf_counter()
                    subspace.robust_update(state, y_t, m_t, cfg)
                    steps.append(perf_counter() - t0)
            else:
                for y_t, m_t in zip(Y, M):
                    subspace.petrels_update(state, y_t, m_t)
            seps[(key, robust)] = core.sep(state.U, U)
            return state

        return call

    def check_clean(_state):
        value = seps[("clean", False)]
        return None if value < 1e-2 else f"plain PETRELS sep {value:.4g} not below 1e-2"

    def check_robust(_state):
        rob, plain = seps[("outlier", True)], seps.get(("outlier", False), np.nan)
        return None if rob < plain else f"robust sep {rob:.4g} not below plain sep {plain:.4g}"

    runner = CliRunner()

    def cli_track(label):
        path, n = inp["csv"][label]
        out_path = os.path.join(inp["workdir"], f"track_{label}.csv")
        args = ["track", "--stream", path, "--mode", "robust", "--rank", str(RANK),
                "--seed", str(seed), "--out", out_path]

        def call():
            with recorder.span(f"cli.track.{label}"):
                result = runner.invoke(cli.main, args, catch_exceptions=True)
            return result, out_path, n

        return call

    def check_cli(res):
        result, out_path, n = res
        if result.exit_code != 0:
            return f"gapkit track exited {result.exit_code}: {result.exception!r}"
        with open(out_path, encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        return None if lines == n + 1 else f"gapkit track wrote {lines} lines, expected {n + 1}"

    return [
        ("subspace.petrels.clean", track("clean", False), check_clean),
        ("subspace.petrels.outlier", track("outlier", False), lambda _s: None),
        ("subspace.robust.outlier", track("outlier", True), check_robust),
        ("cli.track.n", cli_track("n"), check_cli),
        ("cli.track.2n", cli_track("2n"), check_cli),
    ]


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _ar1_t(rng, n, mu, a, sigma, nu):
    x = np.zeros(n)
    cur = mu / (1 - a)
    for t in range(n):
        cur = mu + a * cur + sigma * rng.standard_t(nu)
        x[t] = cur
    return x


def setup_estimate(seed, size, workdir):
    """Generators of criteria 1, 7 and 10 plus a soft-impute experiment:
    Gaussian p=8 (two-factor covariance) and p=3 data at 30% MCAR, a
    self-masked univariate sample, and an AR(1)-t series with 15% block gaps."""
    rng = _rng(seed, 3)
    B = rng.standard_normal((8, 2))
    sigma8 = B @ B.T + 0.5 * np.eye(8)
    vals8 = np.linalg.cholesky(sigma8) @ rng.standard_normal((8, size["n8"]))
    X8 = _mcar_matrix(vals8 + np.arange(8)[:, None], 0.3, seed, 3)
    A = rng.standard_normal((3, 3))
    vals3 = np.linalg.cholesky(A @ A.T + 0.5 * np.eye(3)) @ rng.standard_normal((3, size["n3"]))
    X3 = _mcar_matrix(vals3 + np.array([[1.0], [-2.0], [0.5]]), 0.3, seed, 4)

    x = rng.standard_normal((1, size["sem_n"]))
    self_mask = mechanisms.MechanismSpec(mechanisms.MechanismKind.MNAR_SELF_MASK, phi0=0.0, phi1=2.0)
    mask = mechanisms.gen_mask(x.shape, self_mask, X=x, seed=core.SeedSpec(seed, 5))
    Xsem = core.IncompleteMatrix(x, mask)

    n = size["ar_n"]
    series = _ar1_t(rng, n, 0.01, 0.9, 0.1, 4.0)
    miss = np.zeros(n, bool)
    while miss.mean() < 0.15:
        start = rng.integers(1, n - 21)
        miss[start : start + rng.integers(5, 21)] = True
    miss[0] = miss[-1] = False
    y = series.copy()
    y[miss] = np.nan

    experiment = harness.ExperimentConfig(
        {"kind": "lowrank", "p": size["exp_side"], "n": size["exp_side"], "rank": 2, "noise": 0.05},
        {"kind": "mcar", "rate": 0.25},
        {"module": "complete", "mode": "soft", "lam": 1.0},
        replicates=size["exp_reps"],
        seed=seed,
    )
    return dict(size=size, seed=seed, X8=X8, X3=X3, Xsem=Xsem, y=y, experiment=experiment)


def ops_estimate(inp, recorder):
    size, seed = inp["size"], inp["seed"]
    X8, X3, y = inp["X8"], inp["X3"], inp["y"]
    out = {}

    def keep(key, fn):
        def call():
            out[key] = fn()
            return out[key]

        return call

    def check_exact(fit):
        if not np.all(np.diff(fit.loglik_trace) >= -1e-10):
            return "exact-EM log-likelihood trace decreased"
        if not fit.converged:
            return f"exact EM did not converge in {fit.n_iter} iterations"
        return _finite(fit.params.mu, fit.params.sigma)

    def check_params(fit):
        return _finite(fit.params.mu, fit.params.sigma)

    def check_imputed(Xhat):
        return _first(_finite(Xhat), _keeps_observed(Xhat, X8))

    def check_sem(res):
        return _finite(res.theta.mu, res.theta.sigma, res.phi)

    def check_ar1(fit):
        q = fit.params
        return _finite([q.mu, q.a, q.sigma, q.nu])

    def check_mi(draws):
        obs = np.isfinite(y)
        if not np.array_equal(draws[:, obs], np.broadcast_to(y[obs], (draws.shape[0], obs.sum()))):
            return "observed points changed"
        return _finite(draws)

    def check_experiment(result):
        if result.failures:
            return f"replicates failed: {result.failures[0][1]}"
        text = result.to_csv()
        ref = recorder.reference.setdefault("results.csv", text)
        return None if text == ref else "run_experiment CSV differs on a rerun"

    exact = em.EmConfig(tol=1e-8, max_iter=1000)
    saem = em.EmConfig(e_variant=em.EVariant.SAEM, tol=1e-12, max_iter=size["saem_iters"],
                       seed=core.SeedSpec(seed, 6))
    factor = structcov.CovStructure(structcov.StructureKind.FACTOR_MODEL, r=2)
    return [
        ("em.em_gaussian_fit.exact", keep("exact", lambda: em.em_gaussian_fit(X8, cfg=exact)), check_exact),
        ("em.em_gaussian_fit.saem", lambda: em.em_gaussian_fit(X3, cfg=saem), check_params),
        ("em.em_student_fit", lambda: em.em_student_fit(X3, cfg=exact, estimate_nu=True), check_params),
        ("structcov.em_structured_fit", lambda: structcov.em_structured_fit(X8, factor, cfg=exact),
         check_params),
        ("imputation.impute_conditional_gaussian",
         lambda: imputation.impute_conditional_gaussian(X8, out["exact"].params), check_imputed),
        ("mnar.sem_selection_fit",
         lambda: mnar.sem_selection_fit(inp["Xsem"], init_phi=(0.0, 1.0), iters=size["sem_iters"],
                                        burn_in=size["sem_iters"] // 2, seed=core.SeedSpec(seed, 7)),
         check_sem),
        ("timeseries.ar1t_fit_saem",
         keep("ar1", lambda: timeseries.ar1t_fit_saem(
             y, cfg=em.EmConfig(max_iter=size["ar_iters"], seed=core.SeedSpec(seed, 8)))),
         check_ar1),
        ("timeseries.ar1t_multiple_impute",
         lambda: timeseries.ar1t_multiple_impute(y, out["ar1"].params, size["mi_draws"],
                                                 core.SeedSpec(seed, 9), sweeps=size["mi_sweeps"]),
         check_mi),
        ("harness.run_experiment", lambda: harness.run_experiment(inp["experiment"]), check_experiment),
    ]


WORKLOADS = {
    "graph_joint": (setup_graph_joint, ops_graph_joint),
    "stream_track": (setup_stream_track, ops_stream_track),
    "estimate": (setup_estimate, ops_estimate),
}
