import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.optimize import minimize
from scipy.stats import multivariate_t

from gapkit.core import ColumnSplit, IncompleteMatrix, SeedSpec, split_column
from gapkit.em import (
    EmConfig,
    EVariant,
    GaussianParams,
    StudentTParams,
    conditional_gaussian,
    em_gaussian_fit,
    em_student_fit,
    observed_loglik_gaussian,
    observed_loglik_student,
)
from gapkit.mechanisms import MechanismKind, MechanismSpec, gen_mask
from gapkit.structcov import CovStructure, StructureKind, em_structured_fit

BIVAR = GaussianParams([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])


def _mcar(values, rate, seed):
    mask = gen_mask(values.shape, MechanismSpec(MechanismKind.MCAR, rate=rate), seed=SeedSpec(seed))
    return IncompleteMatrix(values, mask)


def _split(observed_idx, missing_idx, x_o):
    return ColumnSplit(np.array(observed_idx), np.array(missing_idx), np.array(x_o, dtype=float))


# -- conditional moments ----------------------------------------------------


def test_conditional_block_diagonal():
    params = GaussianParams([1.0, 2.0, 3.0], np.diag([1.0, 2.0, 3.0]))
    mu_c, sig_c = conditional_gaussian(params, _split([0], [1, 2], [5.0]))
    assert_allclose(mu_c, [2.0, 3.0])
    assert_allclose(sig_c, np.diag([2.0, 3.0]))


def test_conditional_bivariate_hand_values():
    mu_c, sig_c = conditional_gaussian(BIVAR, _split([0], [1], [2.0]))
    assert_allclose(mu_c, [1.0])
    assert_allclose(sig_c, [[0.75]])


def test_conditional_bivariate_monte_carlo_oracle():
    # rejection sampling from the joint, conditioning on a thin slab at x0=2
    rng = np.random.default_rng(0)
    L = np.linalg.cholesky(BIVAR.sigma)
    draws = (L @ rng.standard_normal((2, 2_000_000)))
    keep = np.abs(draws[0] - 2.0) < 0.02
    cond = draws[1, keep]
    mu_c, sig_c = conditional_gaussian(BIVAR, _split([0], [1], [2.0]))
    se_mean = cond.std(ddof=1) / np.sqrt(len(cond))
    assert abs(cond.mean() - mu_c[0]) < 3 * se_mean
    se_var = cond.var(ddof=1) * np.sqrt(2.0 / (len(cond) - 1))
    assert abs(cond.var(ddof=1) - sig_c[0, 0]) < 3 * se_var


def test_conditional_nothing_missing():
    mu_c, sig_c = conditional_gaussian(BIVAR, _split([0, 1], [], [1.0, 2.0]))
    assert mu_c.size == 0 and sig_c.size == 0


def test_conditional_loewner_order():
    rng = np.random.default_rng(1)
    for _ in range(25):
        A = rng.standard_normal((4, 4))
        params = GaussianParams(rng.standard_normal(4), A @ A.T + 0.5 * np.eye(4))
        mu_c, sig_c = conditional_gaussian(params, _split([0, 2], [1, 3], rng.standard_normal(2)))
        S_mm = params.sigma[np.ix_([1, 3], [1, 3])]
        assert np.linalg.eigvalsh(S_mm - sig_c).min() >= -1e-10


def test_conditional_singular_block():
    # duplicate-variable covariance gives an exactly singular observed block;
    # built via __new__ to sidestep the SPD check in the constructor
    dup = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    params = GaussianParams.__new__(GaussianParams)
    params.mu = np.zeros(3)
    params.sigma = dup
    with pytest.raises((ValueError, np.linalg.LinAlgError)):
        conditional_gaussian(params, _split([0, 1], [2], [1.0, 1.0]))


def test_condition_kernel_matches_solve_reference():
    from gapkit.em import _condition

    rng = np.random.default_rng(50)
    A = rng.standard_normal((5, 5))
    sigma = A @ A.T + 0.5 * np.eye(5)
    mu = rng.standard_normal(5)
    for obs, mis in (([0, 2, 3], [1, 4]), ([0, 1, 2, 3, 4], []), ([], [0, 1, 2, 3, 4])):
        obs, mis = np.array(obs, dtype=int), np.array(mis, dtype=int)
        x_o = rng.standard_normal((len(obs), 4))
        one_group = np.zeros(4, dtype=int)
        delta, logdet, mu_c, sigma_c = _condition(mu, sigma, obs[None], mis[None], one_group, x_o.T)
        logdet, mu_c, sigma_c = logdet[0], mu_c.T, sigma_c[0]
        S_oo, S_mo = sigma[np.ix_(obs, obs)], sigma[np.ix_(mis, obs)]
        dev = x_o - mu[obs, None]
        B = np.linalg.solve(S_oo, S_mo.T).T if len(obs) else np.zeros((len(mis), 0))
        ref_delta = np.sum(dev * np.linalg.solve(S_oo, dev), axis=0) if len(obs) else np.zeros(4)
        ref_logdet = np.linalg.slogdet(S_oo)[1] if len(obs) else 0.0
        assert_allclose(delta, ref_delta, rtol=1e-12)
        assert_allclose(logdet, ref_logdet, rtol=1e-12)
        assert_allclose(mu_c, mu[mis, None] + B @ dev, rtol=1e-12)
        assert_allclose(sigma_c, sigma[np.ix_(mis, mis)] - B @ S_mo.T, rtol=1e-12, atol=1e-14)
    dup = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="singular observed-block covariance"):
        _condition(np.zeros(3), dup, np.array([[0, 1]]), np.array([[2]]), np.zeros(1, dtype=int), np.ones((1, 2)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(st.lists(st.integers(0, 1), min_size=p, max_size=p), min_size=0, max_size=10),
            st.integers(0, 2**32 - 1),
        )
    )
)
def test_batched_conditioning_matches_per_column_solve(case):
    from gapkit.em import _condition_all

    p, mask_cols, seed = case
    mask = np.array([[1] * p, [0] * p, *mask_cols], dtype=np.int8).T  # always a full and an empty column
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((p, p))
    sigma = A @ A.T + 0.5 * np.eye(p)
    mu = rng.standard_normal(p)
    X = IncompleteMatrix(rng.standard_normal(mask.shape), mask)
    cond = _condition_all(mu, sigma, X)
    seen = []
    for (_, _, cols, group, _), sigma_cs in zip(X.pattern_batches, cond.covs):
        for j, g in zip(cols, group):
            obs, mis = np.flatnonzero(mask[:, j]), np.flatnonzero(mask[:, j] == 0)
            S_oo, S_mo = sigma[np.ix_(obs, obs)], sigma[np.ix_(mis, obs)]
            dev = X.values[obs, j] - mu[obs]
            ref_delta = dev @ np.linalg.solve(S_oo, dev) if len(obs) else 0.0
            ref_logdet = np.linalg.slogdet(S_oo)[1] if len(obs) else 0.0
            B = np.linalg.solve(S_oo, S_mo.T).T if len(obs) else np.zeros((len(mis), 0))
            assert_allclose(cond.delta[j], ref_delta, rtol=1e-10, atol=1e-12)
            assert_allclose(cond.logdet[j], ref_logdet, rtol=1e-10, atol=1e-12)
            assert_allclose(cond.mean[mis, j], mu[mis] + B @ dev, rtol=1e-10, atol=1e-12)
            assert_allclose(cond.mean[obs, j], X.values[obs, j], rtol=0)
            ref_cov = sigma[np.ix_(mis, mis)] - B @ S_mo.T
            assert_allclose(sigma_cs[g], ref_cov, rtol=1e-10, atol=1e-12)
            seen.append(j)
    assert sorted(seen) == list(range(X.n))
    assert np.array_equal(cond.k, mask.sum(axis=0))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(15, 60), st.floats(0.05, 0.45), st.integers(0, 2**32 - 1))
def test_exact_em_trace_never_decreases(p, n, rate, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((p, p))
    vals = np.linalg.cholesky(A @ A.T + 0.3 * np.eye(p)) @ rng.standard_normal((p, n))
    mask = (rng.random((p, n)) >= rate).astype(np.int8)
    mask[:, :2] = 1  # every row observed at least twice
    fit = em_gaussian_fit(IncompleteMatrix(vals, mask), cfg=EmConfig(tol=1e-10, max_iter=60))
    assert np.all(np.diff(fit.loglik_trace) >= -1e-10)


# -- observed log likelihood --------------------------------------------------


def test_observed_loglik_complete_data():
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((2, 50))
    X = IncompleteMatrix.from_complete(vals)
    ll = observed_loglik_gaussian(BIVAR, X)
    Sinv = np.linalg.inv(BIVAR.sigma)
    _, logdet = np.linalg.slogdet(BIVAR.sigma)
    quad_forms = np.einsum("ij,ij->j", vals, Sinv @ vals)
    expected = np.sum(-0.5 * (2 * np.log(2 * np.pi) + logdet + quad_forms))
    assert_allclose(ll, expected)


def test_observed_loglik_univariate_standard():
    X = IncompleteMatrix([[0.0]], [[1]])
    params = GaussianParams([0.0], [[1.0]])
    assert_allclose(observed_loglik_gaussian(params, X), -0.5 * np.log(2 * np.pi))


def test_observed_loglik_marginal_vs_quadrature():
    X = IncompleteMatrix([[1.3], [0.0]], [[1], [0]])
    ll = observed_loglik_gaussian(BIVAR, X)

    def joint(x1):
        dev = np.array([1.3, x1])
        Sinv = np.linalg.inv(BIVAR.sigma)
        det = np.linalg.det(BIVAR.sigma)
        return np.exp(-0.5 * dev @ Sinv @ dev) / (2 * np.pi * np.sqrt(det))

    marg, _err = quad(joint, -12, 12)
    assert_allclose(ll, np.log(marg), atol=1e-8)


def test_observed_loglik_fully_missing_column_contributes_zero():
    X1 = IncompleteMatrix([[1.0, 0.0], [2.0, 0.0]], [[1, 0], [1, 0]])
    X2 = IncompleteMatrix([[1.0], [2.0]], [[1], [1]])
    assert_allclose(
        observed_loglik_gaussian(BIVAR, X1), observed_loglik_gaussian(BIVAR, X2)
    )


# -- Gaussian EM ------------------------------------------------------------


def test_em_complete_data_single_iteration():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((3, 40)) + np.array([[1.0], [2.0], [3.0]])
    X = IncompleteMatrix.from_complete(vals)
    fit = em_gaussian_fit(X, cfg=EmConfig(max_iter=1, tol=1e-30))
    assert_allclose(fit.params.mu, vals.mean(axis=1))
    dev = vals - vals.mean(axis=1, keepdims=True)
    assert_allclose(fit.params.sigma, dev @ dev.T / 40, atol=1e-12)


def test_em_univariate_mcar_closed_form():
    rng = np.random.default_rng(4)
    vals = 2.0 + 1.5 * rng.standard_normal((1, 500))
    X = _mcar(vals, 0.3, 5)
    fit = em_gaussian_fit(X, cfg=EmConfig(tol=1e-13, max_iter=500))
    obs = X.values[X.mask == 1]
    assert_allclose(fit.params.mu[0], obs.mean(), atol=1e-6)
    assert_allclose(fit.params.sigma[0, 0], obs.var(), atol=1e-6)


def _quasi_newton_mle(X, p):
    ntri = p * (p + 1) // 2

    def unpack(theta):
        mu = theta[:p]
        Lm = np.zeros((p, p))
        idx = p
        for i in range(p):
            for j in range(i + 1):
                Lm[i, j] = theta[idx]
                idx += 1
        d = np.exp(np.diag(Lm))
        Lm = np.tril(Lm, -1) + np.diag(d)
        return mu, Lm @ Lm.T

    def nll(theta):
        mu, S = unpack(theta)
        try:
            return -observed_loglik_gaussian(GaussianParams(mu, S), X)
        except (ValueError, np.linalg.LinAlgError):
            return 1e12

    res = minimize(
        nll,
        np.zeros(p + ntri),
        method="L-BFGS-B",
        options={"maxiter": 3000, "ftol": 1e-16, "gtol": 1e-12},
    )
    return unpack(res.x)


def test_em_matches_quasi_newton_oracle():
    rng = np.random.default_rng(6)
    p, n = 2, 800
    sigma = np.array([[1.5, -0.4], [-0.4, 0.7]])
    vals = np.array([0.3, -0.8])[:, None] + np.linalg.cholesky(sigma) @ rng.standard_normal((p, n))
    X = _mcar(vals, 0.3, 7)
    fit = em_gaussian_fit(X, cfg=EmConfig(tol=1e-13, max_iter=3000))
    mu_o, sigma_o = _quasi_newton_mle(X, p)
    assert np.abs(fit.params.mu - mu_o).max() < 1e-4
    assert np.abs(fit.params.sigma - sigma_o).max() < 1e-4


def test_em_loglik_monotone():
    rng = np.random.default_rng(8)
    vals = rng.standard_normal((3, 300))
    X = _mcar(vals, 0.35, 9)
    fit = em_gaussian_fit(X, cfg=EmConfig(tol=1e-12, max_iter=200))
    assert np.all(np.diff(fit.loglik_trace) >= -1e-10)


@pytest.mark.parametrize("ev", [EVariant.EXACT, EVariant.SEM, EVariant.MCEM, EVariant.SAEM])
def test_em_complete_mask_fixed_point_all_variants(ev):
    rng = np.random.default_rng(10)
    vals = rng.standard_normal((2, 200))
    X = IncompleteMatrix.from_complete(vals)
    fit = em_gaussian_fit(X, cfg=EmConfig(e_variant=ev, max_iter=5, tol=1e-30, seed=SeedSpec(1)))
    mu_mle = vals.mean(axis=1)
    dev = vals - mu_mle[:, None]
    assert_allclose(fit.params.mu, mu_mle, atol=1e-12)
    assert_allclose(fit.params.sigma, dev @ dev.T / 200, atol=1e-12)


def test_em_sem_runs_and_is_reproducible():
    rng = np.random.default_rng(11)
    X = _mcar(rng.standard_normal((2, 150)), 0.3, 12)
    cfg = EmConfig(e_variant=EVariant.SEM, max_iter=40, tol=1e-30, seed=SeedSpec(13))
    a = em_gaussian_fit(X, cfg=cfg)
    b = em_gaussian_fit(X, cfg=cfg)
    assert_allclose(a.params.mu, b.params.mu, rtol=0, atol=0)


def test_em_mcem_closer_than_sem_on_average():
    rng = np.random.default_rng(14)
    X = _mcar(rng.standard_normal((2, 200)), 0.3, 15)
    exact = em_gaussian_fit(X, cfg=EmConfig(tol=1e-12, max_iter=300))
    sem_err, mcem_err = [], []
    for s in range(8):
        sem = em_gaussian_fit(X, cfg=EmConfig(e_variant=EVariant.SEM, max_iter=40, tol=1e-30, seed=SeedSpec(s)))
        mcem = em_gaussian_fit(
            X, cfg=EmConfig(e_variant=EVariant.MCEM, mcem_draws=25, max_iter=40, tol=1e-30, seed=SeedSpec(s))
        )
        sem_err.append(np.linalg.norm(sem.params.mu - exact.params.mu))
        mcem_err.append(np.linalg.norm(mcem.params.mu - exact.params.mu))
    assert np.mean(mcem_err) < np.mean(sem_err)


def test_em_saem_variance_shrinks():
    rng = np.random.default_rng(16)
    X = _mcar(rng.standard_normal((2, 200)), 0.3, 17)
    cfg = EmConfig(e_variant=EVariant.SAEM, max_iter=120, tol=1e-30, saem_burn_in=20, seed=SeedSpec(18))
    fit = em_gaussian_fit(X, cfg=cfg)
    mu0 = fit.mu_trace[:, 0]
    post = mu0[21:]
    early, late = post[:50], post[-50:]
    assert late.var() < early.var()


@pytest.mark.parametrize(
    "mu, sigma, name",
    [([0.0], [[np.inf]], "sigma"), ([0.0], [[np.nan]], "sigma"), ([np.nan], [[1.0]], "mu"), ([np.inf], [[1.0]], "mu")],
)
def test_gaussian_params_reject_non_finite(mu, sigma, name, recwarn):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        GaussianParams(mu, sigma)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        StudentTParams(mu, sigma, 4.0)
    assert not recwarn.list  # rejected before any arithmetic on the bad entry


def test_em_rejects_underobserved_rows():
    X = IncompleteMatrix(np.ones((2, 3)), [[1, 0, 0], [1, 1, 1]])
    with pytest.raises(ValueError, match="observed at least twice"):
        em_gaussian_fit(X)


# -- Student-t EM ------------------------------------------------------------


def _student_data(seed, p=2, n=400, nu=3.0, rate=0.2):
    rng = np.random.default_rng(seed)
    mu = np.array([1.0, -0.5])[:p]
    sigma = np.array([[1.0, 0.3], [0.3, 0.8]])[:p, :p]
    tau = rng.gamma(nu / 2, 2 / nu, size=n)
    vals = mu[:, None] + (np.linalg.cholesky(sigma) @ rng.standard_normal((p, n))) / np.sqrt(tau)
    return _mcar(vals, rate, seed + 1), mu


def test_student_gaussian_limit():
    X, _mu = _student_data(21)
    big = em_student_fit(X, init=StudentTParams(np.zeros(2), np.eye(2), 1e6), cfg=EmConfig(tol=1e-12, max_iter=1000))
    gauss = em_gaussian_fit(X, cfg=EmConfig(tol=1e-12, max_iter=1000))
    assert np.abs(big.params.mu - gauss.params.mu).max() < 1e-3
    assert np.abs(big.params.sigma - gauss.params.sigma).max() < 1e-3


def test_student_texture_weight_at_center():
    # complete univariate point exactly at mu: delta = 0, weight (nu+1)/nu
    nu = 5.0
    params = StudentTParams([2.0], [[1.0]], nu)
    X = IncompleteMatrix([[2.0]], [[1]])
    from gapkit.em import _condition_all, _moments, _texture_weights

    cond = _condition_all(params.mu, params.sigma, X)
    Sw, S1, S2 = _moments(X, cond, _texture_weights(nu, cond.k, cond.delta))
    assert_allclose(Sw, (nu + 1) / nu)


def test_student_saem_draws_once_per_iteration():
    X, _ = _student_data(44, n=200)
    init = StudentTParams(np.zeros(2), np.eye(2), 4.0)
    fits = [
        em_student_fit(X, init=init, cfg=EmConfig(e_variant=EVariant.SAEM, mcem_draws=draws, max_iter=30,
                                                  tol=1e-30, seed=SeedSpec(5)))
        for draws in (1, 10)
    ]
    assert np.array_equal(fits[0].mu_trace, fits[1].mu_trace)
    assert np.array_equal(fits[0].loglik_trace, fits[1].loglik_trace)
    assert np.array_equal(fits[0].params.sigma, fits[1].params.sigma)


def test_student_sem_is_one_draw_mcem():
    X, _ = _student_data(42, n=200)
    init = StudentTParams(np.zeros(2), np.eye(2), 4.0)
    sem = em_student_fit(X, init=init, cfg=EmConfig(e_variant=EVariant.SEM, max_iter=10, tol=1e-30, seed=SeedSpec(3)))
    one = EmConfig(e_variant=EVariant.MCEM, mcem_draws=1, max_iter=10, tol=1e-30, seed=SeedSpec(3))
    mcem = em_student_fit(X, init=init, cfg=one)
    assert np.array_equal(sem.mu_trace, mcem.mu_trace)
    assert np.array_equal(sem.params.sigma, mcem.params.sigma)


def test_student_beats_gaussian_with_outlier():
    wins = 0
    for rep in range(15):
        rng = np.random.default_rng([30, rep])
        X, mu_true = _student_data(100 + rep)
        vals = X.values.copy()
        vals[:, 0] = mu_true + 40.0
        mask = X.mask.copy()
        mask[:, 0] = 1
        Xi = IncompleteMatrix(np.nan_to_num(vals, nan=0.0), mask)
        cfg = EmConfig(tol=1e-8, max_iter=200)
        ge = np.linalg.norm(em_gaussian_fit(Xi, cfg=cfg).params.mu - mu_true)
        se = np.linalg.norm(
            em_student_fit(Xi, init=StudentTParams(np.zeros(2), np.eye(2), 3.0), cfg=cfg).params.mu - mu_true
        )
        wins += se < ge
    assert wins >= 12


def test_student_nu_estimation_recovers_scale_of_tails():
    X, _ = _student_data(31, n=1500, nu=3.0, rate=0.1)
    fit = em_student_fit(X, cfg=EmConfig(tol=1e-9, max_iter=300), estimate_nu=True)
    assert fit.params.nu < 10.0  # heavy tails detected, far from Gaussian


@pytest.mark.parametrize("ev", [EVariant.SEM, EVariant.MCEM, EVariant.SAEM])
def test_student_stochastic_variants_track_exact(ev):
    X, _mu = _student_data(40, n=600, rate=0.15)
    exact = em_student_fit(
        X, init=StudentTParams(np.zeros(2), np.eye(2), 3.0), cfg=EmConfig(tol=1e-10, max_iter=300)
    )
    cfg = EmConfig(e_variant=ev, max_iter=80, tol=1e-30, mcem_draws=15, seed=SeedSpec(41))
    fit = em_student_fit(X, init=StudentTParams(np.zeros(2), np.eye(2), 3.0), cfg=cfg)
    assert np.abs(fit.params.mu - exact.params.mu).max() < 0.15
    assert np.abs(fit.params.sigma - exact.params.sigma).max() < 0.3


def test_student_loglik_matches_scipy():
    params = StudentTParams([0.5, -1.0], [[1.0, 0.2], [0.2, 2.0]], 4.0)
    rng = np.random.default_rng(32)
    vals = rng.standard_normal((2, 20))
    X = IncompleteMatrix.from_complete(vals)
    ll = observed_loglik_student(params, X)
    ref = multivariate_t.logpdf(vals.T, loc=params.mu, shape=params.sigma, df=4.0).sum()
    assert_allclose(ll, ref, atol=1e-9)


def test_student_t_fits_load_no_scipy():
    # the Student-t normaliser takes log Gamma from math.lgamma
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys\n"
        "import numpy as np\n"
        "from gapkit.core import IncompleteMatrix\n"
        "from gapkit.em import em_student_fit, observed_loglik_student\n"
        "from gapkit.timeseries import ar1t_fit_saem\n"
        "rng = np.random.default_rng(0)\n"
        "X = IncompleteMatrix(rng.standard_t(5.0, (3, 200)), (rng.random((3, 200)) > 0.3).astype(int))\n"
        "fit = em_student_fit(X, estimate_nu=True)\n"
        "observed_loglik_student(fit.params, X)\n"
        "y = np.cumsum(rng.standard_t(4.0, 300)) * 0.1\n"
        "y[50:60] = np.nan\n"
        "ar1t_fit_saem(y)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("cfg", [{"max_iter": 0}, {"tol": np.nan}, {"saem_burn_in": -1}])
def test_em_config_rejects_bad_stopping_rule(cfg):
    with pytest.raises(ValueError, match="max_iter|tol|saem_burn_in"):
        EmConfig(**cfg)


# -- units -------------------------------------------------------------------

_UNIT_FITS = {
    "exact": lambda X: em_gaussian_fit(X),
    "saem": lambda X: em_gaussian_fit(X, cfg=EmConfig(e_variant=EVariant.SAEM, max_iter=60)),
    "student_nu": lambda X: em_student_fit(X, estimate_nu=True),
    "factor2": lambda X: em_structured_fit(X, CovStructure(StructureKind.FACTOR_MODEL, r=2)),
}


@pytest.mark.parametrize("fit", sorted(_UNIT_FITS))
def test_em_fits_do_not_depend_on_the_units(fit):
    # the covariance floor is relative to the trace in any units, so c X with
    # c a power of two gives mu c and sigma c^2 in as many iterations
    rng = np.random.default_rng(50)
    vals = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 200)) + 0.3 * rng.standard_normal((6, 200))
    X = _mcar(vals, 0.25, 51)
    unit = _UNIT_FITS[fit](X)
    for e in [-500, -300, -40, -30, 30, 300, 500]:
        c = 2.0**e
        scaled = _UNIT_FITS[fit](IncompleteMatrix(c * vals, X.mask))
        assert scaled.n_iter == unit.n_iter, e
        assert_allclose(scaled.params.mu / c, unit.params.mu, rtol=0, atol=1e-12 * np.abs(unit.params.mu).max())
        assert_allclose(scaled.params.sigma / c / c, unit.params.sigma, rtol=0,
                        atol=1e-12 * np.abs(unit.params.sigma).max())
