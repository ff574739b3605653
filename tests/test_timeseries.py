import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from gapkit.core import SeedSpec
from gapkit.em import NU_GRID, EmConfig, _student_loglik
from gapkit.timeseries import (
    Ar1StudentParams,
    _gap_layout,
    _gibbs_sweep,
    _initial_fill,
    ar1t_fit_saem,
    ar1t_multiple_impute,
)


def gen_ar1_t(rng, n, mu, a, sigma, nu):
    x = np.zeros(n)
    cur = mu / (1 - a) if abs(a) < 1 else 0.0
    for t in range(n):
        cur = mu + a * cur + sigma * rng.standard_t(nu)
        x[t] = cur
    return x


def _ols(x):
    Z = np.column_stack([np.ones(len(x) - 1), x[:-1]])
    beta, *_ = np.linalg.lstsq(Z, x[1:], rcond=None)
    resid = x[1:] - Z @ beta
    return beta[0], beta[1], np.sqrt(resid @ resid / (len(x) - 1))


def test_params_validation():
    with pytest.raises(ValueError):
        Ar1StudentParams(0.0, 0.5, -1.0, 4.0)
    with pytest.raises(ValueError):
        Ar1StudentParams(0.0, 0.5, 1.0, 0.0)
    Ar1StudentParams(0.0, 1.2, 1.0, 4.0)  # an explosive a is a valid model
    with pytest.raises(ValueError, match=r"a = 1e\+300"):
        Ar1StudentParams(0.0, 1e300, 1.0, 4.0)  # a**2 overflows
    Ar1StudentParams(0.0, 1e150, 1.0, 4.0)


def test_gaussian_limit_matches_ols():
    rng = np.random.default_rng(1)
    x = gen_ar1_t(rng, 3000, 0.01, 0.9, 0.1, 1e7)
    mu_o, a_o, s_o = _ols(x)
    fit = ar1t_fit_saem(
        x,
        init=Ar1StudentParams(0.0, 0.5, 0.2, 1e6),
        cfg=EmConfig(max_iter=150, seed=SeedSpec(2)),
        estimate_nu=False,
    )
    assert abs(fit.params.mu - mu_o) < 1e-3
    assert abs(fit.params.a - a_o) < 1e-3
    assert abs(fit.params.sigma - s_o) < 1e-3


def test_zero_ar_matches_iid_student_fit():
    rng = np.random.default_rng(3)
    nu_t = 5.0
    x = 0.7 + 0.3 * rng.standard_t(nu_t, size=4000)
    fit = ar1t_fit_saem(x, cfg=EmConfig(max_iter=250, seed=SeedSpec(4)), estimate_nu=True)
    df, loc, scale = stats.t.fit(x[1:])
    level = fit.params.mu / (1 - fit.params.a)
    assert abs(fit.params.a) < 0.05
    assert abs(level - loc) < 0.03
    assert abs(fit.params.sigma - scale) < 0.03
    assert 0.5 * df < fit.params.nu < 2.0 * df


def test_block_gap_recovery_short():
    mu_t, a_t, s_t, nu_t = 0.01, 0.9, 0.1, 4.0
    ests = []
    for rep in range(6):
        rng = np.random.default_rng([5, rep])
        x = gen_ar1_t(rng, 3000, mu_t, a_t, s_t, nu_t)
        miss = np.zeros(3000, bool)
        while miss.mean() < 0.15:
            start = rng.integers(1, 2980)
            miss[start : start + rng.integers(5, 21)] = True
        miss[0] = miss[-1] = False
        y = x.copy()
        y[miss] = np.nan
        fit = ar1t_fit_saem(y, cfg=EmConfig(max_iter=200, seed=SeedSpec(6, rep)))
        ests.append([fit.params.mu, fit.params.a, fit.params.sigma, fit.params.nu])
    mean = np.mean(ests, axis=0)
    assert abs(mean[0] - mu_t) < 0.005
    assert abs(mean[1] - a_t) < 0.02
    assert abs(mean[2] - s_t) < 0.01
    assert 2.5 < mean[3] < 6.5


def test_saem_increments_shrink():
    rng = np.random.default_rng(7)
    x = gen_ar1_t(rng, 1000, 0.0, 0.8, 0.2, 4.0)
    y = x.copy()
    y[100:140] = np.nan
    fit = ar1t_fit_saem(y, cfg=EmConfig(max_iter=200, saem_burn_in=20, seed=SeedSpec(8)))
    theta = np.column_stack([fit.chains["mu"], fit.chains["a"], fit.chains["sigma"]])
    steps = np.linalg.norm(np.diff(theta, axis=0), axis=1)
    post = steps[20:]
    assert np.median(post[-50:]) < np.median(post[:50])


def test_fit_requires_two_points():
    with pytest.raises(ValueError):
        ar1t_fit_saem(np.array([1.0, np.nan, np.nan]))


# -- multiple imputation -----------------------------------------------------


def test_mi_reproducible_and_pins_observed():
    rng = np.random.default_rng(9)
    x = gen_ar1_t(rng, 200, 0.0, 0.7, 0.3, 6.0)
    y = x.copy()
    y[50:60] = np.nan
    y[150] = np.nan
    params = Ar1StudentParams(0.0, 0.7, 0.3, 6.0)
    a = ar1t_multiple_impute(y, params, 3, SeedSpec(10), sweeps=30)
    b = ar1t_multiple_impute(y, params, 3, SeedSpec(10), sweeps=30)
    assert np.array_equal(a, b)
    obs = np.isfinite(y)
    for d in a:
        assert np.array_equal(d[obs], y[obs])
    assert not np.array_equal(a[0], a[1])


@pytest.mark.parametrize("mu, a, sigma", [(1e308, 1.0, 1.0), (0.0, 1e150, 1e-300)])
def test_mi_rejects_non_finite_draws(mu, a, sigma):
    y = np.array([1.0, np.nan, 2.0, np.nan, np.nan, 3.0, 1.5])
    message = re.escape(f"not finite at mu={mu!r}, a={a!r}, sigma={sigma!r}, nu=5.0")
    with pytest.raises(FloatingPointError, match=message):
        ar1t_multiple_impute(y, Ar1StudentParams(mu, a, sigma, 5.0), 2, SeedSpec(0))


def test_mi_brownian_bridge_midpoint():
    # random walk (a=1, mu=0) in the Gaussian limit: the conditional mean of
    # a single interior gap is the average of its neighbors
    rng = np.random.default_rng(11)
    x = gen_ar1_t(rng, 60, 0.0, 1.0, 0.5, 1e7)
    y = x.copy()
    gap = 30
    y[gap] = np.nan
    params = Ar1StudentParams(0.0, 1.0, 0.5, 1e7)
    draws = ar1t_multiple_impute(y, params, 500, SeedSpec(12), sweeps=40)
    emp = draws[:, gap]
    target = 0.5 * (x[gap - 1] + x[gap + 1])
    se = emp.std(ddof=1) / np.sqrt(len(emp))
    assert abs(emp.mean() - target) < 3 * se


def test_mi_single_gap_matches_gaussian_smoother():
    rng = np.random.default_rng(13)
    mu_t, a_t, s_t = 0.05, 0.8, 0.2
    x = gen_ar1_t(rng, 80, mu_t, a_t, s_t, 1e7)
    y = x.copy()
    gap = 40
    y[gap] = np.nan
    params = Ar1StudentParams(mu_t, a_t, s_t, 1e7)
    draws = ar1t_multiple_impute(y, params, 600, SeedSpec(14), sweeps=40)
    emp = draws[:, gap]
    exact = (a_t * (x[gap - 1] + x[gap + 1]) + mu_t * (1 - a_t)) / (1 + a_t**2)
    se = emp.std(ddof=1) / np.sqrt(len(emp))
    assert abs(emp.mean() - exact) < 3 * se
    assert_allclose(emp.var(ddof=1), s_t**2 / (1 + a_t**2), rtol=0.25)


def test_mi_tail_gap_forecast_variance_grows():
    rng = np.random.default_rng(15)
    x = gen_ar1_t(rng, 120, 0.0, 0.9, 0.2, 8.0)
    y = x.copy()
    y[110:] = np.nan  # tail gap: free forecasts
    params = Ar1StudentParams(0.0, 0.9, 0.2, 8.0)
    draws = ar1t_multiple_impute(y, params, 800, SeedSpec(16), sweeps=5)
    variances = draws[:, 110:].var(axis=0, ddof=1)
    # forecast variance recursion: v_{h+1} = a^2 v_h + sigma^2 nu/(nu-2)
    s2 = 0.2**2 * 8.0 / 6.0
    theo = np.array([s2 * sum(0.9 ** (2 * k) for k in range(h + 1)) for h in range(10)])
    assert_allclose(variances, theo, rtol=0.25)
    assert variances[-1] > variances[0]
    # increasing up to sampling noise: a fitted slope over horizon is positive
    slope = np.polyfit(np.arange(10), variances, 1)[0]
    assert slope > 0


def test_mi_requires_draws():
    with pytest.raises(ValueError):
        ar1t_multiple_impute(np.array([1.0, np.nan, 2.0]), Ar1StudentParams(0, 0.5, 1, 5), 0)


def test_fit_rejects_no_iterations():
    y = gen_ar1_t(np.random.default_rng(17), 50, 0.0, 0.5, 1.0, 5.0)
    with pytest.raises(ValueError, match="max_iter"):
        ar1t_fit_saem(y, cfg=EmConfig(max_iter=0))


# -- red-black samplers on block gaps ------------------------------------------


def _gap_smoother(x, gap, mu, a, sigma):
    """Exact Gaussian-AR(1) mean and covariance of a contiguous gap given its
    two observed neighbours: the gap precision is tridiagonal, with
    (1 + a^2)/sigma^2 on the diagonal and -a/sigma^2 beside it."""
    k = len(gap)
    Q = ((1 + a**2) * np.eye(k) - a * np.eye(k, k=1) - a * np.eye(k, k=-1)) / sigma**2
    h = np.full(k, mu * (1 - a))
    h[0] += a * x[gap[0] - 1]
    h[-1] += a * x[gap[-1] + 1]
    cov = np.linalg.inv(Q)
    return cov @ h / sigma**2, cov


def _assert_matches_smoother(draws, mean, cov, se):
    """Means within 3 standard errors, variances to 25%, and the correlation
    of neighbouring points to 0.1 (a sampler that moves neighbours together
    can keep every marginal right and still get this wrong)."""
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 3 * se)
    assert_allclose(draws.var(axis=0, ddof=1), np.diag(cov), rtol=0.25)

    def neighbour_corr(c):
        return np.diagonal(c, 1) / np.sqrt(np.diag(c)[:-1] * np.diag(c)[1:])

    assert_allclose(neighbour_corr(np.cov(draws.T)), neighbour_corr(cov), atol=0.1)


def _block_gap_series(seed, mu, a, sigma, gap):
    x = gen_ar1_t(np.random.default_rng(seed), 40, mu, a, sigma, 1e7)
    y = x.copy()
    y[gap] = np.nan
    return x, y


@pytest.mark.parametrize("k", [3, 4, 5])
def test_mh_refresh_block_gap_matches_gaussian_smoother(k):
    mu, a, sigma, nu = 0.05, 0.8, 0.2, 1e7
    gap = np.arange(17, 17 + k)
    x, y = _block_gap_series(19, mu, a, sigma, gap)
    layout = _gap_layout(np.isfinite(y))
    chain = _initial_fill(y, np.isfinite(y))
    rng = np.random.default_rng(20)
    sweeps, batches = 12_000, 40
    draws = np.empty((sweeps, k))
    for _ in range(200):
        _gibbs_sweep(chain, layout, mu, a, sigma, nu, rng)
    for s in range(sweeps):
        _gibbs_sweep(chain, layout, mu, a, sigma, nu, rng)
        draws[s] = chain[gap]
    assert np.array_equal(chain[np.isfinite(y)], y[np.isfinite(y)])
    # successive sweeps are correlated: standard errors from batch means
    batch_means = draws.reshape(batches, -1, k).mean(axis=1)
    se = batch_means.std(axis=0, ddof=1) / np.sqrt(batches)
    _assert_matches_smoother(draws, *_gap_smoother(x, gap, mu, a, sigma), se)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_mi_block_gap_matches_gaussian_smoother(k):
    mu, a, sigma = 0.05, 0.8, 0.2
    gap = np.arange(17, 17 + k)
    x, y = _block_gap_series(21, mu, a, sigma, gap)
    draws = ar1t_multiple_impute(y, Ar1StudentParams(mu, a, sigma, 1e7), 600, SeedSpec(22), sweeps=30)
    emp = draws[:, gap]
    se = emp.std(axis=0, ddof=1) / np.sqrt(len(emp))
    _assert_matches_smoother(emp, *_gap_smoother(x, gap, mu, a, sigma), se)


def test_nu_grid_matches_scipy_t_logpdf():
    e = np.random.default_rng(24).standard_normal(500) * 0.4
    ref = np.array([stats.t.logpdf(e, v, scale=0.3).sum() for v in NU_GRID])
    ll = _student_loglik(np.ones(len(e), dtype=int), (e / 0.3) ** 2, len(e) * np.log(0.3**2), NU_GRID)
    assert_allclose(ll, ref, rtol=1e-12)


def test_saem_with_boundary_gaps():
    # leading and trailing runs are drawn by the sweep's one-sided recursions
    y = gen_ar1_t(np.random.default_rng(27), 200, 0.0, 0.8, 0.2, 4.0)
    y[:3] = y[-4:] = np.nan
    layout = _gap_layout(np.isfinite(y))
    assert layout[:2] == (3, 196) and layout[2] == []
    fit = ar1t_fit_saem(y, cfg=EmConfig(max_iter=10))
    assert np.all(np.isfinite([fit.params.mu, fit.params.a, fit.params.sigma, fit.params.nu]))


def test_mi_requires_sweeps():
    # sweeps=0 used to return K copies of the linear interpolation as draws
    y = np.array([0.0, 1.0, np.nan, np.nan, 2.0, 1.5])
    with pytest.raises(ValueError, match="sweeps"):
        ar1t_multiple_impute(y, Ar1StudentParams(0, 0.5, 1, 5), 3, sweeps=0)


@pytest.mark.parametrize("field", ["mu", "a", "sigma", "nu"])
def test_params_reject_non_finite(field):
    values = {"mu": 0.0, "a": 0.5, "sigma": 1.0, "nu": 5.0, field: np.nan}
    with pytest.raises(ValueError, match="finite"):
        Ar1StudentParams(**values)
