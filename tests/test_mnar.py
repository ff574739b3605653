import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import ks_2samp

from gapkit.core import IncompleteMatrix, SeedSpec
from gapkit.em import EmConfig, em_gaussian_fit
from gapkit.mechanisms import MechanismKind, MechanismSpec, _sigmoid, gen_mask
from gapkit.mnar import (
    MAX_BATCH,
    REJECTION_BUDGET,
    SelectionParams,
    _logistic_newton,
    _SamplerState,
    _sample_tilted_batch,
    sem_selection_fit,
)


def _self_masked_fixture(rep, phi1, n=2000, base=99):
    rng = np.random.default_rng([base, rep])
    x = rng.standard_normal((1, n))
    spec = MechanismSpec(MechanismKind.MNAR_SELF_MASK, phi0=0.0, phi1=phi1)
    mask = gen_mask((1, n), spec, X=x, seed=SeedSpec(base, 1000 + rep))
    return IncompleteMatrix(x, mask)


# -- tilted sampler -----------------------------------------------------------


def test_sampler_neutral_mechanism_is_plain_gaussian():
    rng = SeedSpec(0).rng()
    draws = _sample_tilted_batch(0.5, 2.0, (0.0, 0.0), 10_000, rng)
    ref = 0.5 + 2.0 * SeedSpec(1).rng().standard_normal(10_000)
    assert ks_2samp(draws, ref).pvalue > 0.01


def test_sampler_tilts_below_mean_for_positive_slope():
    # high values observed => conditionally-missing draws sit below mu
    rng = SeedSpec(2).rng()
    draws = _sample_tilted_batch(0.0, 1.0, (0.0, 2.0), 20_000, rng)
    z = draws.mean() / (draws.std(ddof=1) / np.sqrt(len(draws)))
    assert z < -5.0


def test_sampler_tilted_oracle_via_grid():
    # compare against direct numerical moments of N(mu, s^2) * (1 - h)
    mu, s, phi = 0.3, 1.2, (0.4, 1.7)
    xs = np.linspace(mu - 8 * s, mu + 8 * s, 20_001)
    dens = np.exp(-0.5 * ((xs - mu) / s) ** 2) * (1 - 1 / (1 + np.exp(-(phi[1] * xs + phi[0]))))
    dens /= np.trapezoid(dens, xs)
    target_mean = np.trapezoid(xs * dens, xs)
    rng = SeedSpec(3).rng()
    draws = _sample_tilted_batch(mu, s, phi, 40_000, rng)
    se = draws.std(ddof=1) / np.sqrt(len(draws))
    assert abs(draws.mean() - target_mean) < 4 * se


def _tilted_mean(mu, s, phi):
    xs = np.linspace(mu - 8 * s, mu + 8 * s, 20_001)
    dens = np.exp(-0.5 * ((xs - mu) / s) ** 2) * (1 - 1 / (1 + np.exp(-(phi[1] * xs + phi[0]))))
    return np.trapezoid(xs * dens, xs) / np.trapezoid(dens, xs)


def test_batched_sampler_rows_match_grid_oracle():
    # two segments with their own (mu, sigma, need), drawn in one batch
    mu, s, need, phi = np.array([0.3, -2.0]), np.array([1.2, 0.5]), np.array([30_000, 20_000]), (0.4, 1.7)
    state = _SamplerState(np.ones(2))
    draws = _sample_tilted_batch(mu, s, phi, need, SeedSpec(12).rng(), state)
    assert len(draws) == need.sum()
    for i, seg in enumerate(np.split(draws, [need[0]])):
        se = seg.std(ddof=1) / np.sqrt(len(seg))
        assert abs(seg.mean() - _tilted_mean(mu[i], s[i], phi)) < 4 * se
    assert state.fallbacks == 0
    assert 0 < state.rate.min() and state.rate.max() < 1


def test_sampler_low_acceptance_reaches_grid_fallback():
    # acceptance about 5e-6 at mu=3, phi=(8, 4): most entries exhaust the budget,
    # and the budget of 2e6 proposals takes several rounds capped at MAX_BATCH
    state = _SamplerState(np.ones(1))
    draws = _sample_tilted_batch(3.0, 1.0, (8.0, 4.0), 200, SeedSpec(13).rng(), state)
    assert np.isfinite(draws).all() and np.abs(draws - 3.0).max() <= 6.0
    assert 170 <= state.fallbacks <= 200
    assert state.rounds > 200 * REJECTION_BUDGET // MAX_BATCH
    X = IncompleteMatrix(np.array([[3.0, 2.5, np.nan, 3.5, np.nan, np.nan]]), np.array([[1, 1, 0, 1, 0, 0]]))
    res = sem_selection_fit(
        X, SelectionParams([3.0], [1.0]), init_phi=(8.0, 4.0), iters=3, burn_in=1,
        seed=SeedSpec(14), estimate_phi=False,
    )
    assert res.grid_fallbacks > 0
    assert res.rejection_rounds > 3
    assert np.isfinite(res.mu_chain).all()


def test_sampler_sigma_collapse():
    val = _sample_tilted_batch(2.0, 1e-8, (0.0, 1.0), 1, SeedSpec(4).rng())[0]
    assert abs(val - 2.0) < 1e-6


# -- SEM fitter ---------------------------------------------------------------


def test_sem_mcar_reduction_paired():
    diffs = []
    for rep in range(12):
        X = _self_masked_fixture(rep, phi1=0.0)
        res = sem_selection_fit(
            X, iters=150, burn_in=50, seed=SeedSpec(7, rep), estimate_phi=False
        )
        gfit = em_gaussian_fit(X, cfg=EmConfig(tol=1e-10, max_iter=200))
        diffs.append(res.theta.mu[0] - gfit.params.mu[0])
    diffs = np.array(diffs)
    se = diffs.std(ddof=1) / np.sqrt(len(diffs))
    assert abs(diffs.mean()) < 2 * se + 1e-3


@settings(max_examples=30, deadline=None)
@given(e=st.integers(-300, 300))
def test_sem_fit_with_phi_held_does_not_depend_on_the_units(e):
    # the variance floors are the smallest normal float, so c X with c = 2^e
    # gives mu c and sigma c from the same draws and sampler rounds
    rng = np.random.default_rng(60)
    vals = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 200)) + 0.3 * rng.standard_normal((6, 200))
    mask = (rng.random((6, 200)) > 0.25).astype(int)
    c = 2.0**e
    unit, scaled = (
        sem_selection_fit(IncompleteMatrix(k * vals, mask), init_phi=(0.0, 0.0), iters=40, burn_in=10,
                          seed=SeedSpec(61), estimate_phi=False)
        for k in (1.0, c)
    )
    assert scaled.rejection_rounds == unit.rejection_rounds
    for got, want in ((scaled.theta.mu / c, unit.theta.mu), (scaled.theta.sigma / c, unit.theta.sigma)):
        assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_sem_bias_correction_small():
    # smaller version of the acceptance run: 8 replicates
    sems, igns = [], []
    for rep in range(8):
        X = _self_masked_fixture(rep, phi1=2.0, n=5000, base=77)
        res = sem_selection_fit(X, init_phi=(0.0, 1.0), iters=700, burn_in=350, seed=SeedSpec(8, rep))
        gfit = em_gaussian_fit(X, cfg=EmConfig(tol=1e-10, max_iter=200))
        sems.append(abs(res.theta.mu[0]))
        igns.append(abs(gfit.params.mu[0]))
    assert np.mean(sems) < 0.5 * np.mean(igns)


def test_sem_no_missing_reports_separation():
    vals = SeedSpec(9).rng().standard_normal((2, 100))
    X = IncompleteMatrix.from_complete(vals)
    res = sem_selection_fit(X, iters=20, burn_in=5, seed=SeedSpec(10))
    assert res.separation_warnings == 20
    assert np.allclose(res.theta.mu, vals.mean(axis=1))
    assert np.allclose(res.phi, [0.0, 0.0])  # update skipped, init kept


def test_sem_chains_bounded_and_reproducible():
    X = _self_masked_fixture(0, phi1=2.0, n=1000, base=55)
    a = sem_selection_fit(X, init_phi=(0.0, 1.0), iters=100, burn_in=20, seed=SeedSpec(11))
    b = sem_selection_fit(X, init_phi=(0.0, 1.0), iters=100, burn_in=20, seed=SeedSpec(11))
    assert np.array_equal(a.mu_chain, b.mu_chain)
    assert np.array_equal(a.phi_chain, b.phi_chain)
    for chain in (a.mu_chain, a.sigma_chain, a.phi_chain):
        assert np.abs(chain).max() < 1e6


@pytest.mark.parametrize("rows", [1, 3])
def test_sem_rejects_init_theta_of_wrong_length(rows):
    X = IncompleteMatrix(np.arange(12.0).reshape(2, 6), np.array([[1, 1, 0, 1, 0, 1], [1, 0, 1, 1, 1, 0]]))
    with pytest.raises(ValueError, match=f"init_theta has {rows} rows, X has 2"):
        sem_selection_fit(X, SelectionParams(np.zeros(rows), np.ones(rows)), iters=5, burn_in=1)


def test_sem_requires_iters_above_burnin():
    X = _self_masked_fixture(0, phi1=0.0)
    with pytest.raises(ValueError):
        sem_selection_fit(X, iters=10, burn_in=10)


@pytest.mark.parametrize("iters", [3, 0])
def test_sem_rejects_negative_burnin(iters):
    # a negative burn_in would average the last draws only, or an empty chain
    X = _self_masked_fixture(0, phi1=0.0)
    with pytest.raises(ValueError, match="burn_in must be an integer >= 0, got -1"):
        sem_selection_fit(X, iters=iters, burn_in=-1)


# -- logistic Newton ----------------------------------------------------------


def _matrix_newton(x, y, phi0, phi1, max_iter=50, tol=1e-10):
    # reference: the Newton step by a 2 x 2 linear solve on the full design
    beta = np.array([phi0, phi1], dtype=float)
    Z = np.column_stack([np.ones_like(x), x])
    for _ in range(max_iter):
        p = _sigmoid(Z @ beta)
        grad = Z.T @ (y - p)
        w = np.maximum(p * (1.0 - p), 1e-12)
        try:
            step = np.linalg.solve((Z * w[:, None]).T @ Z, grad)
        except np.linalg.LinAlgError:
            return None
        beta = beta + step
        if not np.all(np.isfinite(beta)) or np.abs(beta).max() > 1e6:
            return None
        if np.abs(step).max() < tol:
            return beta
    return None


@pytest.mark.parametrize("seed", range(6))
def test_newton_closed_form_matches_matrix_solve(seed):
    rng = np.random.default_rng([21, seed])
    n = int(rng.integers(50, 3000))
    x = rng.normal(rng.normal(), rng.uniform(0.2, 3.0), n)
    b = rng.normal(0.0, 1.5, 2)
    y = (rng.random(n) < 1 / (1 + np.exp(-(b[1] * x + b[0])))).astype(float)
    for start in [(0.0, 0.0), tuple(b), tuple(b + rng.normal(0.0, 0.5, 2))]:
        got, ref = _logistic_newton(x, y, *start), _matrix_newton(x, y, *start)
        assert got is not None and ref is not None
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("y_of_x", [lambda x: x > 0, lambda x: np.zeros_like(x), lambda x: x > 10])
def test_newton_separable_fails_alike(y_of_x):
    x = np.linspace(-1.0, 1.0, 200)
    y = y_of_x(x).astype(float)
    got, ref = _logistic_newton(x, y, 0.0, 1.0), _matrix_newton(x, y, 0.0, 1.0)
    assert (got is None) == (ref is None)


def test_newton_unconverged_on_separable_data_is_a_failure():
    # the slope climbs (about 150 after 10 steps, 2,000 after 20) and stalls
    # as the weights hit their floor, far below the 1e6 guard
    x = np.linspace(-1.0, 1.0, 200)
    y = (x > 0).astype(float)
    assert _logistic_newton(x, y, 0.0, 1.0) is None
    assert _logistic_newton(x, y, 0.0, 1.0, max_iter=10) is None


# -- SEM fitter: sampler state and several rows --------------------------------


def test_sem_interleaved_fits_equal_solo_fits():
    # the sampler's running rate lives in each fit; threads must not share it
    jobs = [(_self_masked_fixture(k, phi1=2.0, n=600, base=66), SeedSpec(15, k)) for k in range(4)]
    solo = [sem_selection_fit(X, init_phi=(0.0, 1.0), iters=40, burn_in=10, seed=s) for X, s in jobs]
    out = [None] * len(jobs)

    def run(k):
        X, s = jobs[k]
        out[k] = sem_selection_fit(X, init_phi=(0.0, 1.0), iters=40, burn_in=10, seed=s)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for a, b in zip(solo, out):
        for field in ("mu_chain", "sigma_chain", "phi_chain"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert (a.rejection_rounds, a.grid_fallbacks) == (b.rejection_rounds, b.grid_fallbacks)


def test_sem_three_rows_with_different_means():
    rng = np.random.default_rng(16)
    mu, sd, n = np.array([-2.0, 0.0, 5.0]), np.array([0.5, 1.0, 2.0]), 1500
    x = mu[:, None] + sd[:, None] * rng.standard_normal((3, n))
    spec = MechanismSpec(MechanismKind.MNAR_SELF_MASK, phi0=0.0, phi1=1.0)
    X = IncompleteMatrix(x, gen_mask((3, n), spec, X=x, seed=SeedSpec(16, 1)))
    res = sem_selection_fit(X, init_phi=(0.0, 1.0), iters=120, burn_in=40, seed=SeedSpec(16, 2))
    for chain in (res.mu_chain, res.sigma_chain, res.phi_chain):
        assert np.isfinite(chain).all()
    assert np.argsort(res.theta.mu).tolist() == [0, 1, 2]
    assert 120 <= res.rejection_rounds <= 240


@pytest.mark.parametrize(
    "mu, sigma, name", [([0.0], [np.inf], "sigma"), ([0.0], [np.nan], "sigma"), ([np.nan], [1.0], "mu")]
)
def test_selection_params_reject_non_finite(mu, sigma, name, recwarn):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SelectionParams(mu, sigma)
    assert not recwarn.list
