import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gapkit.core import IncompleteMatrix, SeedSpec
from gapkit import em
from gapkit.em import GaussianParams, em_gaussian_fit
from gapkit.imputation import (
    ImputerKind,
    ImputerSpec,
    _knn_distance_matrix,
    impute_conditional_gaussian,
    impute_iterative,
    impute_knn,
    impute_mean,
    multiple_impute,
)
from gapkit.mechanisms import MechanismKind, MechanismSpec, gen_mask


def _mcar(values, rate, seed):
    mask = gen_mask(values.shape, MechanismSpec(MechanismKind.MCAR, rate=rate), seed=SeedSpec(seed))
    return IncompleteMatrix(values, mask)


# -- mean ---------------------------------------------------------------------


def test_mean_identity_on_complete():
    vals = np.arange(6.0).reshape(2, 3)
    X = IncompleteMatrix.from_complete(vals)
    assert_allclose(impute_mean(X), vals)


def test_mean_two_values():
    X = IncompleteMatrix([[1.0, 0.0, 3.0]], [[1, 0, 1]])
    assert_allclose(impute_mean(X), [[1.0, 2.0, 3.0]])


def test_mean_clt_oracle():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((100, 100))
    X = _mcar(vals, 0.3, 1)
    out = impute_mean(X)
    for i in range(100):
        holes = X.mask[i] == 0
        if not holes.any():
            continue
        n_obs = (X.mask[i] == 1).sum()
        imputed = np.unique(out[i, holes])
        assert len(imputed) == 1
        assert abs(imputed[0]) < 3.0 / np.sqrt(n_obs)


def test_mean_fully_missing_row():
    X = IncompleteMatrix(np.zeros((2, 3)), [[0, 0, 0], [1, 1, 1]])
    with pytest.raises(ValueError, match="fully missing"):
        impute_mean(X)


def test_mean_preserves_row_means_exactly():
    rng = np.random.default_rng(2)
    X = _mcar(rng.standard_normal((10, 40)), 0.25, 3)
    out = impute_mean(X)
    obs_means = np.array(
        [X.values[i, X.mask[i] == 1].mean() for i in range(10)]
    )
    assert_allclose(out.mean(axis=1), obs_means, rtol=0, atol=1e-15)


# -- knn ------------------------------------------------------------------


def _knn_distance_ref(X, j, l):
    """sqrt(p / |S| * sum_{i in S} (X[i,j] - X[i,l])^2) over the rows S
    observed in both columns, one pair at a time; +inf when S is empty."""
    both = (X.mask[:, j] == 1) & (X.mask[:, l] == 1)
    if not both.any():
        return np.inf
    diff = X.values[both, j] - X.values[both, l]
    return float(np.sqrt(X.p / both.sum() * np.sum(diff**2)))


def test_knn_distance_matrix_hand_values():
    vals = np.array([[1.0, 1.0], [2.0, 0.0], [0.0, 4.0]])
    mask = np.array([[1, 1], [1, 1], [0, 1]])
    D = _knn_distance_matrix(IncompleteMatrix(vals, mask))
    assert_allclose([D[0, 1], D[1, 0]], np.sqrt(6.0))
    disjoint = IncompleteMatrix(np.ones((2, 2)), np.array([[1, 0], [0, 1]]))
    D = _knn_distance_matrix(disjoint)
    assert D[0, 1] == np.inf and D[1, 0] == np.inf


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 8), st.integers(2, 11), st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
def test_knn_distance_matrix_matches_per_pair_reference(p, n, log_scale, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    X = IncompleteMatrix(scale * rng.standard_normal((p, n)), (rng.random((p, n)) < 0.6).astype(np.int8))
    D = _knn_distance_matrix(X)
    off = ~np.eye(n, dtype=bool)
    ref = np.array([[_knn_distance_ref(X, j, l) for l in range(n)] for j in range(n)])
    assert_allclose(D[off], ref[off], rtol=1e-8, atol=1e-11 * scale)
    assert np.array_equal(D, D.T)


def test_knn_single_donor_copies():
    vals = np.array([[1.0, 5.0], [2.0, 2.0]])
    mask = np.array([[0, 1], [1, 1]])
    X = IncompleteMatrix(vals, mask)
    out = impute_knn(X, k=1)
    assert out[0, 0] == 5.0


def test_knn_duplicate_column_twin():
    rng = np.random.default_rng(7)
    base = rng.standard_normal(6)
    vals = np.column_stack([base, base, rng.standard_normal(6) + 10])
    mask = np.ones((6, 3), dtype=int)
    mask[2, 0] = 0
    X = IncompleteMatrix(vals, mask)
    out = impute_knn(X, k=1)
    assert_allclose(out[2, 0], base[2])


def test_knn_all_donors_equals_restricted_row_mean():
    rng = np.random.default_rng(8)
    X = _mcar(rng.standard_normal((6, 12)), 0.25, 9)
    out = impute_knn(X, k=X.n - 1)
    for i, j in zip(*np.nonzero(X.mask == 0)):
        donors = [
            l
            for l in range(X.n)
            if l != j
            and X.mask[i, l] == 1
            and ((X.mask[:, j] == 1) & (X.mask[:, l] == 1)).any()
        ]
        assert_allclose(out[i, j], np.mean([X.values[i, l] for l in donors]))


def test_knn_no_donor_errors():
    mask = np.array([[0, 0], [1, 0], [0, 1]])
    X = IncompleteMatrix(np.ones((3, 2)), mask)
    with pytest.raises(ValueError, match="donor"):
        impute_knn(X, k=2)


# -- conditional Gaussian -------------------------------------------------


def test_condgauss_diagonal_independence():
    params = GaussianParams([1.0, -2.0], np.diag([1.0, 4.0]))
    X = IncompleteMatrix([[5.0], [0.0]], [[1], [0]])
    out = impute_conditional_gaussian(X, params)
    assert_allclose(out[1, 0], -2.0)


def test_condgauss_bivariate_mode():
    params = GaussianParams([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
    X = IncompleteMatrix([[2.0], [0.0]], [[1], [0]])
    out = impute_conditional_gaussian(X, params)
    assert_allclose(out[1, 0], 1.0)


def test_condgauss_noise_variance():
    params = GaussianParams([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
    n = 100_000
    vals = np.vstack([np.full(n, 2.0), np.zeros(n)])
    mask = np.vstack([np.ones(n, dtype=int), np.zeros(n, dtype=int)])
    X = IncompleteMatrix(vals, mask)
    out = impute_conditional_gaussian(X, params, add_noise=True, seed=SeedSpec(10))
    var = out[1].var()
    assert abs(var - 0.75) / 0.75 < 0.02
    assert abs(out[1].mean() - 1.0) < 3 * np.sqrt(0.75 / n)


def test_condgauss_keeps_observed():
    rng = np.random.default_rng(11)
    X = _mcar(rng.standard_normal((3, 50)), 0.3, 12)
    params = GaussianParams(np.zeros(3), np.eye(3))
    out = impute_conditional_gaussian(X, params, add_noise=True, seed=SeedSpec(13))
    obs = X.mask == 1
    assert np.array_equal(out[obs], X.values[obs])


# -- iterative -------------------------------------------------------------


def test_iterative_no_missing_zero_sweeps():
    vals = np.arange(12.0).reshape(3, 4)
    X = IncompleteMatrix.from_complete(vals)
    res = impute_iterative(X)
    assert res.sweeps == 0
    assert_allclose(res.X, vals)


def test_iterative_recovers_linear_relation():
    rng = np.random.default_rng(14)
    row1 = rng.standard_normal(60)
    vals = np.vstack([row1, 2.0 * row1])
    mask = np.ones((2, 60), dtype=int)
    mask[1, ::5] = 0
    X = IncompleteMatrix(vals, mask)
    spec = ImputerSpec(ImputerKind.ITERATIVE, ridge_penalty=1e-10, tol=1e-10, max_sweeps=100)
    res = impute_iterative(X, spec)
    assert res.converged
    assert_allclose(res.X[1], 2.0 * row1, atol=1e-6)


@pytest.mark.parametrize("tol", [np.inf, np.nan])
def test_iterative_spec_rejects_non_finite_tol(tol):
    # an infinite tol would stop before the first sweep and return the mean imputation
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        ImputerSpec(ImputerKind.ITERATIVE, tol=tol)


def test_iterative_convergence_flag_matches_change():
    rng = np.random.default_rng(17)
    X = _mcar(rng.standard_normal((4, 40)), 0.2, 18)
    spec = ImputerSpec(ImputerKind.ITERATIVE, max_sweeps=2, tol=1e-14)
    res = impute_iterative(X, spec)
    assert res.converged == (len(res.changes) > 0 and res.changes[-1] < spec.tol)
    spec2 = ImputerSpec(ImputerKind.ITERATIVE, max_sweeps=200, tol=1e-8)
    res2 = impute_iterative(X, spec2)
    assert res2.converged and res2.changes[-1] < 1e-8


@pytest.mark.parametrize("sweeps", [0, -3, 2.0, True])
def test_iterative_spec_rejects_max_sweeps_below_one(sweeps):
    with pytest.raises(ValueError, match="max_sweeps must be an integer >= 1"):
        ImputerSpec(ImputerKind.ITERATIVE, max_sweeps=sweeps)


def test_iterative_keeps_observed():
    rng = np.random.default_rng(19)
    X = _mcar(rng.standard_normal((5, 40)), 0.25, 20)
    res = impute_iterative(X)
    obs = X.mask == 1
    assert np.array_equal(res.X[obs], X.values[obs])


# -- multiple imputation ----------------------------------------------------


def _bivariate_fixture(n=60, seed=21):
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky([[1.0, 0.5], [0.5, 1.0]])
    vals = L @ rng.standard_normal((2, n))
    mask = np.ones((2, n), dtype=int)
    mask[1, ::3] = 0
    return IncompleteMatrix(vals, mask)


def test_multiple_impute_requires_stochastic():
    X = _bivariate_fixture()
    with pytest.raises(ValueError, match="stochasticity"):
        multiple_impute(X, ImputerSpec(ImputerKind.MEAN), 3)


def test_multiple_impute_reproducible():
    X = _bivariate_fixture()
    spec = ImputerSpec(
        ImputerKind.CONDITIONAL_GAUSSIAN,
        add_noise=True,
        params=GaussianParams(np.zeros(2), [[1.0, 0.5], [0.5, 1.0]]),
    )
    a = multiple_impute(X, spec, 2, SeedSpec(5))
    b = multiple_impute(X, spec, 2, SeedSpec(5))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], a[1])


def test_multiple_impute_fits_condgauss_model_once(monkeypatch):
    X = _bivariate_fixture()
    fitted = em_gaussian_fit(X).params
    calls = []
    fit = em._fit_gaussian
    monkeypatch.setattr(em, "_fit_gaussian", lambda *args: calls.append(1) or fit(*args))
    spec = ImputerSpec(ImputerKind.CONDITIONAL_GAUSSIAN, add_noise=True)
    draws = multiple_impute(X, spec, 5, SeedSpec(8))
    assert len(calls) == 1
    fixed = multiple_impute(X, ImputerSpec(ImputerKind.CONDITIONAL_GAUSSIAN, add_noise=True, params=fitted), 5,
                            SeedSpec(8))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(draws, fixed))


def test_multiple_impute_k1():
    X = _bivariate_fixture()
    spec = ImputerSpec(
        ImputerKind.CONDITIONAL_GAUSSIAN,
        add_noise=True,
        params=GaussianParams(np.zeros(2), [[1.0, 0.5], [0.5, 1.0]]),
    )
    out = multiple_impute(X, spec, 1, SeedSpec(6))
    assert len(out) == 1


def test_multiple_impute_across_draw_variance():
    sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    params = GaussianParams(np.zeros(2), sigma)
    X = _bivariate_fixture(n=40, seed=22)
    spec = ImputerSpec(ImputerKind.CONDITIONAL_GAUSSIAN, add_noise=True, params=params)
    draws = np.stack(multiple_impute(X, spec, 400, SeedSpec(7)))
    holes = np.argwhere(X.mask == 0)
    cond_var = 0.75  # sigma_mm - sigma_mo sigma_oo^-1 sigma_om
    rel_errs = []
    for i, j in holes:
        rel_errs.append(draws[:, i, j].var(ddof=1) / cond_var - 1.0)
    # average over cells: sampling error of a variance at K=400 is ~7% per
    # cell, so test the mean relative error at the 5% criterion
    assert abs(np.mean(rel_errs)) < 0.05
    obs = X.mask == 1
    for d in draws[:5]:
        assert np.array_equal(d[obs], X.values[obs])
