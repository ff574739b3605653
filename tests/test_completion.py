import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gapkit import completion
from gapkit.completion import hard_impute, soft_impute
from gapkit.core import IncompleteMatrix, SeedSpec
from gapkit.imputation import impute_mean
from gapkit.mechanisms import MechanismKind, MechanismSpec, gen_mask


def nuclear_objective(X, Y, M, lam):
    """Reference 0.5 * ||M o (X - Y)||_F^2 + lam * ||X||_* with a full SVD."""
    resid = np.where(np.asarray(M) == 1, X - Y, 0.0)
    return 0.5 * float(np.sum(resid**2)) + lam * float(np.linalg.svd(X, compute_uv=False).sum())


def svd_step(A, lam=0.0, r=None):
    """Reference for completion._spectral_filter from a full SVD: U diag(s - lam)_+ V^T, or the
    rank-r truncation given r, with the nonzero singular values of the result."""
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    kept = s[:r] if r is not None else np.maximum(s - lam, 0.0)
    kept = kept[kept > 0]
    return (U[:, : len(kept)] * kept) @ Vt[: len(kept)], kept


def _lowrank(p, n, r, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((p, r)) @ rng.standard_normal((r, n))


def test_hard_no_missing_returns_input():
    vals = _lowrank(6, 6, 3, 0)
    X = IncompleteMatrix.from_complete(vals)
    res = hard_impute(X, r=3)
    assert res.iters == 1 and res.converged
    assert_allclose(res.X, vals)


def test_hard_rank_one_single_hole():
    rng = np.random.default_rng(1)
    u = rng.uniform(0.5, 2.0, 6)
    v = rng.uniform(0.5, 2.0, 7)
    vals = np.outer(u, v)
    mask = np.ones((6, 7), dtype=int)
    mask[2, 3] = 0
    X = IncompleteMatrix(vals, mask)
    res = hard_impute(X, r=1, tol=1e-12, max_iter=2000)
    assert abs(res.X[2, 3] - u[2] * v[3]) < 1e-6


def test_hard_rank2_mcar_recovery():
    vals = _lowrank(50, 50, 2, 2)
    mask = gen_mask((50, 50), MechanismSpec(MechanismKind.MCAR, rate=0.1), seed=SeedSpec(3))
    X = IncompleteMatrix(vals, mask)
    res = hard_impute(X, r=2, tol=1e-10, max_iter=500)
    rel = np.linalg.norm(res.X - vals) / np.linalg.norm(vals)
    assert rel < 1e-3


def test_hard_pins_observed_entries():
    vals = _lowrank(10, 12, 2, 4)
    mask = gen_mask((10, 12), MechanismSpec(MechanismKind.MCAR, rate=0.3), seed=SeedSpec(5))
    X = IncompleteMatrix(vals, mask)
    res = hard_impute(X, r=2, max_iter=7)
    obs = mask == 1
    assert np.array_equal(res.X[obs], vals[obs])


def test_hard_rank_bound_on_fill():
    # the fill always comes from a rank-r reconstruction of the previous
    # iterate, so at convergence it agrees with the rank-r SVD of the output
    # up to the stopping tolerance
    vals = _lowrank(12, 12, 2, 6) + 0.01 * np.random.default_rng(7).standard_normal((12, 12))
    mask = gen_mask((12, 12), MechanismSpec(MechanismKind.MCAR, rate=0.2), seed=SeedSpec(8))
    X = IncompleteMatrix(vals, mask)
    r = 2
    tol = 1e-9
    res = hard_impute(X, r=r, tol=tol, max_iter=5000)
    assert res.converged
    U, s, Vt = np.linalg.svd(res.X)
    filled_component = (U[:, :r] * s[:r]) @ Vt[:r]
    hole = mask == 0
    scale = np.linalg.norm(res.X)
    assert np.abs(res.X[hole] - filled_component[hole]).max() < 100 * tol * scale


def test_hard_rejects_bad_rank():
    X = IncompleteMatrix.from_complete(np.ones((3, 4)))
    with pytest.raises(ValueError):
        hard_impute(X, r=5)


def test_soft_full_shrinkage_gives_zero():
    vals = _lowrank(8, 8, 2, 9)
    mask = gen_mask((8, 8), MechanismSpec(MechanismKind.MCAR, rate=0.2), seed=SeedSpec(10))
    X = IncompleteMatrix(vals, mask)
    from gapkit.imputation import impute_mean

    lam = np.linalg.svd(impute_mean(X), compute_uv=False)[0] * 1.01
    res = soft_impute(X, lam, max_iter=50)
    assert_allclose(res.X, 0.0, atol=1e-12)
    assert res.rank == 0
    obs_sq = 0.5 * float(np.sum(X.values[mask == 1] ** 2))
    assert_allclose(res.objective_trace[-1], obs_sq)


def test_soft_lambda_zero_no_missing_identity():
    vals = _lowrank(6, 5, 3, 11)
    X = IncompleteMatrix.from_complete(vals)
    res = soft_impute(X, 0.0)
    assert_allclose(res.X, vals, atol=1e-10)


def test_soft_objective_nonincreasing_and_matches_nuclear_objective():
    vals = _lowrank(15, 15, 2, 12) + 0.1 * np.random.default_rng(13).standard_normal((15, 15))
    mask = gen_mask((15, 15), MechanismSpec(MechanismKind.MCAR, rate=0.25), seed=SeedSpec(14))
    X = IncompleteMatrix(vals, mask)
    res = soft_impute(X, 1.0, tol=1e-12, max_iter=200)
    assert np.all(np.diff(res.objective_trace) <= 1e-10)
    assert_allclose(
        res.objective_trace[-1], nuclear_objective(res.X, X.filled(0.0), mask, 1.0), atol=1e-9
    )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(2, 10),
    st.floats(0.0, 0.6),
    st.floats(0.0, 5.0),
    st.integers(0, 2**32 - 1),
)
def test_soft_objective_trace_never_increases(p, n, rate, lam, seed):
    rng = np.random.default_rng(seed)
    vals = _lowrank(p, n, 1, seed) + 0.3 * rng.standard_normal((p, n))
    mask = (rng.random((p, n)) >= rate).astype(np.int8)
    mask[:, 0] = 1  # mean imputation, the default start, needs every row observed
    trace = soft_impute(IncompleteMatrix(vals, mask), lam, tol=1e-12, max_iter=40).objective_trace
    assert np.all(np.diff(trace) <= 1e-10 * (1.0 + np.abs(trace[:-1])))


def test_soft_rank_nonincreasing_in_lambda():
    vals = _lowrank(20, 20, 2, 15) + 0.2 * np.random.default_rng(16).standard_normal((20, 20))
    mask = gen_mask((20, 20), MechanismSpec(MechanismKind.MCAR, rate=0.2), seed=SeedSpec(17))
    X = IncompleteMatrix(vals, mask)
    lams = np.linspace(0.1, 12.0, 10)
    ranks = [soft_impute(X, lam, tol=1e-9, max_iter=300).rank for lam in lams]
    assert all(r1 >= r2 for r1, r2 in zip(ranks, ranks[1:]))


def test_nuclear_objective_values():
    Y = np.eye(2)
    M = np.ones((2, 2))
    assert nuclear_objective(Y, Y, M, 0.0) == 0.0
    assert_allclose(nuclear_objective(Y, Y, M, 0.5), 0.5 * 2.0)  # lam * ||Y||_*
    assert_allclose(nuclear_objective(np.zeros((2, 2)), Y, M, 0.0), 0.5 * 2.0)  # 0.5 ||M o Y||_F^2
    X = np.diag([0.5, 0.5])
    assert_allclose(nuclear_objective(X, Y, M, 1.0), 1.25)


@pytest.mark.parametrize("complete", [lambda Y, **kw: hard_impute(Y, 1, **kw),
                                      lambda Y, **kw: soft_impute(Y, 0.5, **kw)], ids=["hard", "soft"])
@pytest.mark.parametrize("stop", [{"tol": 0.0}, {"tol": -1.0}, {"tol": np.nan}, {"max_iter": 0}, {"tol": np.inf}])
def test_completion_rejects_bad_stopping_rule(complete, stop):
    Y = IncompleteMatrix([[1.0, 2.0], [3.0, 0.0]], [[1, 1], [1, 0]])
    message = {"tol": "tol must be positive and finite", "max_iter": "max_iter must be an integer >= 1"}
    with pytest.raises(ValueError, match=message[next(iter(stop))]):
        complete(Y, **stop)


@pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
def test_soft_impute_rejects_bad_lambda(lam):
    Y = IncompleteMatrix([[1.0, 2.0], [3.0, 0.0]], [[1, 1], [1, 0]])
    with pytest.raises(ValueError, match="lam"):
        soft_impute(Y, lam)


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


_SHAPES = {"tall": (9, 4), "wide": (4, 9), "square": (6, 6)}


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(_SHAPES)),
    st.booleans(),
    st.sampled_from(["zero", "1e-300", "drawn", "above s_max"]),
    st.floats(0.02, 0.98),
    st.floats(0.0, 0.5),
    st.integers(0, 2**32 - 1),
)
def test_completion_matches_svd_reference(shape, deficient, lam_kind, frac, rate, seed):
    # the Gram-eigendecomposition kernel against a full SVD in the same iteration
    p, n = _SHAPES[shape]
    rng = np.random.default_rng(seed)
    vals = _lowrank(p, n, 1 if deficient else min(p, n), seed)
    mask = (rng.random((p, n)) >= rate).astype(np.int8)
    mask[:, 0] = 1
    Y = IncompleteMatrix(vals, mask)
    s_max = np.linalg.norm(impute_mean(Y), 2)
    lam = {"zero": 0.0, "1e-300": 1e-300, "drawn": frac * s_max, "above s_max": 1.01 * s_max}[lam_kind]
    r = 1 + int(frac * min(p, n))
    got = soft_impute(Y, lam, tol=1e-9, max_iter=40), hard_impute(Y, r, tol=1e-9, max_iter=40)
    with patch.object(completion, "_spectral_filter", svd_step):
        ref = soft_impute(Y, lam, tol=1e-9, max_iter=40), hard_impute(Y, r, tol=1e-9, max_iter=40)
    for a, b in zip(got, ref):
        assert a.iters == b.iters
        assert _rel(a.X, b.X) <= 1e-10
    assert got[0].rank == ref[0].rank
    assert_allclose(got[0].objective_trace, ref[0].objective_trace, rtol=1e-10, atol=1e-10 * s_max**2)


@pytest.mark.parametrize("e", [-560, -520, 500])
@pytest.mark.parametrize("solver", ["hard", "soft"])
def test_completion_is_scale_free(solver, e):
    # both solvers run on Y scaled to unit size by a power of two, so c Y gives c X with
    # the same iterations; the Gram matrix of Y at these scales leaves the float range
    vals = _lowrank(30, 20, 2, 21) + 0.1 * np.random.default_rng(22).standard_normal((30, 20))
    mask = gen_mask((30, 20), MechanismSpec(MechanismKind.MCAR, rate=0.2), seed=SeedSpec(23))
    c = 2.0**e

    def run(scale):
        Y = IncompleteMatrix(vals * scale, mask)
        if solver == "hard":
            return hard_impute(Y, 2, tol=1e-9)
        return soft_impute(Y, 0.5 * scale, tol=1e-9)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        unit, scaled = run(1.0), run(c)
    assert scaled.iters == unit.iters > 1
    assert _rel(scaled.X / c, unit.X) <= 1e-12
