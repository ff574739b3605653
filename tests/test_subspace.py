import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gapkit.core import SeedSpec, sep
from gapkit.subspace import (
    CONDITION_CAP,
    OUTLIER_SUPPORT_TOL,
    PRECISION_INIT,
    RobustConfig,
    _clip_row_norms,
    _pinv,
    _rows_to_reset,
    petrels_init,
    petrels_update,
    petrels_weights,
    robust_stage1,
    robust_update,
)


def _basis(p, r, seed):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((p, r)))[0]


def test_init_reproducible_and_orthonormal():
    a = petrels_init(20, 3, SeedSpec(1))
    b = petrels_init(20, 3, SeedSpec(1))
    assert np.array_equal(a.U, b.U)
    assert_allclose(a.U.T @ a.U, np.eye(3), atol=1e-10)


def test_init_square_orthogonal():
    s = petrels_init(4, 4, SeedSpec(2))
    assert_allclose(s.U @ s.U.T, np.eye(4), atol=1e-10)


def test_init_validates():
    with pytest.raises(ValueError):
        petrels_init(3, 4, SeedSpec(0))
    with pytest.raises(ValueError):
        petrels_init(3, 2, SeedSpec(0), lambda_forget=0.0)


def test_weights_consistent_system():
    U = _basis(10, 2, 3)
    w_star = np.array([1.5, -0.7])
    w, flag = petrels_weights(U, U @ w_star, np.ones(10, dtype=int))
    assert not flag
    assert_allclose(w, w_star, atol=1e-8)


def test_weights_zero_mask_flagged_min_norm():
    U = _basis(6, 2, 4)
    w, flag = petrels_weights(U, np.zeros(6), np.zeros(6, dtype=int))
    assert flag
    assert_allclose(w, 0.0)


@settings(max_examples=200, deadline=None)
@given(p=st.integers(1, 30), r=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       miss=st.sampled_from([0.0, 0.3, 0.9, 1.0]), deficient=st.booleans())
def test_weights_match_lstsq_bit_for_bit(p, r, seed, miss, deficient):
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((p, r)) * 10.0 ** rng.uniform(-3.0, 3.0)
    if deficient:
        U[:, -1] = 2.0 * U[:, 0] if r > 1 else 0.0
    y = rng.standard_normal(p)
    m = (rng.random(p) >= miss).astype(int)
    obs = np.flatnonzero(m == 1)
    w_ref, _res, rank, _sv = np.linalg.lstsq(U[obs], y[obs], rcond=None)
    w, flag = petrels_weights(U, y, m)
    assert w.tobytes() == w_ref.tobytes()
    assert flag == (rank < r)


def test_weights_match_normal_equations_oracle():
    rng = np.random.default_rng(5)
    U = _basis(40, 2, 6)
    y = U @ rng.standard_normal(2) + 0.01 * rng.standard_normal(40)
    m = (rng.random(40) < 0.3).astype(int)
    w, _ = petrels_weights(U, y, m)
    obs = m == 1
    A = U[obs]
    oracle = np.linalg.solve(A.T @ A, A.T @ y[obs])
    assert_allclose(w, oracle, atol=1e-8)
    resid = A.T @ (A @ w - y[obs])
    assert np.linalg.norm(resid) <= 1e-8 * max(np.linalg.norm(A.T @ y[obs]), 1.0)


def test_update_static_full_observation_converges():
    rng = np.random.default_rng(7)
    p, r = 30, 2
    U_true = _basis(p, r, 8)
    state = petrels_init(p, r, SeedSpec(9), lambda_forget=1.0)
    for _ in range(500):
        y = U_true @ rng.standard_normal(r)
        petrels_update(state, y, np.ones(p, dtype=int))
    assert sep(state.U, U_true) < 1e-6


def test_update_unobserved_rows_untouched():
    rng = np.random.default_rng(10)
    p, r = 12, 2
    state = petrels_init(p, r, SeedSpec(11))
    U_before = state.U.copy()
    prec_before = state.row_prec.copy()
    m = np.ones(p, dtype=int)
    m[[2, 5, 9]] = 0
    petrels_update(state, rng.standard_normal(p), m)
    for i in (2, 5, 9):
        assert np.array_equal(state.U[i], U_before[i])
        assert np.array_equal(state.row_prec[i], prec_before[i])
    assert state.t == 1


def test_update_reconverges_after_subspace_switch():
    rng = np.random.default_rng(12)
    p, r = 30, 2
    U_a, U_b = _basis(p, r, 13), _basis(p, r, 14)
    state = petrels_init(p, r, SeedSpec(15), lambda_forget=0.98)
    for t in range(1500):
        y = U_a @ rng.standard_normal(r) + 0.01 * rng.standard_normal(p)
        m = (rng.random(p) < 0.7).astype(int)
        petrels_update(state, y, m)
    assert sep(state.U, U_a) < 1e-2
    for t in range(1500):
        y = U_b @ rng.standard_normal(r) + 0.01 * rng.standard_normal(p)
        m = (rng.random(p) < 0.7).astype(int)
        petrels_update(state, y, m)
    assert sep(state.U, U_b) < 1e-1


def test_stage1_no_outliers_large_rho():
    rng = np.random.default_rng(16)
    U = _basis(15, 2, 17)
    y = U @ rng.standard_normal(2) + 0.01 * rng.standard_normal(15)
    m = np.ones(15, dtype=int)
    cfg = RobustConfig(rho=100.0)
    res = robust_stage1(U, y, m, cfg)
    assert_allclose(res.s, 0.0)
    w_plain, _ = petrels_weights(U, y, m)
    assert_allclose(res.w, w_plain, atol=1e-10)


def test_stage1_spike_support_recovery():
    rng = np.random.default_rng(18)
    p, r = 6, 2
    U = _basis(p, r, 19)
    w_true = rng.standard_normal(r)
    y = U @ w_true
    y[3] += 10.0
    res = robust_stage1(U, y, np.ones(p, dtype=int), RobustConfig(rho=1.0))
    support = np.flatnonzero(np.abs(res.s) > 1e-10)
    assert list(support) == [3]
    # brute-force oracle over all single-coordinate supports
    best_obj, best_k = np.inf, None
    for k in range(p):
        mask_vec = np.zeros(p)
        # with support {k}: minimize over (w, s_k) jointly = LS on remaining rows
        idx = [i for i in range(p) if i != k]
        w_k = np.linalg.lstsq(U[idx], y[idx], rcond=None)[0]
        s_k = y[k] - U[k] @ w_k
        obj = np.sum((y[idx] - U[idx] @ w_k) ** 2) + 1.0 * abs(s_k)
        if obj < best_obj:
            best_obj, best_k = obj, k
    assert best_k == 3


def test_stage1_rho_zero_absorbs_residual():
    rng = np.random.default_rng(20)
    U = _basis(8, 2, 21)
    y = rng.standard_normal(8)
    res = robust_stage1(U, y, np.ones(8, dtype=int), RobustConfig(rho=1e-300))
    assert_allclose(U @ res.w + res.s, y, atol=1e-10)


def test_stage1_objective_nonincreasing():
    rng = np.random.default_rng(22)
    U = _basis(20, 3, 23)
    y = U @ rng.standard_normal(3) + rng.standard_normal(20) * 0.1
    y[[4, 11]] += np.array([7.0, -5.0])
    m = (rng.random(20) < 0.8).astype(int)
    res = robust_stage1(U, y, m, RobustConfig(rho=0.5))
    assert np.all(np.diff(res.objective_trace) <= 1e-8)


def test_robust_update_reduces_to_plain_when_clean():
    rng = np.random.default_rng(24)
    p, r = 10, 2
    U_true = _basis(p, r, 25)
    y = U_true @ rng.standard_normal(r)  # exact, no outliers
    m = np.ones(p, dtype=int)  # full mask: per-step weight is 1
    s_plain = petrels_init(p, r, SeedSpec(26))
    s_rob = petrels_init(p, r, SeedSpec(26))
    petrels_update(s_plain, y, m)
    robust_update(s_rob, y, m, RobustConfig(rho=1e6, alpha_reg=0.0))
    assert_allclose(s_rob.U, s_plain.U, atol=1e-12)
    assert_allclose(s_rob.row_prec, s_plain.row_prec, atol=1e-12)


def test_robust_update_huge_alpha_equalizes_row_norms():
    rng = np.random.default_rng(27)
    p, r = 12, 2
    state = petrels_init(p, r, SeedSpec(28))
    y = rng.standard_normal(p)
    robust_update(state, y, np.ones(p, dtype=int), RobustConfig(rho=1e6, alpha_reg=1e12))
    norms = np.linalg.norm(state.U, axis=1)
    assert norms.max() - norms.min() < 1e-9 * max(norms.max(), 1e-300)


def test_robust_beats_plain_under_outliers():
    p, r = 40, 2
    U_true = _basis(p, r, 29)
    cfg = RobustConfig(rho=1.0)
    wins = 0
    seeds = 6
    for seed in range(seeds):
        rs = np.random.default_rng([31, seed])
        s_pl = petrels_init(p, r, SeedSpec(32, seed), 0.98)
        s_ro = petrels_init(p, r, SeedSpec(32, seed), 0.98)
        for _ in range(1500):
            y = U_true @ rs.standard_normal(r) + 0.1 * rs.standard_normal(p)
            spikes = rs.random(p) < 0.1
            y = y + spikes * 10.0 * rs.choice([-1.0, 1.0], p)
            m = (rs.random(p) > 0.1).astype(int)
            petrels_update(s_pl, y, m)
            robust_update(s_ro, y, m, cfg)
        wins += sep(s_ro.U, U_true) < sep(s_pl.U, U_true)
    assert wins >= seeds - 1


def test_robust_update_keeps_row_precisions_symmetric():
    rng = np.random.default_rng(33)
    p, r = 20, 3
    U_true = _basis(p, r, 34)
    state = petrels_init(p, r, SeedSpec(35))
    cfg = RobustConfig(rho=1.0)
    for _ in range(200):
        y = U_true @ rng.standard_normal(r) + 0.1 * rng.standard_normal(p)
        y += (rng.random(p) < 0.1) * 10.0
        m = (rng.random(p) > 0.2).astype(int)  # weight = clean rows / p < 1
        robust_update(state, y, m, cfg)
    assert np.array_equal(state.row_prec, state.row_prec.transpose(0, 2, 1))
    assert state.reinit_count == 0


def _stage1_sign_max(U, y, m, cfg):
    """Reference loop: soft-threshold as sign * max, objective from the fit;
    returns (w, s, objective trace)."""
    obs = np.flatnonzero(m == 1)
    s = np.zeros(U.shape[0])
    A = U[obs]
    pinv = np.linalg.pinv(A)
    y_o = y[obs]
    s_o = np.zeros(len(obs))
    trace = []
    for _ in range(cfg.admm_iters):
        w = pinv @ (y_o - s_o)
        resid = y_o - A @ w
        s_new = np.sign(resid) * np.maximum(np.abs(resid) - cfg.rho / 2.0, 0.0)
        trace.append(np.sum((A @ w + s_new - y_o) ** 2) + cfg.rho * np.abs(s_new).sum())
        delta = np.abs(s_new - s_o).max()
        s_o = s_new
        if delta < cfg.admm_tol:
            break
    w = pinv @ (y_o - s_o)
    s[obs] = s_o
    return w, s, np.array(trace)


@pytest.mark.parametrize("case", ["full", "partial", "rank_deficient", "one_row"])
@pytest.mark.parametrize("seed", range(5))
def test_stage1_matches_sign_max_reference(case, seed):
    rng = np.random.default_rng([36, seed])
    p, r = 25, 3
    U = _basis(p, r, seed)
    m = np.ones(p, dtype=int)
    if case == "partial":
        m = (rng.random(p) > 0.3).astype(int)
    elif case == "rank_deficient":
        U[:, 2] = U[:, 0] - 2.0 * U[:, 1]
        m = (rng.random(p) > 0.3).astype(int)
    elif case == "one_row":
        m = np.zeros(p, dtype=int)
        m[seed] = 1
    y = U @ rng.standard_normal(r) + 0.1 * rng.standard_normal(p)
    y += (rng.random(p) < 0.15) * rng.choice([-8.0, 8.0], p)
    cfg = RobustConfig(rho=0.7)
    res = robust_stage1(U, y, m, cfg)
    w, s, trace = _stage1_sign_max(U, y, m, cfg)
    assert np.array_equal(res.w, w)
    assert np.array_equal(res.s, s)
    assert len(res.objective_trace) == len(trace)
    assert_allclose(res.objective_trace, trace, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape", [(45, 2), (1, 2), (2, 3), (25, 3), (3, 3)])
@pytest.mark.parametrize("seed", range(3))
def test_pinv_matches_numpy_bit_for_bit(shape, seed):
    A = np.random.default_rng([43, seed]).standard_normal(shape)
    assert np.array_equal(_pinv(A), np.linalg.pinv(A))
    A[:, -1] = -2.0 * A[:, 0]  # rank deficient
    assert np.array_equal(_pinv(A), np.linalg.pinv(A))
    # A singular value ratio of 1e-14 sits just above the 1e-15 cutoff.
    u, _, vt = np.linalg.svd(A, full_matrices=False)
    sv = np.ones(len(vt))
    sv[-1] = 1e-14
    A = (u * sv) @ vt
    assert np.array_equal(_pinv(A), np.linalg.pinv(A))


@pytest.mark.parametrize(
    "kwargs",
    [dict(admm_iters=0), dict(admm_iters=-3), dict(admm_iters=2.5), dict(admm_iters=True),
     dict(admm_tol=np.nan), dict(admm_tol=-1.0), dict(admm_tol=0.0), dict(admm_tol=np.inf)],
    ids=["iters0", "iters_negative", "iters_float", "iters_bool",
         "tol_nan", "tol_negative", "tol0", "tol_inf"],
)
def test_robust_config_rejects_silent_stage1_settings(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        RobustConfig(**kwargs)


def test_robust_config_accepts_numpy_integer_iters():
    assert RobustConfig(admm_iters=np.int64(3)).admm_iters == 3


def test_tracker_counts_stage1_iterations_and_unconverged_steps():
    rng = np.random.default_rng(37)
    p, r = 15, 2
    U_true = _basis(p, r, 38)
    cfg = RobustConfig(rho=0.5, admm_iters=2)
    state = petrels_init(p, r, SeedSpec(39))
    iters = unconverged = 0
    for t in range(40):
        y = U_true @ rng.standard_normal(r) + 0.1 * rng.standard_normal(p)
        y += (rng.random(p) < 0.2) * rng.choice([-8.0, 8.0], p)
        m = np.zeros(p, dtype=int) if t == 7 else (rng.random(p) > 0.2).astype(int)
        res = robust_stage1(state.U, y, m, cfg)
        if m.any():
            iters += len(res.objective_trace)
        unconverged += not res.converged
        robust_update(state, y, m, cfg)
    assert state.t == 40
    assert 0 < unconverged < 40
    assert (state.stage1_iters, state.stage1_unconverged) == (iters, unconverged)
    assert state.stage1_iters <= 2 * 39
    plain = petrels_init(p, r, SeedSpec(39))
    petrels_update(plain, y, m)
    assert (plain.stage1_iters, plain.stage1_unconverged) == (0, 0)


# The tracking step as it stood before stage 1 called the ufuncs directly and
# built its pseudo-inverse from the SVD: np.linalg.pinv, np.clip, and the
# observed index taken twice. The library step must reproduce its bits.
def _ref_stage1(U, y_t, m_t, cfg):
    obs = np.flatnonzero(np.asarray(m_t) == 1)
    s = np.zeros(U.shape[0])
    if len(obs) == 0:
        return np.zeros(U.shape[1]), s
    A = U[obs]
    pinv = np.linalg.pinv(A)
    y_o = y_t[obs]
    s_o = np.zeros(len(obs))
    half = cfg.rho / 2.0
    for _ in range(cfg.admm_iters):
        w = pinv @ (y_o - s_o)
        resid = y_o - A @ w
        s_new = resid - np.clip(resid, -half, half)
        delta = np.abs(s_new - s_o).max()
        s_o = s_new
        if delta < cfg.admm_tol:
            break
    w = pinv @ (y_o - s_o)
    s[obs] = s_o
    return w, s


def _ref_rls_row_updates(state, obs, y_t, w, weight=1.0):
    lam = state.lambda_forget
    Rinv = state.row_prec[obs]
    v = Rinv @ w
    denom = lam + weight * (v @ w)
    Rinv_new = (Rinv - v[:, :, None] * v[:, None, :] * weight / denom[:, None, None]) / lam
    resid = y_t[obs] - state.U[obs] @ w
    state.U[obs] += weight * resid[:, None] * (Rinv_new @ w)
    bad = _eigvalsh_reset_rule(Rinv_new)
    if bad.any():
        Rinv_new[bad] = PRECISION_INIT * np.eye(state.r)
        state.reinit_count += int(bad.sum())
    state.row_prec[obs] = Rinv_new
    state.t += 1


def _eigvalsh_reset_rule(R):
    """The reset rule in eigenvalue form: a non-finite entry, or lam_min <= tr / CAP."""
    finite = np.isfinite(R).all(axis=(1, 2))
    bad = ~finite
    bad[finite] = np.linalg.eigvalsh(R[finite])[:, 0] <= np.trace(R[finite], axis1=1, axis2=2) / CONDITION_CAP
    return bad


# What a drawn precision row is beside its scale and tr / lam_min.
_ROW_KINDS = ["definite", "definite", "definite", "singular", "indefinite", "zero", "nan", "inf", "-inf"]


@settings(max_examples=400, deadline=None)
@given(r=st.integers(1, 4), kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_rows_to_reset_matches_eigvalsh_rule(r, kinds, seed):
    # Largest eigenvalue log-uniform in [1e-200, 1e200]; tr / lam_min
    # log-uniform in [r, 1e16], or within a factor 4 of CONDITION_CAP = 1e12
    # for half the rows, and never within a factor 2 of the cap.
    rng = np.random.default_rng(seed)
    cap, two = np.log10(CONDITION_CAP), np.log10(2.0)
    stack = []
    for kind in kinds:
        if rng.random() < 0.5:  # a factor 2 to 4 from the cap, on either side
            log_ratio = cap + rng.choice([-1.0, 1.0]) * rng.uniform(two, 2 * two)
        else:  # log-uniform in [r, 1e16], skipping a factor 2 either side of the cap
            log_ratio = rng.uniform(np.log10(r), 16.0 - 2 * two)
            log_ratio += 2 * two * (log_ratio > cap - two)
        # lam_min = 1 and the other r - 1 eigenvalues share tr - lam_min at random
        share = rng.random(r - 1)
        eig = np.concatenate([[1.0], 1.0 + (10.0**log_ratio - r) * share / max(share.sum(), 1e-300)])
        eig *= 10.0 ** rng.uniform(-200.0, 200.0) / eig.max()
        if kind == "singular":
            eig[0] = 0.0
        elif kind == "indefinite":
            eig[0] = -eig[0]
        elif kind == "zero":
            eig[:] = 0.0
        Q = np.linalg.qr(rng.standard_normal((r, r)))[0]
        R = (Q * eig) @ Q.T
        R = np.tril(R) + np.tril(R, -1).T  # exactly symmetric
        if kind in ("nan", "inf", "-inf"):
            i, j = rng.integers(r, size=2)
            R[i, j] = R[j, i] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
        stack.append(R)
    R = np.array(stack)
    assert _rows_to_reset(R).tolist() == _eigvalsh_reset_rule(R).tolist()


def test_rows_to_reset_examples():
    R = np.array([[[2.0, 1.0], [1.0, 3.0]], [[1e3, 0.0], [0.0, 1e-8]], [[1.0, 0.0], [0.0, 1e-13]],
                  [[np.inf, 0.0], [0.0, 1.0]], [[1.0, -np.inf], [-np.inf, 1.0]], np.zeros((2, 2))])
    assert _rows_to_reset(R).tolist() == [False, False, True, True, True, True]


def _ref_robust_update(state, y_t, m_t, cfg):
    """Returns whether stage 1 flagged every observed row."""
    w, s = _ref_stage1(state.U, y_t, m_t, cfg)
    obs = np.flatnonzero((m_t == 1) & (np.abs(s) <= OUTLIER_SUPPORT_TOL))
    if len(obs) == 0:
        state.t += 1
        return bool(np.any(m_t == 1))
    _ref_rls_row_updates(state, obs, y_t, w, weight=len(obs) / state.p)
    if cfg.alpha_reg > 0:
        _clip_row_norms(state.U, cfg.alpha_reg / max(state.t, 1))
    return False


def _ref_petrels_update(state, y_t, m_t):
    w, _ = petrels_weights(state.U, y_t, m_t)
    obs = np.flatnonzero(m_t == 1)
    if len(obs) == 0:
        state.t += 1
        return
    _ref_rls_row_updates(state, obs, y_t, w)


def test_tracking_steps_match_reference_bit_for_bit():
    rng = np.random.default_rng(40)
    p, r = 12, 2
    U_true = _basis(p, r, 41)
    cfg = RobustConfig(rho=1.0, alpha_reg=0.3)
    steps = []
    for _ in range(60):
        y = U_true @ rng.standard_normal(r) + 0.1 * rng.standard_normal(p)
        y += (rng.random(p) < 0.1) * rng.choice([-8.0, 8.0], p)
        steps.append((y, (rng.random(p) > 0.2).astype(int), cfg))
    steps[5] = (steps[5][0], np.zeros(p, dtype=int), cfg)  # all masked
    one_row = np.zeros(p, dtype=int)
    one_row[3] = 1
    steps[9] = (steps[9][0], one_row, cfg)
    # A tiny rho leaves every observed row with a nonzero outlier.
    steps[14] = (5.0 * rng.standard_normal(p), np.ones(p, dtype=int), RobustConfig(rho=1e-6))
    # A constant w under strong forgetting drives the precisions to a reset.
    constant = (U_true @ np.array([1.0, -0.5]), np.ones(p, dtype=int), RobustConfig(rho=1.0))
    steps += [constant] * 60
    lib_rob, ref_rob, lib_pl, ref_pl = (petrels_init(p, r, SeedSpec(42), 0.5) for _ in range(4))
    all_flagged = 0
    for y, m, step_cfg in steps:
        robust_update(lib_rob, y, m, step_cfg)
        all_flagged += _ref_robust_update(ref_rob, y, m, step_cfg)
        petrels_update(lib_pl, y, m)
        _ref_petrels_update(ref_pl, y, m)
    assert all_flagged >= 1
    for lib, ref in ((lib_rob, ref_rob), (lib_pl, ref_pl)):
        assert ref.reinit_count > 0
        assert np.array_equal(lib.U, ref.U)
        assert np.array_equal(lib.row_prec, ref.row_prec)
        assert (lib.t, lib.reinit_count) == (ref.t, ref.reinit_count)
        assert ref.t == len(steps)


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(2, 30), r=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
    miss=st.floats(0.0, 0.9), spikes=st.floats(0.0, 0.5), rho=st.floats(1e-6, 10.0),
    alpha_reg=st.sampled_from([0.0, 0.3, 5.0]), lambda_forget=st.floats(0.01, 1.0),
    admm_iters=st.integers(1, 50),
)
def test_tracking_steps_match_reference_on_drawn_streams(
    p, r, seed, miss, spikes, rho, alpha_reg, lambda_forget, admm_iters
):
    r = min(r, p)
    rng = np.random.default_rng(seed)
    U_true = _basis(p, r, seed)
    cfg = RobustConfig(rho=rho, alpha_reg=alpha_reg, admm_iters=admm_iters)
    lib_rob, ref_rob, lib_pl, ref_pl = (petrels_init(p, r, SeedSpec(seed), lambda_forget) for _ in range(4))
    iters = unconverged = all_flagged = 0
    for t in range(25):
        y = U_true @ rng.standard_normal(r) + 0.1 * rng.standard_normal(p)
        y += (rng.random(p) < spikes) * rng.choice([-8.0, 8.0], p)
        m = (rng.random(p) >= miss).astype(int)
        step_cfg = cfg
        if t == 3:
            m[:] = 0
        elif t == 6 and p > r:
            # A tiny rho leaves every row off the subspace with an outlier.
            y, m, step_cfg = 1e3 * rng.standard_normal(p), np.ones(p, dtype=int), RobustConfig(rho=1e-6)
        res = robust_stage1(lib_rob.U, y, m, step_cfg)
        w, s = _ref_stage1(lib_rob.U, y, m, step_cfg)
        assert res.w.tobytes() == w.tobytes() and res.s.tobytes() == s.tobytes()
        iters += len(res.objective_trace) if m.any() else 0
        unconverged += not res.converged
        robust_update(lib_rob, y, m, step_cfg)
        all_flagged += _ref_robust_update(ref_rob, y, m, step_cfg)
        petrels_update(lib_pl, y, m)
        _ref_petrels_update(ref_pl, y, m)
    assert all_flagged >= (p > r)
    assert (lib_rob.stage1_iters, lib_rob.stage1_unconverged) == (iters, unconverged)
    for lib, ref in ((lib_rob, ref_rob), (lib_pl, ref_pl)):
        assert lib.U.tobytes() == ref.U.tobytes()
        assert lib.row_prec.tobytes() == ref.row_prec.tobytes()
        assert (lib.t, lib.reinit_count) == (ref.t, ref.reinit_count)
        assert ref.t == 25


def _ref_clip_row_norms(U, penalty):
    """The water-filling scan as a loop over descending row norms."""
    g = np.linalg.norm(U, axis=1)
    gs = g[np.argsort(-g)]
    csum = np.cumsum(gs)
    for k in range(1, len(gs) + 1):
        bound = csum[k - 1] / (penalty + k)
        if k == len(gs) or bound >= gs[k]:
            break
    over = g > bound
    scale = np.ones_like(g)
    scale[over] = bound / np.maximum(g[over], 1e-300)
    U *= scale[:, None]


@settings(max_examples=200, deadline=None)
@given(p=st.integers(1, 30), r=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       penalty=st.floats(1e-8, 1e6), ties=st.booleans())
def test_clip_row_norms_matches_loop_reference_bit_for_bit(p, r, seed, penalty, ties):
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((p, r)) * 10.0 ** rng.uniform(-3.0, 3.0)
    if ties:
        U[: (p + 1) // 2] = U[0]
    ref = U.copy()
    _ref_clip_row_norms(ref, penalty)
    _clip_row_norms(U, penalty)
    assert U.tobytes() == ref.tobytes()
