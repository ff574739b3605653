import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import cho_factor, cho_solve

from gapkit.core import IncompleteMatrix, SeedSpec
from gapkit.graph import (
    DirectedGraph,
    FidelityKind,
    RecoveryConfig,
    SmoothnessKind,
    UndirectedGraph,
    gmrf_learn,
    recover_tikhonov,
    recover_tv,
    smoothness,
    stsrgl_fit,
    var_learn,
)
from gapkit import graph
from gapkit.graph import _edge_form, _edges, _gmrf_gradient, _gmrf_objective, _signal_pcg

PATH3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def grid_graph(side):
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


# -- graph types ---------------------------------------------------------------


def test_undirected_graph_validation():
    with pytest.raises(ValueError):
        UndirectedGraph(np.array([[0.0, 1.0], [0.5, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        UndirectedGraph(np.array([[1.0, 0.0], [0.0, 0.0]]))  # diagonal
    with pytest.raises(ValueError):
        UndirectedGraph(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative
    G = UndirectedGraph(PATH3)
    L = G.L
    assert_allclose(L @ np.ones(3), 0.0, atol=1e-14)
    assert np.linalg.eigvalsh(L).min() >= -1e-12


@pytest.mark.parametrize(
    "use",
    [UndirectedGraph,
     lambda W: recover_tikhonov(IncompleteMatrix([[0.0], [0.0], [2.0]], [[1], [0], [1]]), W),
     lambda W: recover_tv(IncompleteMatrix([[0.0], [0.0], [2.0]], [[1], [0], [1]]), W)],
    ids=["UndirectedGraph", "recover_tikhonov", "recover_tv"],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_graph_weights_must_be_finite(use, bad):
    W = PATH3.copy()
    W[0, 1] = W[1, 0] = bad
    with pytest.raises(ValueError, match="W must be finite"):
        use(W)


def test_undirected_graph_edge_round_trip():
    G = UndirectedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
    assert G.edges() == [(0, 1, 1.0), (1, 2, 2.0)]


def test_directed_graph_requires_finite():
    with pytest.raises(ValueError):
        DirectedGraph(np.array([[0.0, np.inf], [0.0, 0.0]]))


# -- smoothness criteria --------------------------------------------------------


def test_smoothness_constant_signal_zero():
    X = np.ones((3, 4)) * 2.5
    assert smoothness(X, PATH3, SmoothnessKind.TIKHONOV) == 0.0
    assert smoothness(X, PATH3, SmoothnessKind.TV) == 0.0


def test_smoothness_two_node_hand_values():
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = np.array([[0.0], [2.0]])
    assert_allclose(smoothness(x, W, SmoothnessKind.TIKHONOV), 4.0)
    assert_allclose(smoothness(x, W, SmoothnessKind.TV), 2.0)


def test_smoothness_spatio_temporal_time_constant():
    rng = np.random.default_rng(0)
    col = rng.standard_normal(3)
    X = np.tile(col[:, None], (1, 5))
    st = smoothness(X, PATH3, SmoothnessKind.SPATIO_TEMPORAL)
    tik1 = smoothness(col[:, None], PATH3, SmoothnessKind.TIKHONOV)
    assert_allclose(st, tik1, atol=1e-12)


def test_smoothness_tikhonov_two_forms_agree():
    rng = np.random.default_rng(1)
    for _ in range(10):
        W = rng.random((5, 5))
        W = np.triu(W, 1)
        W = W + W.T
        X = rng.standard_normal((5, 3))
        tik = smoothness(X, W, SmoothnessKind.TIKHONOV)
        double_sum = 0.5 * sum(
            W[i, j] * np.sum((X[i] - X[j]) ** 2) for i in range(5) for j in range(5)
        )
        assert_allclose(tik, double_sum, atol=1e-10)


def test_smoothness_directed_variation():
    W = np.array([[0.0, 1.0], [0.0, 0.0]])
    X = np.array([[1.0], [2.0]])
    # ||W||_F = 1; x - W x / 1 = (1 - 2, 2)
    assert_allclose(smoothness(X, W, SmoothnessKind.DIRECTED_VARIATION, p_norm=2), 1.0 + 4.0)
    with pytest.raises(ValueError, match="nonzero"):
        smoothness(X, np.zeros((2, 2)), SmoothnessKind.DIRECTED_VARIATION)


# -- recovery -------------------------------------------------------------------


def test_harmonic_path_midpoint():
    Y = IncompleteMatrix([[0.0], [0.0], [2.0]], [[1], [0], [1]])
    X = recover_tikhonov(Y, PATH3, RecoveryConfig())
    assert_allclose(X[1, 0], 1.0)


def test_harmonic_constant_extension():
    W = grid_graph(3)
    rng = np.random.default_rng(3)
    mask = (rng.random((9, 4)) < 0.6).astype(int)
    mask[0] = 1
    Y = IncompleteMatrix(np.full((9, 4), 3.7) * mask, mask)
    X = recover_tikhonov(Y, W, RecoveryConfig())
    assert_allclose(X, 3.7, atol=1e-9)


def test_squared_alpha_beta_zero():
    Y = IncompleteMatrix([[1.0], [0.0]], [[1], [0]])
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    cfg = RecoveryConfig(fidelity=FidelityKind.SQUARED, alpha=0.0, beta=0.0)
    X = recover_tikhonov(Y, W, cfg)
    assert_allclose(X[0, 0], 1.0)
    assert_allclose(X[1, 0], 0.0)  # unconstrained minimum


def test_harmonic_maximum_principle():
    W = grid_graph(4)
    rng = np.random.default_rng(4)
    vals = rng.standard_normal((16, 6))
    mask = (rng.random((16, 6)) < 0.5).astype(int)
    mask[[0, 15]] = 1
    Y = IncompleteMatrix(vals, mask)
    X = recover_tikhonov(Y, W, RecoveryConfig())
    for j in range(6):
        obs = mask[:, j] == 1
        assert X[:, j].min() >= vals[obs, j].min() - 1e-9
        assert X[:, j].max() <= vals[obs, j].max() + 1e-9


def test_harmonic_disconnected_errors():
    W = np.zeros((3, 3))
    W[0, 1] = W[1, 0] = 1.0  # node 2 isolated
    Y = IncompleteMatrix([[1.0], [0.0], [0.0]], [[1], [0], [0]])
    with pytest.raises(ValueError, match="disconnected"):
        recover_tikhonov(Y, W, RecoveryConfig())


def test_huber_recovery_matches_squared_for_small_residuals():
    W = grid_graph(3)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((9, 3)) * 0.01
    mask = (rng.random((9, 3)) < 0.7).astype(int)
    Y = IncompleteMatrix(vals, mask)
    sq = recover_tikhonov(Y, W, RecoveryConfig(fidelity=FidelityKind.SQUARED, alpha=0.5))
    hu = recover_tikhonov(
        Y, W, RecoveryConfig(fidelity=FidelityKind.HUBER, alpha=0.5, delta=1e3)
    )
    # huber with huge delta is the half-quadratic loss: same minimizer family
    # up to the factor-2 scaling between the two fidelity conventions
    hu2 = recover_tikhonov(
        Y, W, RecoveryConfig(fidelity=FidelityKind.SQUARED, alpha=1.0)
    )
    assert_allclose(hu, hu2, atol=1e-6)


def test_tv_path_objective_value():
    Y = IncompleteMatrix([[0.0], [0.0], [2.0]], [[1], [0], [1]])
    X = recover_tv(Y, PATH3, max_iter=500)
    obj = abs(X[0, 0] - X[1, 0]) + abs(X[1, 0] - X[2, 0])
    # any middle value in [0, 2] attains the minimum objective 2
    assert obj < 2.0 + 1e-6
    scan = min(
        abs(0.0 - v) + abs(v - 2.0) for v in np.linspace(-1, 3, 4001)
    )
    assert_allclose(scan, 2.0)


def test_tv_piecewise_constant_block():
    # path of 5 nodes, block values [1 1 1 5 5], interior of the block missing
    p = 5
    W = np.zeros((p, p))
    for i in range(p - 1):
        W[i, i + 1] = W[i + 1, i] = 1.0
    vals = np.array([[1.0], [1.0], [1.0], [5.0], [5.0]])
    mask = np.array([[1], [0], [1], [1], [1]])
    Y = IncompleteMatrix(vals, mask)
    X = recover_tv(Y, W, max_iter=800)
    assert abs(X[1, 0] - 1.0) < 1e-3


def test_tv_all_observed_identity():
    rng = np.random.default_rng(6)
    vals = rng.standard_normal((3, 4))
    Y = IncompleteMatrix.from_complete(vals)
    assert_allclose(recover_tv(Y, PATH3), vals)


def _tv_admm_per_group(Y, W, alpha, max_iter, rho=1.0):
    """Reference TV recovery: ADMM run separately for each mask pattern."""
    p = W.shape[0]
    iu, ju = np.triu_indices(p, k=1)
    keep = W[iu, ju] > 0
    ei, ej, we = iu[keep], ju[keep], W[iu, ju][keep]
    n_e = len(we)
    D = np.zeros((n_e, p))
    D[np.arange(n_e), ei] = 1.0
    D[np.arange(n_e), ej] = -1.0
    Q = D.T @ D
    thr = (alpha * we / rho)[:, None]
    y_full = Y.filled(0.0)
    out = Y.values.copy()
    for obs, mis, cols in Y.pattern_groups:
        if len(mis) == 0:
            continue
        try:
            f = cho_factor(Q[np.ix_(mis, mis)])
        except np.linalg.LinAlgError as exc:
            raise ValueError("missing component disconnected from observed nodes") from exc
        Xg = y_full[:, cols]
        Xg[mis] = 0.0
        coupling = Q[np.ix_(mis, obs)] @ Xg[obs]
        Z = D @ Xg
        Ud = np.zeros((n_e, len(cols)))
        best_obj = np.full(len(cols), np.inf)
        best = Xg[mis].copy()
        for _ in range(max_iter):
            rhs = D.T @ (Z - Ud)
            Xg[mis] = cho_solve(f, rhs[mis] - coupling)
            Dx = D @ Xg
            obj = alpha * (we @ np.abs(Dx))
            better = obj < best_obj
            best_obj = np.where(better, obj, best_obj)
            best[:, better] = Xg[mis][:, better]
            V = Dx + Ud
            Z = np.sign(V) * np.maximum(np.abs(V) - thr, 0.0)
            Ud += Dx - Z
        out[np.ix_(mis, cols)] = best
    return out


def _tv_objectives(X, W):
    iu, ju = np.triu_indices(W.shape[0], k=1)
    return W[iu, ju] @ np.abs(X[iu] - X[ju])


def test_tv_reaches_the_per_column_admm_objective():
    W, Y = _gappy_field(20, seed=23, side=10)
    mask = Y.mask.copy()
    mask[:, 3:13] = mask[:, [3]]  # one pattern over ten columns
    mask[:, 15] = 1  # a fully observed column
    mask[:, 17] = mask[:, 16]  # a pattern over two columns
    Y = IncompleteMatrix(np.nan_to_num(Y.values), mask)
    got, ref = recover_tv(Y, W), _tv_admm_per_group(Y, W, 1.0, 3000)
    assert np.array_equal(got[mask == 1], Y.values[mask == 1])
    # 500 iterations end within 2e-5 of the long ADMM run's objective in every column
    ref_objective = _tv_objectives(ref, W)
    assert np.all(_tv_objectives(got, W) - ref_objective <= 2e-5 * ref_objective)
    assert np.array_equal(got[:, 15], Y.values[:, 15])
    W[7] = W[:, 7] = 0.0  # node 7 isolated: every column missing it fails
    mask[7, 14] = 0
    Y = IncompleteMatrix(np.nan_to_num(Y.values), mask)
    for run in (recover_tv, lambda Y, W: _tv_admm_per_group(Y, W, 1.0, 5)):
        with pytest.raises(ValueError, match="disconnected"):
            run(Y, W)


# -- graph learning ---------------------------------------------------------


def test_gmrf_two_node_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = rng.standard_normal((2, 2))
        S = A @ A.T + 0.5 * np.eye(2)
        alpha = rng.uniform(0.01, 2.0)
        s = S[0, 0] + S[1, 1] - 2 * S[0, 1]
        G = gmrf_learn(S, alpha)
        assert abs(G.W[0, 1] - 1.0 / (s + 2 * alpha)) < 1e-6


def test_gmrf_alpha_saturation_empties_graph():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((4, 4))
    S = A @ A.T + np.eye(4)
    G = gmrf_learn(S, alpha=1e4)
    assert G.W.max() < 1e-3


def test_gmrf_chain_support_recovery():
    # the l1 penalty on Laplacian weights does not zero spurious edges (they
    # plateau near the sampling-noise level), so support is read at a
    # threshold separating the two weight groups by an order of magnitude
    p, n = 6, 10_000
    W_true = np.zeros((p, p))
    for i in range(p - 1):
        W_true[i, i + 1] = W_true[i + 1, i] = 1.0
    L = np.diag(W_true.sum(1)) - W_true
    w_eig, V = np.linalg.eigh(L)
    nz = w_eig > 1e-9
    half = V[:, nz] / np.sqrt(w_eig[nz])
    rng = np.random.default_rng(9)
    Xs = half @ rng.standard_normal((nz.sum(), n))
    S = Xs @ Xs.T / n
    G = gmrf_learn(S, alpha=0.01)
    assert np.array_equal(G.W > 0.1, W_true > 0)
    assert G.W[W_true > 0].min() > 10 * G.W[W_true == 0].max()


def test_gmrf_feasible_set_invariants():
    rng = np.random.default_rng(10)
    for _ in range(5):
        A = rng.standard_normal((5, 5))
        S = A @ A.T + 0.3 * np.eye(5)
        G = gmrf_learn(S, alpha=0.1)
        L = G.L
        off = L - np.diag(np.diag(L))
        assert off.max() <= 1e-10
        assert_allclose(L @ np.ones(5), 0.0, atol=1e-10)
        assert np.linalg.eigvalsh(L).min() >= -1e-10


def test_gmrf_rejects_zero_moment():
    with pytest.raises(ValueError):
        gmrf_learn(np.zeros((3, 3)), 0.1)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_gmrf_rejects_non_finite_moment(bad):
    # NaN and inf slip past the symmetry comparison, so they are caught first
    with pytest.raises(ValueError, match="S must be finite"):
        gmrf_learn(np.array([[1.0, bad], [bad, 2.0]]), 0.1)
    with pytest.raises(ValueError, match="S must be finite"):
        gmrf_learn(np.array([[1.0, 0.5], [0.5, bad]]), 0.1)


def _random_moment(p, seed):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((p, 3 * p))
    return Z @ Z.T / Z.shape[1], rng


def _gmrf_dense(S, alpha, w):
    """Objective and gradient over w from a dense slogdet and inverse of
    L + 1 1^T / p, independent of the Cholesky kernel."""
    p = len(S)
    iu, ju = np.triu_indices(p, k=1)
    W = np.zeros((p, p))
    W[iu, ju] = w
    W += W.T
    M = np.diag(W.sum(axis=1)) - W + 1.0 / p
    edges = _edges(p)
    s_vec = _edge_form(S.ravel(), edges.up, edges)
    sign, logdet = np.linalg.slogdet(M)
    assert sign > 0
    grad = s_vec - _edge_form(np.linalg.inv(M).ravel(), edges.up, edges) + 2.0 * alpha
    return w @ s_vec - logdet + 2.0 * alpha * w.sum(), grad


def _gmrf_residual(S, alpha, w):
    """The solver's stopping residual max|min(w, g)| at w, in its units and
    from its own kernels."""
    k = 2.0 ** -round(np.log2(np.abs(S).max()))  # the power of two nearest 1 / max|S|
    S, alpha, w = k * S, k * alpha, w / k
    p = len(S)
    edges = _edges(p)
    s_vec = _edge_form(S.ravel(), edges.up, edges)
    _obj, f = _gmrf_objective(w, s_vec, alpha, edges, p)
    return np.abs(np.minimum(w, _gmrf_gradient(f, s_vec, alpha, edges))).max()


@settings(max_examples=100, deadline=None)
@given(p=st.integers(2, 8), alpha=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1), warm=st.booleans())
def test_gmrf_learn_meets_kkt_on_random_moments(p, alpha, seed, warm):
    # stationarity on w >= 0: each weight is zero with a nonnegative
    # gradient entry or positive with a zero one
    S, rng = _random_moment(p, seed)
    iu, ju = np.triu_indices(p, k=1)
    w0 = rng.uniform(0.05, 2.0, len(iu)) if warm else None
    w = gmrf_learn(S, alpha, w0=w0).W[iu, ju]
    _obj, grad = _gmrf_dense(S, alpha, w)
    assert np.abs(np.minimum(w, grad)).max() <= 1e-6
    assert _gmrf_residual(S, alpha, w) <= 1e-7


@settings(max_examples=100, deadline=None)
@given(p=st.integers(2, 8), alpha=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       max_iter=st.integers(1, 50))
def test_gmrf_learn_never_ends_above_a_feasible_warm_start(p, alpha, seed, max_iter):
    # the nonmonotone search may climb between iterations, but every step it
    # accepts ends below the largest remembered objective, so below f(w0)
    S, rng = _random_moment(p, seed)
    iu, ju = np.triu_indices(p, k=1)
    edges = _edges(p)
    s_vec = _edge_form(S.ravel(), edges.up, edges)
    w0 = rng.uniform(0.05, 2.0, len(iu))
    w = gmrf_learn(S, alpha, w0=w0, max_iter=max_iter).W[iu, ju]
    start, _ = _gmrf_objective(w0, s_vec, alpha, edges, p)
    end, _ = _gmrf_objective(w, s_vec, alpha, edges, p)
    assert end <= start


@pytest.mark.parametrize("p, alpha, seed", [(2, 0.0, 3), (4, 0.1, 4), (7, 0.6, 5), (8, 0.02, 6)])
def test_gmrf_solve_from_its_own_answer_takes_no_step(p, alpha, seed):
    # the returned point passes the stopping test, so a warm start there
    # costs the one factorization that scores it
    S, _rng = _random_moment(p, seed)
    w_opt = graph._gmrf_solve(S, alpha)[0]
    w, factorizations, steps = graph._gmrf_solve(S, alpha, w0=w_opt)
    assert (factorizations, steps) == (1, 0)
    assert w.tobytes() == w_opt.tobytes()


@pytest.mark.parametrize("c", [1e-6, 2.0**-20, 1.0, 3.7, 1e6])
def test_gmrf_learn_scales_with_the_units_of_s(c):
    # S -> c S with alpha -> c alpha is the same problem in other units, with
    # weights w / c; the two-node closed form is w = 1 / (2c) at S = c I
    assert_allclose(gmrf_learn(c * np.eye(2), 0.0).W[0, 1], 0.5 / c, rtol=1e-9)
    S, _rng = _random_moment(6, 0)
    W1 = gmrf_learn(S, 0.1).W
    Wc = gmrf_learn(c * S, c * 0.1).W
    assert_allclose(c * Wc, W1, rtol=0, atol=1e-6 * W1.max())
    if c in (2.0**-20, 1.0):  # a power of two changes no rounding
        assert (c * Wc).tobytes() == W1.tobytes()


@pytest.mark.parametrize(
    "kwargs, message",
    [({"max_iter": -1}, "max_iter must be an integer >= 0"), ({"max_iter": 2.5}, "max_iter must be an integer >= 0"),
     ({"tol": np.nan}, "tol must be nonnegative and finite"), ({"tol": -1.0}, "tol must be nonnegative and finite"),
     ({"tol": np.inf}, "tol must be nonnegative and finite")],
)
def test_gmrf_learn_rejects_settings_that_do_nothing(kwargs, message):
    # NaN or negative tol would run every step; a negative max_iter none
    with pytest.raises(ValueError, match=message):
        gmrf_learn(_random_moment(3, 0)[0], 0.1, **kwargs)


@pytest.mark.parametrize("p, alpha, seed", [(2, 0.0, 3), (4, 0.1, 4), (7, 0.6, 5)])
def test_gmrf_learn_restarts_from_an_infeasible_warm_start(p, alpha, seed):
    # the empty graph leaves L + 1 1^T / p singular: the solver spends one
    # factorization on it, then runs exactly as from its default start
    S, _rng = _random_moment(p, seed)
    w0 = np.zeros(p * (p - 1) // 2)
    assert graph._gmrf_solve(S, alpha, w0)[1] == graph._gmrf_solve(S, alpha)[1] + 1
    assert gmrf_learn(S, alpha, w0=w0).W.tobytes() == gmrf_learn(S, alpha).W.tobytes()


@settings(max_examples=100, deadline=None)
@given(p=st.integers(2, 8), alpha=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_gmrf_objective_matches_slogdet(p, alpha, seed):
    S, rng = _random_moment(p, seed)
    iu, ju = np.triu_indices(p, k=1)
    w = rng.uniform(0.0, 3.0, len(iu)) * (rng.random(len(iu)) < 0.7)
    w[ju == iu + 1] += 0.1  # a path keeps the graph connected
    edges = _edges(p)
    obj, f = _gmrf_objective(w, _edge_form(S.ravel(), edges.up, edges), alpha, edges, p)
    dense, _ = _gmrf_dense(S, alpha, w)
    assert f is not None
    assert abs(obj - dense) <= 1e-12 * max(abs(dense), 1.0)


@settings(max_examples=200, deadline=None)
@given(p=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_gmrf_objective_rejects_disconnected_weights(p, seed):
    # no edge joins the two node groups, so L + 1 1^T / p is singular; about
    # half of such draws leave a rounding-level positive last pivot
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(p, k=1)
    group = np.zeros(p, dtype=int)
    group[rng.permutation(p)[: rng.integers(1, p)]] = 1
    w = 10.0 ** rng.uniform(-3.0, 3.0, len(iu)) * (group[iu] == group[ju])
    s_vec = rng.uniform(0.0, 2.0, len(iu))
    obj, f = _gmrf_objective(w, s_vec, 0.1, _edges(p), p)
    assert obj == np.inf and f is None


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_gmrf_objective_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError):
        _gmrf_objective(np.array([1.0, bad, 1.0]), np.ones(3), 0.1, _edges(3), 3)


def test_var_noiseless_recovery():
    # a single noiseless trajectory from a generic start excites all of R^p
    # over the first p+ steps (Krylov span), so alpha = 0 recovers A exactly
    rng = np.random.default_rng(11)
    p, n = 4, 12
    A_true = np.linalg.qr(rng.standard_normal((p, p)))[0] * 0.95
    X = np.zeros((p, n))
    cur = rng.standard_normal(p)
    for t in range(n):
        X[:, t] = cur
        cur = A_true @ cur
    G = var_learn(X, alpha=0.0)
    assert np.abs(G.A - A_true).max() < 1e-6


def test_var_alpha_huge_zeroes_adjacency():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((3, 50))
    G = var_learn(X, alpha=1e6)
    assert_allclose(G.A, 0.0)


def test_var_scalar_soft_threshold_formula():
    rng = np.random.default_rng(14)
    x = rng.standard_normal(30)
    X = x[None, :]
    alpha = 0.8
    c = float(x[:-1] @ x[1:])
    g = float(x[:-1] @ x[:-1])
    expected = np.sign(c) * max(abs(c) - alpha / 2.0, 0.0) / g
    G = var_learn(X, alpha=alpha)
    assert_allclose(G.A[0, 0], expected, atol=1e-8)


def test_var_needs_two_columns():
    with pytest.raises(ValueError):
        var_learn(np.ones((2, 1)), 0.1)


def test_var_overflowing_gram_is_a_numerical_failure():
    X = np.random.default_rng(15).standard_normal((3, 20)) * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="alpha=1.0"):
            var_learn(X, 1.0)


def _lasso_cd_reference(G, c, alpha_half, a0, yty, B, y, max_iter=10_000, gap_tol=1e-8):
    """Scalar coordinate descent for 0.5 ||y - B^T a||^2 + alpha_half ||a||_1,
    one row at a time: the reference for var_learn's batched loop. Returns
    the solution and the number of sweeps it ran."""
    a = a0.copy()
    d = np.diag(G).copy()
    free = d > 0
    grad_cache = G @ a
    for sweep in range(1, max_iter + 1):
        max_move = 0.0
        for k in np.flatnonzero(free):
            old = a[k]
            rho_k = c[k] - grad_cache[k] + d[k] * old
            new = np.sign(rho_k) * max(abs(rho_k) - alpha_half, 0.0) / d[k]
            if new != old:
                grad_cache += G[:, k] * (new - old)
                a[k] = new
                max_move = max(max_move, abs(new - old))
        r = y - B.T @ a
        primal = 0.5 * float(r @ r) + alpha_half * float(np.abs(a).sum())
        br = B @ r
        scale = min(1.0, alpha_half / max(np.abs(br).max(), 1e-300)) if alpha_half > 0 else 1.0
        theta = r * scale
        dual = 0.5 * yty - 0.5 * float((y - theta) @ (y - theta))
        if primal - dual < gap_tol or max_move == 0.0:
            break
    return a, sweep


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("alpha", [0.05, 1.0, 8.0, 20.0])
def test_var_matches_row_by_row_lasso(seed, alpha):
    rng = np.random.default_rng(seed)
    p, n = 7, 50
    X = np.zeros((p, n))
    for t in range(1, n):
        X[:, t] = 0.6 * np.roll(X[:, t - 1], 1) + rng.standard_normal(p)
    X[3] = 0.0  # a constant-zero row: coordinate 3 has d_k = 0
    B, Y = X[:, :-1], X[:, 1:]
    G = B @ B.T
    ref = np.zeros((p, p))
    sweeps = []
    for i in range(p):
        ref[i], s = _lasso_cd_reference(G, B @ Y[i], alpha / 2.0, ref[i], float(Y[i] @ Y[i]), B, Y[i])
        sweeps.append(s)
    assert len(set(sweeps)) > 1  # rows finish on different sweeps
    A = var_learn(X, alpha).A
    assert np.array_equal(A != 0, ref != 0)
    assert np.abs(A - ref).max() <= 1e-10 * np.abs(ref).max()


# -- joint spatio-temporal fit -------------------------------------------------


def _gmrf_half(W):
    L = np.diag(W.sum(1)) - W
    w_eig, V = np.linalg.eigh(L)
    nz = w_eig > 1e-9
    return V[:, nz] / np.sqrt(w_eig[nz]), nz.sum()


def test_stsrgl_zero_temporal_truth():
    # the temporal-fit block sums n terms, so its l1 weight scales with n
    side = 3
    W_true = grid_graph(side)
    p = side * side
    half, k = _gmrf_half(W_true)
    rng = np.random.default_rng(15)
    n = 10_000
    E = half @ rng.standard_normal((k, n))  # A = 0: signals are innovations
    mask = (rng.random((p, n)) > 0.3).astype(int)
    Y = IncompleteMatrix(E + 0.1 * rng.standard_normal((p, n)), mask)
    res = stsrgl_fit(Y, alpha_a=0.02 * n, alpha_l=0.1, sigma_n2=0.01, iters=4, x_sweeps=1)
    assert np.abs(res.A.A).max() < 1e-2
    assert np.all(np.diff(res.objective_trace) <= 1e-6)


def test_stsrgl_objective_nonincreasing():
    side = 3
    W_true = grid_graph(side)
    p = side * side
    half, k = _gmrf_half(W_true)
    rng = np.random.default_rng(16)
    n = 300
    X = np.zeros((p, n))
    cur = half @ rng.standard_normal(k)
    for t in range(n):
        cur = 0.5 * cur + half @ rng.standard_normal(k)
        X[:, t] = cur
    mask = (rng.random((p, n)) > 0.5).astype(int)
    empty = np.flatnonzero(mask.sum(axis=0) == 0)
    mask[0, empty] = 1  # recovery needs one observation per column
    Y = IncompleteMatrix(X + 0.1 * rng.standard_normal((p, n)), mask)
    res = stsrgl_fit(Y, iters=6)
    diffs = np.diff(res.objective_trace)
    assert np.all(diffs <= 1e-8 * (1 + np.abs(res.objective_trace[:-1])))


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(2, 4),
    n=st.integers(3, 10),
    alpha_a=st.floats(0.0, 2.0),
    alpha_l=st.floats(0.0, 1.0),
    sigma_n2=st.floats(1e-3, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_stsrgl_objective_never_increases_on_random_inputs(p, n, alpha_a, alpha_l, sigma_n2, seed):
    rng = np.random.default_rng(seed)
    mask = (rng.random((p, n)) > 0.4).astype(int)
    mask[rng.integers(p, size=n), np.arange(n)] = 1  # an observed entry per column
    Y = IncompleteMatrix(rng.standard_normal((p, n)), mask)
    res = stsrgl_fit(Y, alpha_a=alpha_a, alpha_l=alpha_l, sigma_n2=sigma_n2, iters=4, gmrf_iters=100)
    trace = res.objective_trace
    assert np.all(np.diff(trace) <= 1e-8 * (1 + np.abs(trace[:-1])))


def test_stsrgl_reports_learner_counts(monkeypatch):
    # every learner factorization is one _gmrf_objective call and every
    # accepted step one _gmrf_gradient call past the start point's; the
    # joint objective adds one _gmrf_objective call per trace entry
    calls = {"objective": 0, "gradient": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(graph, "_gmrf_objective", counting("objective", _gmrf_objective))
    monkeypatch.setattr(graph, "_gmrf_gradient", counting("gradient", _gmrf_gradient))
    iters = 3
    _W, Y = _gappy_field(40)
    res = stsrgl_fit(Y, iters=iters, gmrf_iters=60)
    assert len(res.gmrf_factorizations) == len(res.gmrf_steps) == iters + 1
    assert np.all(res.gmrf_steps >= 1) and np.all(res.gmrf_factorizations > res.gmrf_steps)
    assert calls["objective"] == res.gmrf_factorizations.sum() + len(res.objective_trace)
    assert calls["gradient"] == res.gmrf_steps.sum() + iters + 1


def test_stsrgl_huge_l1_weight_empties_the_adjacency_without_overflow():
    # step * alpha_a passes the float range; the soft threshold is then inf
    rng = np.random.default_rng(3)
    Y = IncompleteMatrix(1e-3 * rng.standard_normal((4, 30)), np.ones((4, 30)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = stsrgl_fit(Y, alpha_a=np.float64(1.7e308), iters=2)
    assert np.all(res.A.A == 0)


def _signal_problem(p, n, seed):
    """Random SPD signal step: L SPD, A of spectral norm 0.6, data weights
    Dw >= 0 with B0 = Dw * y."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((p, p))
    L = M @ M.T / p + 0.1 * np.eye(p)
    A = rng.standard_normal((p, p))
    A *= 0.6 / np.linalg.norm(A, 2)
    Dw = np.where(rng.random((p, n)) < 0.5, rng.uniform(0.5, 5.0, (p, n)), 0.0)
    return L, A, Dw, Dw * rng.standard_normal((p, n))


def _signal_system(L, A, Dw, B0):
    """The signal objective 0.5 x^T H x - B0 . x over the stacked columns
    (e_0 = x_0, e_t = x_t - A x_{t-1}; 0.5 sum_t e_t^T L e_t plus the data
    term), as its dense block-tridiagonal H and right-hand side."""
    p, n = Dw.shape
    E = np.eye(n * p)
    for t in range(1, n):
        E[t * p:(t + 1) * p, (t - 1) * p:t * p] = -A
    H = E.T @ np.kron(np.eye(n), L) @ E + np.diag(Dw.T.reshape(-1))
    return H, B0.T.reshape(-1)


@pytest.mark.parametrize("n", [2, 7, 8, 40])
def test_signal_pcg_descends_to_the_dense_solve(n):
    p = 4
    L, A, Dw, B0 = _signal_problem(p, n, seed=n)
    H, b = _signal_system(L, A, Dw, B0)

    def objective(X):
        x = X.T.reshape(-1)
        return 0.5 * x @ H @ x - b @ x

    values = []
    for iters in range(2 * p * n + 1):
        X = np.zeros((p, n))
        _signal_pcg(X, L, A, Dw, B0, iters)
        values.append(objective(X))
    assert np.all(np.diff(values) <= 1e-12 * (1.0 + np.abs(values[:-1])))
    exact = np.linalg.solve(H, b).reshape(n, p).T
    assert np.abs(X - exact).max() <= 1e-8 * max(np.abs(exact).max(), 1.0)


def test_stsrgl_requires_observed_columns():
    Y = IncompleteMatrix(np.zeros((3, 3)), [[1, 0, 1], [1, 0, 1], [1, 0, 1]])
    with pytest.raises(ValueError, match="observed entry"):
        stsrgl_fit(Y)


# -- per-call work does not grow with the column count --------------------------


def _gappy_field(n, seed=17, side=3):
    W = grid_graph(side)
    p = side * side
    half, k = _gmrf_half(W)
    rng = np.random.default_rng(seed)
    X = np.zeros((p, n))
    cur = half @ rng.standard_normal(k)
    for t in range(n):
        cur = 0.5 * cur + half @ rng.standard_normal(k)
        X[:, t] = cur
    mask = (rng.random((p, n)) > 0.4).astype(int)
    mask[0, mask.sum(axis=0) == 0] = 1
    return W, IncompleteMatrix(X + 0.1 * rng.standard_normal((p, n)), mask)


def _count_filled(monkeypatch):
    calls = []
    original = IncompleteMatrix.filled

    def counting(self, fill_value=0.0):
        calls.append(1)
        return original(self, fill_value)

    monkeypatch.setattr(IncompleteMatrix, "filled", counting)
    return calls


@pytest.mark.parametrize(
    "run",
    [
        lambda W, Y: stsrgl_fit(Y, iters=2, x_sweeps=2, a_steps=3, gmrf_iters=20),
        lambda W, Y: recover_tv(Y, W, max_iter=5),
        lambda W, Y: recover_tikhonov(Y, W, RecoveryConfig(fidelity=FidelityKind.SQUARED)),
        lambda W, Y: recover_tikhonov(Y, W, RecoveryConfig(fidelity=FidelityKind.HUBER)),
    ],
    ids=["stsrgl_fit", "recover_tv", "tikhonov_squared", "tikhonov_huber"],
)
def test_filled_calls_constant_in_n(monkeypatch, run):
    counts = []
    for n in (40, 80):
        W, Y = _gappy_field(n)
        calls = _count_filled(monkeypatch)
        run(W, Y)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 1


def _huber_irls_lstsq(Y, W, cfg):
    """Reference IRLS: one dense least-squares solve per reweighting."""
    L = np.diag(W.sum(axis=1)) - W
    y_full = Y.filled(0.0)
    out = np.empty(Y.shape)
    for j in range(Y.n):
        m = Y.mask[:, j].astype(float)
        x = y_full[:, j].copy()
        for _ in range(cfg.max_iter):
            a = np.abs(y_full[:, j] - x)
            omega = m * np.where(a <= cfg.delta, 1.0, cfg.delta / np.maximum(a, 1e-300))
            H = np.diag(omega) + 2.0 * cfg.alpha * L + 2.0 * cfg.beta * np.eye(Y.p)
            x_new = np.linalg.lstsq(H, omega * y_full[:, j], rcond=None)[0]
            done = np.abs(x_new - x).max() < cfg.tol * (1.0 + np.abs(x).max())
            x = x_new
            if done:
                break
        out[:, j] = x
    return out


@pytest.mark.parametrize(
    "cfg",
    [
        RecoveryConfig(fidelity=FidelityKind.HUBER, alpha=0.5, delta=0.05),
        RecoveryConfig(fidelity=FidelityKind.HUBER, alpha=0.2, beta=0.1, delta=0.1),
        RecoveryConfig(fidelity=FidelityKind.HUBER, alpha=0.0, beta=0.0, delta=0.1),
    ],
    ids=["alpha", "alpha_beta", "unregularized"],
)
def test_huber_recovery_matches_lstsq_reference(cfg):
    W, Y = _gappy_field(30, seed=18)
    W[4] = W[:, 4] = 0.0  # isolated node: the lstsq fallback path
    rng = np.random.default_rng(19)
    vals = Y.values + np.where(rng.random(Y.shape) < 0.1, 3.0, 0.0)  # outliers
    Y = IncompleteMatrix(np.nan_to_num(vals), Y.mask)
    assert_allclose(recover_tikhonov(Y, W, cfg), _huber_irls_lstsq(Y, W, cfg), rtol=0, atol=1e-10)


def _huber_irls_cho(Y, W, cfg):
    """Reference IRLS with the recovery's own arithmetic on scipy's
    cho_factor / cho_solve and the lstsq fallback."""
    base = 2.0 * cfg.alpha * (np.diag(W.sum(axis=1)) - W) + 2.0 * cfg.beta * np.eye(Y.p)
    y_full = Y.filled(0.0)
    out = Y.values.copy()
    for j in range(Y.n):
        m = Y.mask[:, j].astype(float)
        x = y_full[:, j].copy()
        for _ in range(cfg.max_iter):
            a = np.abs(y_full[:, j] - x)
            omega = m * np.where(a <= cfg.delta, 1.0, cfg.delta / np.maximum(a, 1e-300))
            H = base.copy()
            H[np.diag_indices(Y.p)] += omega
            rhs = omega * y_full[:, j]
            try:
                x_new = cho_solve(cho_factor(H, check_finite=False), rhs, check_finite=False)
            except np.linalg.LinAlgError:
                x_new = np.linalg.lstsq(H, rhs, rcond=None)[0]
            done = np.abs(x_new - x).max() < cfg.tol * (1.0 + np.abs(x).max())
            x = x_new
            if done:
                break
        out[:, j] = x
    return out


@pytest.mark.parametrize("side", [3, 10])
@pytest.mark.parametrize(
    "cfg",
    [
        RecoveryConfig(fidelity=FidelityKind.HUBER, alpha=0.5, delta=0.05),
        RecoveryConfig(fidelity=FidelityKind.HUBER, alpha=0.2, beta=0.1, delta=0.1),
        RecoveryConfig(fidelity=FidelityKind.HUBER, alpha=0.0, beta=0.0, delta=0.1),
    ],
    ids=["alpha", "alpha_beta", "unregularized"],
)
def test_huber_recovery_matches_cholesky_formula_bit_for_bit(cfg, side):
    # one dposv per step is potrf + potrs, the same LAPACK calls as
    # cho_factor + cho_solve; an isolated node takes the lstsq fallback
    W, Y = _gappy_field(12, seed=20, side=side)
    W[4] = W[:, 4] = 0.0
    rng = np.random.default_rng(21)
    vals = Y.values + np.where(rng.random(Y.shape) < 0.1, 3.0, 0.0)
    Y = IncompleteMatrix(np.nan_to_num(vals), Y.mask)
    assert np.array_equal(recover_tikhonov(Y, W, cfg), _huber_irls_cho(Y, W, cfg))


@pytest.mark.parametrize(
    "kwargs, message",
    [({"iters": 0}, "iters >= 1"), ({"sigma_n2": 0.0}, "sigma_n2 > 0"), ({"sigma_n2": np.nan}, "sigma_n2 > 0"),
     ({"alpha_a": -1.0}, "alpha_a"), ({"alpha_l": -0.1}, "alpha_l"), ({"alpha_l": np.inf}, "alpha_l"),
     ({"x_sweeps": -1}, "x_sweeps must be"), ({"a_steps": 2.5}, "a_steps must be"),
     ({"gmrf_iters": -1}, "gmrf_iters must be")],
)
def test_stsrgl_rejects_bad_settings(kwargs, message):
    Y = IncompleteMatrix(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError, match=message):
        stsrgl_fit(Y, **kwargs)


@pytest.mark.parametrize(
    "learn",
    [lambda alpha: gmrf_learn(np.eye(3), alpha),
     lambda alpha: var_learn(np.ones((3, 4)), alpha)],
    ids=["gmrf_learn", "var_learn"],
)
@pytest.mark.parametrize("alpha", [-1.0, np.nan, np.inf])
def test_penalty_weight_must_be_nonnegative_and_finite(learn, alpha):
    with pytest.raises(ValueError, match="alpha must be nonnegative"):
        learn(alpha)


@pytest.mark.parametrize(
    "field", [{"alpha": np.nan}, {"beta": np.inf}, {"delta": np.nan}, {"tol": np.nan}, {"tol": np.inf}, {"tol": -1.0}]
)
def test_recovery_config_rejects_non_finite(field):
    with pytest.raises(ValueError, match="finite"):
        RecoveryConfig(**field)


@pytest.mark.parametrize(
    "make",
    [lambda: RecoveryConfig(fidelity=FidelityKind.HUBER, max_iter=0),
     lambda: RecoveryConfig(fidelity=FidelityKind.HUBER, max_iter=-3),
     lambda: RecoveryConfig(max_iter=2.5),
     lambda: recover_tv(IncompleteMatrix([[0.0], [0.0], [2.0]], [[1], [0], [1]]), PATH3, max_iter=0)],
    ids=["huber_zero", "huber_negative", "fractional", "recover_tv_zero"],
)
def test_iteration_counts_below_one_are_rejected(make):
    # a count below one would run no iteration and return the start unchanged
    with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
        make()


@settings(max_examples=60, deadline=None)
@given(p=st.integers(2, 6), alpha=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_gmrf_gradient_matches_central_differences(p, alpha, seed):
    rng = np.random.default_rng(seed)
    edges = _edges(p)
    Z = rng.standard_normal((p, 3 * p))
    s_vec = _edge_form((Z @ Z.T / Z.shape[1]).ravel(), edges.up, edges)
    w = rng.uniform(0.1, 2.0, len(s_vec))
    obj, f = _gmrf_objective(w, s_vec, alpha, edges, p)
    grad = _gmrf_gradient(f, s_vec, alpha, edges)
    h = 1e-5
    fd = np.empty_like(w)
    for k in range(len(w)):
        e = np.zeros_like(w)
        e[k] = h
        up = _gmrf_objective(w + e, s_vec, alpha, edges, p)[0]
        down = _gmrf_objective(w - e, s_vec, alpha, edges, p)[0]
        fd[k] = (up - down) / (2.0 * h)
    assert np.isfinite(obj)
    assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)
