"""Graph-signal recovery under smoothness priors and graph learning.

Recovery interpolates gappy node signals on a known graph (harmonic, ridge
or Huber fidelity, and total-variation flavors). Learning goes the other
way: an undirected Laplacian is estimated from second moments through a
penalized maximum-likelihood objective over nonnegative edge weights, a
directed adjacency from lagged regressions with an l1 penalty, and the joint
routine alternates signal recovery with learning both graphs.
"""
from __future__ import annotations

from collections import deque, namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np
from numpy.typing import NDArray

from .core import IncompleteMatrix

# recover_tv's step balance: b = _TV_BALANCE / sd per column, sd the
# standard deviation of the column's start, so iterates scale with the data
# (a fixed b left fields times 100 16-30% above the optimum after 500
# iterations). Of 4, 5, 7, 10 and 15, 5 came closest in 200 iterations.
_TV_BALANCE = 5.0


@cache
def _lapack():
    """scipy's LAPACK wrappers, imported on first use so that importing gapkit
    does not load scipy, and cached: the GMRF kernels run thousands of times
    per joint fit."""
    from scipy.linalg import lapack

    return lapack


def _laplacian(W: NDArray) -> NDArray:
    """Combinatorial Laplacian diag(W 1) - W."""
    return np.diag(W.sum(axis=1)) - W


# Flat positions in a C-ordered p x p array of the edges (i, j) of
# np.triu_indices(p, 1): upper i*p+j, lower j*p+i, and the endpoints'
# diagonal entries i*(p+1) and j*(p+1).
_Edges = namedtuple("_Edges", "up lo di dj")


def _edges(p: int) -> _Edges:
    iu, ju = np.triu_indices(p, k=1)
    return _Edges(iu * p + ju, ju * p + iu, iu * (p + 1), ju * (p + 1))


def _adjacency(w: NDArray, edges: _Edges, p: int) -> NDArray:
    """Symmetric p x p adjacency with weight w[k] on edge k of _edges(p)."""
    W = np.zeros(p * p)
    W[edges.up] = w
    W[edges.lo] = w
    return W.reshape(p, p)


def _edge_list(W: NDArray):
    """Index arrays and weights of the nonzero upper-triangle edges of W."""
    iu, ju = np.triu_indices(W.shape[0], k=1)
    keep = W[iu, ju] > 0
    return iu[keep], ju[keep], W[iu, ju][keep]


def _edge_form(flat: NDArray, off: NDArray, edges: _Edges) -> NDArray:
    """(e_i - e_j)^T M (e_i - e_j) per edge from M's entries in `flat`, with
    M[i, j] at `off` (edges.up of a C-ordered M.ravel()); tr(L S) is w @ it."""
    return flat[edges.di] + flat[edges.dj] - 2.0 * flat[off]


def _check_alpha(alpha: float) -> None:
    if not 0 <= alpha < np.inf:
        raise ValueError(f"alpha must be nonnegative and finite, got {alpha}")


def _innovations(X: NDArray, A: NDArray) -> NDArray:
    """Lag-one innovations x_t - A x_{t-1}; the first column is its own."""
    E = np.empty_like(X)
    E[:, 0] = X[:, 0]
    E[:, 1:] = X[:, 1:] - A @ X[:, :-1]
    return E


def _check_count(name: str, value, least: int) -> None:
    if not (isinstance(value, (int, np.integer)) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_tol(tol) -> None:
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol!r}")


def _check_reachable(W: NDArray, observed: NDArray) -> None:
    """ValueError unless a path of edges joins each node to an observed node of
    its column: reach |= (W > 0) @ reach to a fixed point from the mask."""
    reach, linked = observed, (W > 0).astype(float)
    while not np.array_equal(grown := reach | (linked @ reach > 0), reach):
        reach = grown
    if not reach.all():
        raise ValueError("missing component disconnected from observed nodes")


class UndirectedGraph:
    """Symmetric nonnegative hollow adjacency with its combinatorial Laplacian."""

    def __init__(self, W: NDArray):
        W = np.asarray(W, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("W must be square")
        if not (np.isfinite(W).all() and W.min() >= 0):
            raise ValueError("W must be finite and nonnegative")
        scale = max(np.abs(W).max(), 1e-300)
        if np.abs(W - W.T).max() > 1e-10 * scale:
            raise ValueError("W must be symmetric")
        if np.abs(np.diag(W)).max() > 0:
            raise ValueError("W must be hollow (zero diagonal)")
        self.W = 0.5 * (W + W.T)
        self.W.setflags(write=False)

    @property
    def p(self) -> int:
        return self.W.shape[0]

    @property
    def L(self) -> NDArray:
        return _laplacian(self.W)

    @classmethod
    def from_edges(cls, p: int, edges) -> "UndirectedGraph":
        """Build from an iterable of (i, j, weight) triples."""
        W = np.zeros((p, p))
        for i, j, w in edges:
            W[int(i), int(j)] = w
            W[int(j), int(i)] = w
        return cls(W)

    def edges(self):
        return list(zip(*_edge_list(self.W)))


@dataclass(frozen=True)
class DirectedGraph:
    """Real adjacency encoding temporal (lag-one) dependencies."""

    A: NDArray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if not np.isfinite(A).all():
            raise ValueError("A must be finite")
        object.__setattr__(self, "A", A)

    def edges(self):
        """(i, j, A[i, j]) for every nonzero entry, row by row."""
        return [(i, j, self.A[i, j]) for i, j in np.argwhere(self.A != 0)]


class SmoothnessKind(Enum):
    TIKHONOV = "tikhonov"
    TV = "tv"
    SPATIO_TEMPORAL = "spatiotemporal"
    DIRECTED_VARIATION = "directed"


class FidelityKind(Enum):
    EXACT = "exact"
    SQUARED = "squared"
    HUBER = "huber"


@dataclass(frozen=True)
class RecoveryConfig:
    fidelity: FidelityKind = FidelityKind.EXACT
    alpha: float = 1.0
    beta: float = 0.0
    delta: float = 1.0
    max_iter: int = 500
    tol: float = 1e-10

    def __post_init__(self):
        if not (0 <= self.alpha < np.inf and 0 <= self.beta < np.inf):
            raise ValueError("alpha and beta must be nonnegative and finite")
        if not 0 < self.delta < np.inf:
            raise ValueError("delta must be positive and finite")
        _check_count("max_iter", self.max_iter, 1)
        _check_tol(self.tol)


def smoothness(X: NDArray, W: NDArray, kind: SmoothnessKind, p_norm: int = 2) -> float:
    """Scalar smoothness criterion of the signal matrix on the graph."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    W = np.asarray(W, dtype=float)
    if kind is SmoothnessKind.TIKHONOV:
        return float(np.sum(X * (_laplacian(W) @ X)))
    if kind is SmoothnessKind.TV:
        iu = np.triu_indices(W.shape[0], k=1)
        diffs = np.abs(X[iu[0]] - X[iu[1]]).sum(axis=1)
        return float(np.sum(W[iu] * diffs))
    if kind is SmoothnessKind.SPATIO_TEMPORAL:
        D = _innovations(X, np.eye(X.shape[0]))
        return float(np.sum(D * (_laplacian(W) @ D)))
    norm_W = np.linalg.norm(W)  # Frobenius
    if norm_W == 0:
        raise ValueError("directed variation needs a nonzero adjacency")
    V = X - (W @ X) / norm_W
    return float(np.sum(np.abs(V) ** p_norm))


def recover_tikhonov(
    Y: IncompleteMatrix, W: NDArray | UndirectedGraph, cfg: RecoveryConfig | None = None
) -> NDArray:
    """Quadratic-smoothness recovery of missing node signals.

    Exact fidelity pins observed entries and solves the harmonic system
    L_mm x_m = -L_mo x_o per column. Squared and Huber fidelities trade the
    residual against alpha * tr(X^T L X) (+ beta * ||X||_F^2), solved by a
    linear system or iteratively reweighted least squares respectively. A
    nonzero beta adds the Frobenius penalty under squared and Huber fidelity;
    exact fidelity does not read it.
    """
    cfg = cfg or RecoveryConfig()
    W = (W if isinstance(W, UndirectedGraph) else UndirectedGraph(W)).W
    L = _laplacian(W)
    out = Y.values.copy()
    if cfg.fidelity is FidelityKind.EXACT:
        from scipy.linalg import cho_factor, cho_solve

        _check_reachable(W, Y.mask == 1)  # so that every L_mm is SPD
        for obs, mis, cols in Y.pattern_groups:
            if len(mis) == 0:
                continue
            L_mm = L[np.ix_(mis, mis)]
            L_mo = L[np.ix_(mis, obs)]
            out[np.ix_(mis, cols)] = cho_solve(cho_factor(L_mm), -L_mo @ Y.values[np.ix_(obs, cols)])
        return out
    base = 2.0 * cfg.alpha * L + 2.0 * cfg.beta * np.eye(Y.p)
    y_full = Y.filled(0.0)
    if cfg.fidelity is FidelityKind.SQUARED:
        for obs, _mis, cols in Y.pattern_groups:
            H = base.copy()
            H[obs, obs] += 2.0
            rhs = 2.0 * y_full[:, cols]
            try:
                out[:, cols] = np.linalg.solve(H, rhs)
            except np.linalg.LinAlgError:
                out[:, cols] = np.linalg.lstsq(H, rhs, rcond=None)[0]
        return out
    # Huber fidelity by IRLS per column, one LAPACK dposv (Cholesky factor and
    # solve) per step. The reweighted system is SPD unless beta = 0 and a graph
    # component carries no data weight; Cholesky then fails and least squares
    # picks the minimum-norm solution.
    dposv = _lapack().dposv
    diag = np.diag_indices(Y.p)
    for j in range(Y.n):
        m = Y.mask[:, j].astype(float)
        x = y_full[:, j].copy()
        for _ in range(cfg.max_iter):
            resid = y_full[:, j] - x
            a = np.abs(resid)
            omega = m * np.where(a <= cfg.delta, 1.0, cfg.delta / np.maximum(a, 1e-300))
            H = base.copy()
            H[diag] += omega
            rhs = omega * y_full[:, j]
            _f, x_new, info = dposv(H, rhs)
            if info > 0:
                x_new = np.linalg.lstsq(H, rhs, rcond=None)[0]
            if np.abs(x_new - x).max() < cfg.tol * (1.0 + np.abs(x).max()):
                x = x_new
                break
            x = x_new
        out[:, j] = x
    return out


def recover_tv(Y: IncompleteMatrix, W: NDArray | UndirectedGraph, max_iter: int = 500) -> NDArray:
    """Total-variation recovery with observed entries held fixed.

    Minimizes sum_e w_e |x_i - x_j| per column by Chambolle & Pock's
    primal-dual method (J. Math. Imaging Vis. 2011) on all columns at once,
    from the observed column means. With D the edge-difference matrix, one
    iteration is xi = clip(xi + s D xbar, -w, w), x = x - t D^T xi with the
    observed rows reset, and xbar = 2 x - x_old: two matmuls. The steps are
    s = b / ||D|| and t = 1 / (b ||D||) (b: see _TV_BALANCE). Each column's
    best iterate is returned (TV minimizers need not be unique). A missing
    node that no path joins to an observed node raises ValueError. The TV
    term has no weight: with the observed entries pinned, one would only
    scale the objective.
    """
    _check_count("max_iter", max_iter, 1)
    W = (W if isinstance(W, UndirectedGraph) else UndirectedGraph(W)).W
    observed = Y.mask == 1
    _check_reachable(W, observed)
    y = Y.filled(0.0)
    x = np.where(observed, y, y.sum(axis=0) / Y.mask.sum(axis=0))
    if observed.all():  # nothing to recover
        return x
    ei, ej, we = _edge_list(W)
    D = np.eye(len(W))[ei] - np.eye(len(W))[ej]  # row e_i - e_j for edge (i, j)
    sd = np.std(x, axis=0)
    b = _TV_BALANCE / np.where(sd > 0, sd, 1.0)
    norm = np.linalg.norm(D, 2)
    s, t = b / norm, 1.0 / (b * norm)
    bound = we[:, None]
    Dx = D @ x
    xi, Dxbar = np.zeros_like(Dx), Dx
    best, best_obj = x, we @ np.abs(Dx)
    for _ in range(max_iter):
        xi = np.clip(xi + s * Dxbar, -bound, bound)
        x = np.where(observed, y, x - t * (D.T @ xi))
        Dx_old, Dx = Dx, D @ x
        Dxbar = 2.0 * Dx - Dx_old
        obj = we @ np.abs(Dx)
        best = np.where(obj < best_obj, x, best)
        best_obj = np.minimum(obj, best_obj)
    return best


# ---------------------------------------------------------------------------
# Graph learning.
# ---------------------------------------------------------------------------


def _gmrf_objective(w, s_vec, alpha, edges, p):
    """tr(L S) - log pdet(L) + alpha ||L||_1,off over edge weights w, with
    s_vec the edge form of S. pdet(L) = det(L + 1 1^T / p) for a connected graph;
    returns the objective and the upper Cholesky factor of that matrix, or
    (inf, None) when it is not numerically positive definite."""
    M = _adjacency(w, edges, p)
    deg = M.sum(axis=1)
    if not np.isfinite(deg).all():
        raise ValueError("edge weights must be finite")
    np.negative(M, out=M)
    M += 1.0 / p
    M.flat[:: p + 1] = deg + 1.0 / p
    # M is symmetric, so its transpose is the same matrix in Fortran order
    # and LAPACK factors it in place
    f, info = _lapack().dpotrf(M.T, clean=0, overwrite_a=1)
    if info > 0:
        return np.inf, None
    # A disconnected graph makes M singular, and rounding can leave its last
    # pivot slightly positive instead of failing the factorization; a pivot
    # at rounding level of the largest diagonal entry counts as singular.
    pivots = f.diagonal()
    if pivots.min() ** 2 <= p * p * np.finfo(float).eps * (deg.max() + 1.0 / p):
        return np.inf, None
    logdet = 2.0 * np.sum(np.log(pivots))
    return float(w @ s_vec - logdet + 2.0 * alpha * w.sum()), f


def _gmrf_gradient(f, s_vec, alpha, edges):
    """Gradient over w of _gmrf_objective, from the factor it returned. The
    inverse comes from dpotri in Fortran order and fills only its upper
    triangle, whose (i, j) entry sits at edges.lo of inv.T.ravel()."""
    inv, _info = _lapack().dpotri(f)
    return s_vec - _edge_form(inv.T.ravel(), edges.lo, edges) + 2.0 * alpha


# gmrf_learn's nonmonotone line search: how many objective values it
# remembers and its sufficient-decrease constant
_NM_MEMORY = 10
_NM_ARMIJO = 1e-4


def _gmrf_solve(S, alpha, w0=None, max_iter=2000, tol=1e-7):
    """gmrf_learn's solver. Returns the edge weights over the pairs of
    np.triu_indices(p, 1), the number of factorizations (objective
    evaluations) and the number of accepted steps."""
    _check_alpha(alpha)
    _check_count("max_iter", max_iter, 0)
    _check_tol(tol)
    S = np.asarray(S, dtype=float)
    if not np.isfinite(S).all():
        raise ValueError("S must be finite, without NaN or inf entries")
    p = S.shape[0]
    if S.shape != (p, p) or np.abs(S - S.T).max() > 1e-8 * max(np.abs(S).max(), 1e-300):
        raise ValueError("S must be a symmetric matrix")
    if np.abs(S).max() == 0:
        raise ValueError("all-zero second-moment matrix")
    k = 2.0 ** -round(np.log2(np.abs(S).max()))  # solve for w / k on k S, k alpha (see gmrf_learn)
    S, alpha = k * S, k * alpha
    edges = _edges(p)
    s_vec = _edge_form(S.ravel(), edges.up, edges)
    w = np.full(len(s_vec), 1.0 / p) if w0 is None else np.maximum(w0, 0.0) / k
    obj, f = _gmrf_objective(w, s_vec, alpha, edges, p)
    factorizations, steps = 1, 0
    if f is None:  # infeasible warm start: restart from the complete graph
        w = np.full(len(s_vec), 1.0 / p)
        obj, f = _gmrf_objective(w, s_vec, alpha, edges, p)
        factorizations += 1
    grad = _gmrf_gradient(f, s_vec, alpha, edges)
    step = 1.0 / max(np.abs(grad).max(), 1.0)
    recent = deque([obj], maxlen=_NM_MEMORY)
    best, best_obj = w, obj
    for _ in range(max_iter):
        # projected-gradient residual: P(w - g) - w = -min(w, g) on w >= 0
        r = np.minimum(w, grad)
        if max(r.max(), -r.min()) <= tol:
            return w * k, factorizations, steps
        d = np.maximum(w - step * grad, 0.0) - w
        bound, slope = max(recent), _NM_ARMIJO * float(grad @ d)
        t = 1.0
        for _bt in range(60):
            w_new = w + t * d
            obj_new, f_new = _gmrf_objective(w_new, s_vec, alpha, edges, p)
            factorizations += 1
            if obj_new <= bound + t * slope:
                break
            t *= 0.5
        else:
            break
        steps += 1
        grad_new = _gmrf_gradient(f_new, s_vec, alpha, edges)
        dw, dg = w_new - w, grad_new - grad
        denom = float(dw @ dg)
        if denom > 1e-300:  # Barzilai-Borwein step, clipped
            step = max(min(float(dw @ dw) / denom, 1e6), 1e-12)
        w, grad = w_new, grad_new
        recent.append(obj_new)
        if obj_new < best_obj:
            best, best_obj = w, obj_new
    return best * k, factorizations, steps


def gmrf_learn(
    S: NDArray,
    alpha: float,
    w0: NDArray | None = None,
    max_iter: int = 2000,
    tol: float = 1e-7,
) -> UndirectedGraph:
    """Penalized Laplacian estimation from a sample second-moment matrix.

    Minimizes tr(L S) - log pdet(L) + alpha * ||L||_1,off over the feasible
    Laplacians by the nonmonotone spectral projected gradient (SPG2) of
    Birgin, Martinez & Raydan (SIAM J. Optim. 2000) on the nonnegative edge
    weights w. Each iteration moves along d = P(w - lam g) - w, with P the
    projection onto w >= 0 and lam the clipped Barzilai-Borwein step, halving
    t until f(w + t d) <= max(last 10 f) + 1e-4 t g^T d. A trial is scored by
    its Cholesky factor alone; the inverse behind the gradient is formed only
    at the start point and at accepted steps. It runs on k S and k alpha, k
    the power of two nearest 1 / max|S|, so no step or test depends on the
    units of S. It stops when the projected-gradient residual max|P(w - g) - w|
    = max|min(w, g)| in those units is at most tol, and returns that iterate
    (a warm start that passes costs one factorization); after max_iter steps,
    or when 60 halvings find no acceptable trial, the best iterate seen.
    Accepted steps end below the largest remembered objective, so the result
    never ends above the objective of a feasible warm start w0.
    """
    w = _gmrf_solve(S, alpha, w0, max_iter, tol)[0]
    p = len(S)
    return UndirectedGraph(_adjacency(w, _edges(p), p))


_CD_MAX_SWEEPS = 10_000
_CD_GAP_TOL = 1e-8


def var_learn(X: NDArray, alpha: float) -> DirectedGraph:
    """Lag-one adjacency by row-separable lasso on consecutive columns.

    Solves min_A sum_t ||x_t - A x_{t-1}||^2 + alpha ||A||_1,1 (alpha = 0
    reduces to least squares) by coordinate descent on the Gram matrix the
    p row lassos share: each sweep updates coordinate k of every unfinished
    row, and a row finishes when its duality gap is below 1e-8 or a sweep
    leaves it unchanged.
    """
    _check_alpha(alpha)
    X = np.asarray(X, dtype=float)
    p, n = X.shape
    if n < 2:
        raise ValueError("need at least two columns")
    B, Y = X[:, :-1], X[:, 1:]  # predictors; row i of Y is the response of lasso i
    if alpha == 0:
        return DirectedGraph(np.linalg.lstsq(B.T, Y.T, rcond=None)[0].T)
    with np.errstate(over="ignore", invalid="ignore"):
        G, C, yty = B @ B.T, Y @ B.T, np.einsum("ij,ij->i", Y, Y)
    if not (np.isfinite(G).all() and np.isfinite(C).all() and np.isfinite(yty).all()):
        raise ArithmeticError(
            f"var_learn at alpha={alpha}: the Gram matrices overflow float64; rescale the signals"
        )
    half, d = alpha / 2.0, np.diag(G)
    A, grad = np.zeros((p, p)), np.zeros((p, p))  # row i of grad is G a_i
    rows = np.arange(p)  # unfinished rows
    for _ in range(_CD_MAX_SWEEPS):
        moved = np.zeros(len(rows), dtype=bool)
        for k in np.flatnonzero(d > 0):
            old = A[rows, k]
            rho = C[rows, k] - grad[rows, k] + d[k] * old
            new = np.sign(rho) * np.maximum(np.abs(rho) - half, 0.0) / d[k]
            hit = new != old
            grad[rows[hit]] += np.outer(new[hit] - old[hit], G[:, k])
            A[rows[hit], k] = new[hit]
            moved |= hit
        R = Y[rows] - A[rows] @ B
        primal = 0.5 * np.einsum("ij,ij->i", R, R) + half * np.abs(A[rows]).sum(axis=1)
        scale = np.minimum(1.0, half / np.maximum(np.abs(R @ B.T).max(axis=1), 1e-300))
        D = Y[rows] - scale[:, None] * R
        dual = 0.5 * yty[rows] - 0.5 * np.einsum("ij,ij->i", D, D)
        rows = rows[(primal - dual >= _CD_GAP_TOL) & moved]
        if len(rows) == 0:
            break
    return DirectedGraph(A)


# ---------------------------------------------------------------------------
# Joint spatio-temporal signal recovery and graph learning.
# ---------------------------------------------------------------------------


@dataclass
class StsrglResult:
    """The joint fit. gmrf_factorizations and gmrf_steps hold one count per
    Laplacian-learner call (iters + 1 of them): its Cholesky factorizations
    and its accepted steps."""

    X: NDArray
    A: DirectedGraph
    L: UndirectedGraph
    objective_trace: NDArray
    gmrf_factorizations: NDArray
    gmrf_steps: NDArray


def _stsrgl_objective(X, A, w, edges, Yz, mask, sigma_n2, alpha_a, alpha_l):
    p, n = X.shape
    resid = np.where(mask == 1, Yz - X, 0.0)
    fid = float(np.sum(resid**2)) / (2.0 * sigma_n2)
    E = _innovations(X, A)
    s_vec = _edge_form((E @ E.T / n).ravel(), edges.up, edges)
    gmrf, _ = _gmrf_objective(w, s_vec, alpha_l, edges, p)
    return fid + 0.5 * n * gmrf + alpha_a * float(np.abs(A).sum())


def _signal_pcg(X, L, A, Dw, B0, iters):
    """`iters` Jacobi-preconditioned CG iterations (Hestenes & Stiefel 1952)
    in place from X on the signal part of the joint objective, 0.5 <X, H X> -
    <B0, X>, with H X = Dw * X + L E - [A^T (L E)[:, 1:], 0] for E =
    _innovations(X, A): three matmuls. H is SPD (connected graph, an observed
    entry per column), and each iterate minimizes the quadratic over an affine
    Krylov space holding the start, so none raises it."""

    def hess(V):
        LE = L @ _innovations(V, A)
        HV = Dw * V + LE
        HV[:, :-1] -= A.T @ LE[:, 1:]
        return HV

    precond = Dw + np.diag(L)[:, None]  # diag(H): no diag(A^T L A) in the last column
    precond[:, :-1] += np.sum(A * (L @ A), axis=0)[:, None]
    R = B0 - hess(X)
    Z = R / precond
    P, rz = Z, np.vdot(R, Z)
    for _ in range(iters):
        if rz == 0.0:  # X is the minimizer
            break
        HP = hess(P)
        step = rz / np.vdot(P, HP)
        X += step * P
        R -= step * HP
        Z = R / precond
        rz, rz_old = np.vdot(R, Z), rz
        P = Z + (rz / rz_old) * P


def stsrgl_fit(
    Y: IncompleteMatrix,
    alpha_a: float = 0.01,
    alpha_l: float = 0.05,
    sigma_n2: float = 0.01,
    iters: int = 10,
    x_sweeps: int = 2,
    a_steps: int = 25,
    gmrf_iters: int = 300,
) -> StsrglResult:
    """Joint recovery of the signal and both graph structures.

    Block-coordinate descent on the noisy-observation MAP objective:
    ``x_sweeps`` preconditioned conjugate-gradient iterations for the signal
    (one quadratic over the whole p x n block, warm-started at the current
    signal; see _signal_pcg), ``a_steps`` proximal-gradient steps for the
    directed adjacency, then the Laplacian learner (at most ``gmrf_iters``
    steps) on the innovation second moments. The first column is treated as
    an innovation itself so every block sees the same objective; it must
    decrease every cycle, and an increase beyond slack aborts with a
    diagnostic.
    """
    if iters < 1 or not (0 < sigma_n2 < np.inf and 0 <= alpha_a < np.inf and 0 <= alpha_l < np.inf):
        raise ValueError(
            "stsrgl_fit needs iters >= 1, sigma_n2 > 0 and nonnegative alpha_a, alpha_l, all finite; "
            f"got {iters}, {sigma_n2}, {alpha_a}, {alpha_l}"
        )
    for name, count in (("x_sweeps", x_sweeps), ("a_steps", a_steps), ("gmrf_iters", gmrf_iters)):
        _check_count(name, count, 0)
    p, n = Y.shape
    if n < 2:
        raise ValueError("need at least two columns")
    col_obs = Y.mask.sum(axis=0)
    if (col_obs == 0).any():
        raise ValueError("every column needs at least one observed entry")
    # Initial fill: harmonic interpolation on the uninformative complete
    # graph, which reduces to each column's observed mean.
    Yz = Y.filled(0.0)
    X = np.where(Y.mask == 1, Yz, Yz.sum(axis=0) / col_obs)
    # per-column data term of the signal solve: diagonal weight and rhs
    Dw = Y.mask / sigma_n2
    B0 = Dw * Yz
    A = np.zeros((p, p))
    edges = _edges(p)

    E = _innovations(X, A)
    w, *counts = _gmrf_solve(E @ E.T / n, alpha_l, max_iter=gmrf_iters)
    learner = [counts]
    trace = [_stsrgl_objective(X, A, w, edges, Yz, Y.mask, sigma_n2, alpha_a, alpha_l)]
    for _cycle in range(iters):
        L = _laplacian(_adjacency(w, edges, p))
        # (a) signal given the graphs
        _signal_pcg(X, L, A, Dw, B0, x_sweeps)
        # (b) directed adjacency: proximal-gradient steps on the weighted fit
        C1 = X[:, 1:] @ X[:, :-1].T
        C0 = X[:, :-1] @ X[:, :-1].T
        step = 1.0 / max(np.linalg.eigvalsh(L)[-1] * np.linalg.eigvalsh(C0)[-1], 1e-12)
        # a Python float product goes to inf without numpy's overflow warning
        thresh = float(step) * float(alpha_a)
        for _ in range(a_steps):  # gradient -L (C1 - A C0), then soft threshold
            A = A + step * (L @ (C1 - A @ C0))
            A = np.sign(A) * np.maximum(np.abs(A) - thresh, 0.0)
        # (c) Laplacian on the innovation second moments (warm start)
        E = _innovations(X, A)
        w, *counts = _gmrf_solve(E @ E.T / n, alpha_l, w0=w, max_iter=gmrf_iters)
        learner.append(counts)
        obj = _stsrgl_objective(X, A, w, edges, Yz, Y.mask, sigma_n2, alpha_a, alpha_l)
        if obj > trace[-1] + 1e-8 * (1.0 + abs(trace[-1])):
            raise RuntimeError(
                f"joint objective increased ({trace[-1]:.6g} -> {obj:.6g}); solver bug"
            )
        trace.append(obj)
    factorizations, steps = np.array(learner).T
    return StsrglResult(
        X, DirectedGraph(A), UndirectedGraph(_adjacency(w, edges, p)), np.array(trace), factorizations, steps
    )
