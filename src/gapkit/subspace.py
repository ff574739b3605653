"""Streaming subspace tracking with missing entries.

The plain tracker keeps one recursive-least-squares precision matrix per row
of the subspace basis and performs second-order row updates with exponential
forgetting. The robust variant first splits each observation into a subspace
component and a sparse outlier vector, then updates the basis only on the
rows the outlier stage left clean.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .core import SeedSpec, _check_count, _check_nonnegative, _check_positive

PRECISION_INIT = 1e3
CONDITION_CAP = 1e12
OUTLIER_SUPPORT_TOL = 1e-10


@dataclass
class TrackerState:
    U: NDArray
    row_prec: NDArray  # (p, r, r) inverse correlation matrices
    lambda_forget: float
    t: int = 0
    reinit_count: int = 0
    stage1_iters: int = 0  # robust steps: stage-1 iterations run in total
    stage1_unconverged: int = 0  # robust steps whose stage 1 hit admm_iters

    @property
    def p(self) -> int:
        return self.U.shape[0]

    @property
    def r(self) -> int:
        return self.U.shape[1]


@dataclass(frozen=True)
class RobustConfig:
    rho: float = 1.0
    admm_iters: int = 50
    admm_tol: float = 1e-6
    alpha_reg: float = 0.0

    def __post_init__(self):
        _check_positive("rho", self.rho)
        _check_nonnegative("alpha_reg", self.alpha_reg)
        _check_count("admm_iters", self.admm_iters, 1)
        _check_positive("admm_tol", self.admm_tol)


@dataclass
class Stage1Result:
    w: NDArray
    s: NDArray
    converged: bool
    objective_trace: NDArray


def petrels_init(
    p: int, r: int, seed: SeedSpec = SeedSpec(0), lambda_forget: float = 0.98
) -> TrackerState:
    """Random orthonormal basis plus warm-start RLS precisions."""
    _check_count("p", p, 1)
    _check_count("r", r, 1)
    if r > p:
        raise ValueError(f"need r <= p, got r={r}, p={p}")
    if not 0.0 < lambda_forget <= 1.0:
        raise ValueError("lambda_forget must lie in (0, 1]")
    rng = seed.rng()
    U, _ = np.linalg.qr(rng.standard_normal((p, r)))
    row_prec = np.tile(PRECISION_INIT * np.eye(r), (p, 1, 1))
    return TrackerState(U, row_prec, lambda_forget)


def petrels_weights(U: NDArray, y_t: NDArray, m_t: NDArray):
    """Least-squares weights on the observed rows; (w, underdetermined flag).

    Returns the minimum-norm solution when the observed system is rank
    deficient (including the all-masked case, which gives w = 0).
    """
    obs = (np.asarray(m_t) == 1).nonzero()[0]
    r = U.shape[1]
    if len(obs) == 0:
        return np.zeros(r), True
    w, _res, rank, _sv = np.linalg.lstsq(U.take(obs, axis=0), np.asarray(y_t, float)[obs], rcond=None)
    return w, bool(rank < r)


def _rls_row_updates(state, obs, y_t, w, weight=1.0):
    """Weighted forgetting-RLS update of the observed rows of U.

    Precision recursion R_i <- lam * R_i + weight * w w^T applied in inverse
    form; the k products R_i^-1 w are one (k r, r) @ (r,) GEMV, bit-equal to
    the stacked (k, r, r) @ (r,) matmul at half its cost. The rows that
    _rows_to_reset flags are reset to the warm start and counted.
    """
    lam, k, r = state.lambda_forget, len(obs), state.r
    Rinv = state.row_prec.take(obs, axis=0)
    v = (Rinv.reshape(k * r, r) @ w).reshape(k, r)
    denom = lam + weight * (v @ w)  # (k,)
    # The outer product is formed before the weight multiplies it: Rinv_new stays exactly symmetric.
    Rinv_new = (Rinv - v[:, :, None] * v[:, None, :] * weight / denom[:, None, None]) / lam
    U_o = state.U.take(obs, axis=0)
    resid = y_t[obs] - U_o @ w
    state.U[obs] = U_o + weight * resid[:, None] * (Rinv_new.reshape(k * r, r) @ w).reshape(k, r)
    reset = _rows_to_reset(Rinv_new)
    if n_reset := np.count_nonzero(reset):
        Rinv_new[reset] = PRECISION_INIT * np.eye(r)
        state.reinit_count += n_reset
    state.row_prec[obs] = Rinv_new
    state.t += 1
    return state


def _rows_to_reset(R):
    """Mask of the rows of a symmetric (k, r, r) stack that the RLS step resets.

    A row is kept only if every Cholesky pivot of R - (tr R / CONDITION_CAP) I
    is positive, that is if lam_min(R) > tr R / CAP; a NaN or inf entry leaves
    a NaN or -inf pivot. The pivots are Schur complements, unrolled over r.
    """
    S = R.transpose(1, 2, 0)  # (r, r, k): each entry is a vector over the rows
    tau = S.diagonal().sum(-1) / CONDITION_CAP
    with np.errstate(all="ignore"):  # a failed pivot may divide by zero or meet inf - inf
        d = S[0, 0] - tau
        keep = d > 0
        for _ in range(1, len(S)):
            S = S[1:, 1:] - S[1:, :1] / d * S[:1, 1:]
            d = S[0, 0] - tau
            keep &= d > 0
    return ~keep


def petrels_update(state: TrackerState, y_t: NDArray, m_t: NDArray) -> TrackerState:
    """One tracking step: project on observed rows, then update those rows."""
    y_t = np.asarray(y_t, dtype=float)
    obs = (np.asarray(m_t) == 1).nonzero()[0]
    if len(obs) == 0:
        state.t += 1
        return state
    # petrels_weights' least squares, on the index computed once here.
    w = np.linalg.lstsq(state.U.take(obs, axis=0), y_t[obs], rcond=None)[0]
    return _rls_row_updates(state, obs, y_t, w)


def _pinv(A):
    """``np.linalg.pinv(A)`` at its default cutoff, without the wrapper.

    The same SVD, cutoff (1e-15 times the largest singular value) and
    products as numpy's own, so the result is bit-identical to it. LAPACK
    returns the singular values in descending order, so s[0] is their max.
    """
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    large = s > 1e-15 * s[0]
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    return vt.T @ (s[:, None] * u.T)


def _stage1(A, y_o, cfg, iterates=None):
    """robust_stage1's loop on the observed rows A = U[obs], y_o = y_t[obs].

    Returns (w, s_o, iterations run, converged). When ``iterates`` is a list,
    each iteration's clipped residual and outlier vector are appended to it.
    """
    pinv = _pinv(A)
    s_o = np.zeros(len(y_o))
    half, neg_half, tol = cfg.rho / 2.0, -cfg.rho / 2.0, cfg.admm_tol
    minimum, maximum, absolute, max_of = np.minimum, np.maximum, np.absolute, np.maximum.reduce
    converged = False
    for iters in range(1, cfg.admm_iters + 1):
        w = pinv @ (y_o - s_o)
        resid = y_o - A @ w
        # Soft-thresholding as resid minus its clipped part: the clipped part
        # is the fit residual A w + s_new - y_o up to sign, so the objective
        # needs no further matrix product.
        inner = minimum(maximum(resid, neg_half), half)
        s_new = resid - inner
        if iterates is not None:
            iterates.append((inner, s_new))
        delta = max_of(absolute(s_new - s_o))
        s_o = s_new
        if delta < tol:
            converged = True
            break
    return pinv @ (y_o - s_o), s_o, iters, converged


def robust_stage1(U: NDArray, y_t: NDArray, m_t: NDArray, cfg: RobustConfig) -> Stage1Result:
    """Alternating minimization of the outlier-plus-weights objective.

    Minimizes ||m o (U w + s - y)||^2 + rho * ||s||_1 by exact block updates:
    least squares in w given s, entrywise soft-thresholding at rho / 2 in s
    given w. The objective is nonincreasing across iterations. The loop is
    not ADMM; the ``admm_iters`` / ``admm_tol`` config names are kept for
    compatibility.

    The objective trace is taken once after the loop, from the stacked
    per-iteration clipped residuals and outliers; it equals the
    per-iteration formula up to rounding (relative 1e-12). The tracking step
    runs the same loop without forming the trace or the length-p ``s``.
    """
    y_t = np.asarray(y_t, dtype=float)
    obs = np.flatnonzero(np.asarray(m_t) == 1)
    s = np.zeros(U.shape[0])
    if len(obs) == 0:
        return Stage1Result(np.zeros(U.shape[1]), s, True, np.zeros(1))
    iterates = []
    w, s[obs], _iters, converged = _stage1(U[obs], y_t[obs], cfg, iterates)
    inners, outliers = np.array(iterates).transpose(1, 0, 2)
    trace = (inners * inners).sum(axis=1) + cfg.rho * np.absolute(outliers).sum(axis=1)
    return Stage1Result(w, s, converged, trace)


def robust_update(
    state: TrackerState, y_t: NDArray, m_t: NDArray, cfg: RobustConfig
) -> TrackerState:
    """Outlier-aware tracking step.

    Rows flagged by the sparse stage are removed from the mask; the remaining
    rows are updated with the per-step weight (observed fraction of the
    cleaned mask), and the row-norm penalty on U is applied as a clipping of
    the largest rows toward a common bound.
    """
    y_t = np.asarray(y_t, dtype=float)
    obs = (np.asarray(m_t) == 1).nonzero()[0]
    if len(obs):  # an all-masked step runs no stage-1 iteration
        w, s_o, iters, converged = _stage1(state.U.take(obs, axis=0), y_t[obs], cfg)
        state.stage1_iters += iters
        state.stage1_unconverged += not converged
        obs = obs[np.abs(s_o) <= OUTLIER_SUPPORT_TOL]
    if len(obs) == 0:
        state.t += 1
        return state
    state = _rls_row_updates(state, obs, y_t, w, weight=len(obs) / state.p)
    if cfg.alpha_reg > 0:
        _clip_row_norms(state.U, cfg.alpha_reg / max(state.t, 1))
    return state


def _clip_row_norms(U, penalty):
    """Shrink the largest row norms to the bound solving the squared-max prox.

    The bound B minimizes 0.5 * sum_clipped (g_i - B)^2 + penalty / 2 * B^2
    over which rows are clipped, found by the usual water-filling scan over
    descending row norms g.
    """
    g = np.linalg.norm(U, axis=1)
    gs = -np.sort(-g)
    # b[k-1] clips the k largest rows; the scan stops at the first k whose
    # bound reaches the next row norm, or at the last row
    b = np.cumsum(gs) / (penalty + np.arange(1, len(gs) + 1))
    bound = b[np.argmax(np.append(b[:-1] >= gs[1:], True))]
    over = g > bound
    U[over] *= (bound / np.maximum(g[over], 1e-300))[:, None]
