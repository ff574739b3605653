"""Low-rank matrix completion: fixed-rank hard-impute, which pins observed
entries on every pass, and nuclear-norm soft-impute, which fits them through
its squared-error penalty. Both filter singular values through one Gram-matrix
kernel and run on Y scaled by a power of two to unit size, which is exact."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import IncompleteMatrix, _check_count, _check_nonnegative, _check_positive, _unit_scale
from .imputation import impute_mean


@dataclass
class HardImputeResult:
    X: NDArray
    iters: int
    converged: bool


@dataclass
class SoftImputeResult:
    X: NDArray
    rank: int
    objective_trace: NDArray
    iters: int
    converged: bool


def _spectral_filter(A: NDArray, lam: float = 0.0, r: int | None = None) -> tuple[NDArray, NDArray]:
    """Soft-threshold A's singular values by lam or, given r, keep the top r:
    A V_k diag((s_k - lam) / s_k) V_k^T over the kept k, s = sqrt(max(ev, 0))
    and V from np.linalg.eigh of the smaller side's Gram matrix (no U, no SVD).
    Also returns the result's singular values as column norms, which stay
    accurate where sqrt(ev) does not (near zero)."""
    if A.shape[0] < A.shape[1]:
        Z, sz = _spectral_filter(A.T, lam, r)
        return Z.T, sz
    ev, V = np.linalg.eigh(A.T @ A)  # ascending
    s = np.sqrt(np.maximum(ev, 0.0))
    first = len(s) - r if r is not None else int(np.searchsorted(s, lam, side="right"))
    V, s = V[:, first:], s[first:]
    AV = A @ V
    if r is None:
        AV *= (s - lam) / s
    return AV @ V.T, np.linalg.norm(AV, axis=0)


def _unit_scaled(Y: IncompleteMatrix, init: NDArray | None):
    """The observed mask, Y with zeros in its holes, the start (init or the
    mean imputation) and the power of two k nearest 1 / max|Y_obs|."""
    Yobs = Y.filled(0.0)
    start = np.array(init, dtype=float) if init is not None else impute_mean(Y)
    if start.shape != Y.shape:
        raise ValueError("init shape mismatch")
    return Y.mask == 1, Yobs, start, _unit_scale(np.abs(Yobs).max())


def hard_impute(
    Y: IncompleteMatrix, r: int, tol: float = 1e-6, max_iter: int = 500, init: NDArray | None = None
) -> HardImputeResult:
    """Alternate a rank-r truncation with re-pinning of observed entries.

    Starting from the mean imputation, each pass replaces the missing entries
    with the rank-r reconstruction of `_spectral_filter` while observed
    entries stay equal to Y; stops when the relative Frobenius change of the
    iterate drops below tol.
    """
    _check_count("r", r, 1)
    if r > min(Y.p, Y.n):
        raise ValueError(f"rank r={r} must lie in [1, min(p, n)]")
    _check_positive("tol", tol)
    _check_count("max_iter", max_iter, 1)
    obs, Yobs, start, k = _unit_scaled(Y, init)
    Yk = k * Yobs
    cur = np.where(obs, Yk, k * start)
    for it in range(1, max_iter + 1):
        new = np.where(obs, Yk, _spectral_filter(cur, r=r)[0])
        change = np.linalg.norm(new - cur) / max(np.linalg.norm(cur), 1e-300)
        cur = new
        if change < tol:
            break
    return HardImputeResult(np.where(obs, Yobs, cur / k), it, bool(change < tol))


def soft_impute(
    Y: IncompleteMatrix, lam: float, tol: float = 1e-6, max_iter: int = 500, init: NDArray | None = None
) -> SoftImputeResult:
    """Proximal iteration for the nuclear-norm completion objective.

    Each pass soft-thresholds the singular values of the observed-pinned
    matrix by lam; the objective 0.5 * ||M o (X - Y)||_F^2 + lam * ||X||_* is
    recorded at every iterate and is nonincreasing. The returned X is the
    shrunk iterate, so observed entries are fitted through the penalty and
    move off Y, not pinned. `rank` counts X's singular values above 1e-12 x its largest.
    """
    _check_nonnegative("lam", lam)
    _check_positive("tol", tol)
    _check_count("max_iter", max_iter, 1)
    obs, Yobs, start, k = _unit_scaled(Y, init)
    Yk, Z, lam_k = k * Yobs, k * start, k * lam
    y = Yk[obs]
    trace = []
    for it in range(1, max_iter + 1):
        Z_new, sz = _spectral_filter(np.where(obs, Yk, Z), lam_k)
        # rescaled to Y's units in Python floats, which leave the float range without a warning
        trace.append(0.5 * float(np.sum((Z_new[obs] - y) ** 2)) / k / k + lam * float(sz.sum()) / k)
        change = np.linalg.norm(Z_new - Z) / max(np.linalg.norm(Z), 1e-300)
        Z = Z_new
        if change < tol:
            break
    rank = int(np.sum(sz > 1e-12 * sz.max(initial=0.0)))
    return SoftImputeResult(Z / k, rank, np.array(trace), it, bool(change < tol))
