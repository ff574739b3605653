"""Low-rank matrix completion: fixed-rank hard-impute, which pins observed
entries on every pass, and nuclear-norm soft-impute, which fits them through
its squared-error penalty."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import IncompleteMatrix, _check_count, _check_nonnegative, _check_positive
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


def hard_impute(
    Y: IncompleteMatrix,
    r: int,
    tol: float = 1e-6,
    max_iter: int = 500,
    init: NDArray | None = None,
) -> HardImputeResult:
    """Alternate a rank-r truncated SVD with re-pinning of observed entries.

    Starting from the mean imputation, each pass replaces the missing entries
    with the rank-r SVD reconstruction while observed entries stay equal to
    Y; stops when the relative Frobenius change of the iterate drops below
    tol.
    """
    _check_count("r", r, 1)
    if r > min(Y.p, Y.n):
        raise ValueError(f"rank r={r} must lie in [1, min(p, n)]")
    _check_positive("tol", tol)
    _check_count("max_iter", max_iter, 1)
    obs = Y.mask == 1
    cur = np.array(init, dtype=float) if init is not None else impute_mean(Y)
    if cur.shape != Y.shape:
        raise ValueError("init shape mismatch")
    cur = np.where(obs, Y.filled(0.0), cur)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        U, s, Vt = np.linalg.svd(cur, full_matrices=False)
        Z = (U[:, :r] * s[:r]) @ Vt[:r]
        new = np.where(obs, Y.filled(0.0), Z)
        change = np.linalg.norm(new - cur) / max(np.linalg.norm(cur), 1e-300)
        cur = new
        if change < tol:
            converged = True
            break
    return HardImputeResult(cur, it, converged)


def soft_impute(
    Y: IncompleteMatrix,
    lam: float,
    tol: float = 1e-6,
    max_iter: int = 500,
    init: NDArray | None = None,
) -> SoftImputeResult:
    """Proximal iteration for the nuclear-norm completion objective.

    Each pass soft-thresholds the singular values of the observed-pinned
    matrix by lam; the objective 0.5 * ||M o (X - Y)||_F^2 + lam * ||X||_* is
    recorded at every iterate and is nonincreasing. The returned X is the
    shrunk iterate, so observed entries are fitted through the penalty and
    move off Y, not pinned.
    """
    _check_nonnegative("lam", lam)
    _check_positive("tol", tol)
    _check_count("max_iter", max_iter, 1)
    obs = Y.mask == 1
    Yobs = Y.filled(0.0)
    Z = np.array(init, dtype=float) if init is not None else impute_mean(Y)
    if Z.shape != Y.shape:
        raise ValueError("init shape mismatch")
    trace = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        pinned = np.where(obs, Yobs, Z)
        U, s, Vt = np.linalg.svd(pinned, full_matrices=False)
        s_shrunk = np.maximum(s - lam, 0.0)
        Z_new = (U * s_shrunk) @ Vt
        trace.append(
            0.5 * float(np.sum((Z_new[obs] - Yobs[obs]) ** 2)) + lam * s_shrunk.sum()
        )
        change = np.linalg.norm(Z_new - Z) / max(np.linalg.norm(Z), 1e-300)
        Z = Z_new
        if change < tol:
            converged = True
            break
    tiny = 1e-12 * max(float(s[0]) if len(s) else 0.0, 1.0)
    rank = int(np.sum(s_shrunk > tiny))
    return SoftImputeResult(Z, rank, np.array(trace), it, converged)
