"""Baseline and model-based imputers plus multiple-imputation wrapping."""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from numpy.typing import NDArray

from .core import IncompleteMatrix, SeedSpec, _check_count, _check_nonnegative, _check_positive
from .em import GaussianParams, _completed, _condition_all, em_gaussian_fit

DIVERGENCE_CAP = 1e8


class ImputerKind(Enum):
    MEAN = "mean"
    KNN = "knn"
    CONDITIONAL_GAUSSIAN = "condgauss"
    ITERATIVE = "iterative"


@dataclass
class ImputerSpec:
    """Imputer selection plus its parameters.

    Stochastic modes (conditional Gaussian or iterative with add_noise) are
    the ones eligible for multiple imputation.
    """

    kind: ImputerKind
    k: int = 5
    add_noise: bool = False
    ridge_penalty: float = 1e-3
    max_sweeps: int = 50
    tol: float = 1e-6
    params: GaussianParams | None = None  # optional fixed model for condgauss

    def __post_init__(self):
        _check_count("k", self.k, 1)
        _check_nonnegative("ridge_penalty", self.ridge_penalty)
        _check_count("max_sweeps", self.max_sweeps, 1)
        _check_positive("tol", self.tol)

    @property
    def is_stochastic(self) -> bool:
        return self.add_noise and self.kind in (
            ImputerKind.CONDITIONAL_GAUSSIAN,
            ImputerKind.ITERATIVE,
        )


def impute_mean(X: IncompleteMatrix) -> NDArray:
    """Replace each missing entry by its row's observed mean."""
    n_obs = X.mask.sum(axis=1)
    if (n_obs == 0).any():
        rows = np.flatnonzero(n_obs == 0)
        raise ValueError(f"fully missing row(s): {rows.tolist()}")
    row_means = X.row_means()
    out = X.values.copy()
    holes = X.mask == 0
    out[holes] = np.broadcast_to(row_means[:, None], X.shape)[holes]
    return out


def _knn_distance_matrix(X: IncompleteMatrix):
    """D[j, l] = sqrt(p / |S| * sum_{i in S} (X[i,j] - X[i,l])^2) with S the
    rows observed in both columns j and l; +inf where S is empty."""
    M = X.mask.astype(float)
    V = X.filled(0.0)
    co = M.T @ M
    sq = (V * V).T @ M
    d2 = sq + sq.T - 2.0 * (V.T @ V)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sqrt(np.maximum(X.p * d2 / co, 0.0))
    out[co == 0] = np.inf
    return out


def impute_knn(X: IncompleteMatrix, k: int) -> NDArray:
    """Fill each hole with the mean over the k nearest donor columns.

    Donors for entry (i, j) are columns that observe row i and share at least
    one co-observed row with column j; ties in distance go to the smaller
    column index, so the result is deterministic.
    """
    _check_count("k", k, 1)
    dist = _knn_distance_matrix(X)
    out = X.values.copy()
    for i, j in zip(*np.nonzero(X.mask == 0)):
        cand = np.flatnonzero((X.mask[i] == 1) & np.isfinite(dist[j]))
        cand = cand[cand != j]
        if len(cand) == 0:
            raise ValueError(f"no eligible donor column for entry ({i}, {j})")
        ranked = cand[np.lexsort((cand, dist[j, cand]))]
        donors = ranked[: min(k, len(ranked))]
        out[i, j] = X.values[i, donors].mean()
    return out


def impute_conditional_gaussian(
    X: IncompleteMatrix,
    params: GaussianParams,
    add_noise: bool = False,
    seed: SeedSpec = SeedSpec(0),
) -> NDArray:
    """Fill holes with the Gaussian conditional mean, or a conditional draw."""
    return _completed(X, _condition_all(params.mu, params.sigma, X), seed.rng() if add_noise else None)


@dataclass
class IterativeResult:
    X: NDArray
    sweeps: int
    changes: NDArray
    converged: bool


def impute_iterative(
    X: IncompleteMatrix,
    spec: ImputerSpec | None = None,
    seed: SeedSpec = SeedSpec(0),
) -> IterativeResult:
    """Chained ridge imputation: sweep rows, regress each on the others.

    Starts from the mean imputation; each sweep refits a ridge regression of
    every gappy row on all other rows (over the columns where that row is
    observed) and re-imputes its holes. Stops when the largest entry change
    in a sweep falls below spec.tol.
    """
    spec = spec or ImputerSpec(ImputerKind.ITERATIVE)
    rng = seed.rng()
    cur = impute_mean(X)
    holes = X.mask == 0
    if not holes.any():
        return IterativeResult(cur, 0, np.empty(0), True)
    gappy_rows = np.flatnonzero(holes.any(axis=1))
    changes = []
    for sweeps in range(1, spec.max_sweeps + 1):
        prev = cur.copy()
        for i in gappy_rows:
            fit_cols = X.mask[i] == 1
            if not fit_cols.any():
                continue
            others = np.delete(np.arange(X.p), i)
            A = cur[np.ix_(others, np.flatnonzero(fit_cols))].T
            y = X.values[i, fit_cols]
            beta, intercept, resid_var = _ridge_fit(A, y, spec.ridge_penalty)
            pred_cols = np.flatnonzero(holes[i])
            Ap = cur[np.ix_(others, pred_cols)].T
            pred = Ap @ beta + intercept
            if spec.add_noise and resid_var > 0:
                pred = pred + rng.standard_normal(len(pred)) * np.sqrt(resid_var)
            cur[i, pred_cols] = pred
        if np.abs(cur[holes]).max() > DIVERGENCE_CAP:
            raise RuntimeError("iterative imputation diverged (|value| > 1e8)")
        change = float(np.abs(cur - prev).max())
        changes.append(change)
        if change < spec.tol:
            break
    return IterativeResult(cur, sweeps, np.array(changes), changes[-1] < spec.tol)


def _ridge_fit(A, y, penalty):
    """Centered ridge with unpenalized intercept; lam scales with the Gram trace."""
    a_mean = A.mean(axis=0)
    y_mean = y.mean()
    Ac = A - a_mean
    yc = y - y_mean
    G = Ac.T @ Ac
    d = G.shape[0]
    lam = penalty * max(np.trace(G), 1e-12) / max(d, 1)
    beta = np.linalg.solve(G + lam * np.eye(d), Ac.T @ yc)
    resid = yc - Ac @ beta
    resid_var = float(resid @ resid) / max(len(y), 1)
    return beta, y_mean - a_mean @ beta, resid_var


def run_imputer(X: IncompleteMatrix, spec: ImputerSpec, seed: SeedSpec) -> NDArray:
    """Dispatch one imputation according to spec."""
    if spec.kind is ImputerKind.MEAN:
        return impute_mean(X)
    if spec.kind is ImputerKind.KNN:
        return impute_knn(X, spec.k)
    if spec.kind is ImputerKind.CONDITIONAL_GAUSSIAN:
        params = spec.params if spec.params is not None else em_gaussian_fit(X).params
        return impute_conditional_gaussian(X, params, spec.add_noise, seed)
    return impute_iterative(X, spec, seed).X


def multiple_impute(
    X: IncompleteMatrix, base: ImputerSpec, K: int, seed: SeedSpec = SeedSpec(0)
) -> list[NDArray]:
    """K independent stochastic completions on seed substreams 1..K.

    A conditional-Gaussian spec without params fits its model once, by exact
    EM, and every draw conditions on that fit.
    """
    _check_count("K", K, 1)
    if not base.is_stochastic:
        raise ValueError("multiple imputation requires stochasticity")
    if base.kind is ImputerKind.CONDITIONAL_GAUSSIAN and base.params is None:
        base = replace(base, params=em_gaussian_fit(X).params)
    return [run_imputer(X, base, seed.substream(d + 1)) for d in range(K)]
