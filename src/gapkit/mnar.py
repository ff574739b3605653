"""Joint estimation of data and mechanism parameters under self-masked MNAR.

The selection model factorizes each entry as f(x | theta) * f(m | x, phi)
with an entrywise-independent Gaussian data model (per-row mean and scale)
and a logistic observation probability h(x; phi) = sigmoid(phi1 * x + phi0).
A stochastic EM alternates tilted-conditional draws of the missing entries
with closed-form theta updates and a Newton logistic fit for phi.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import IncompleteMatrix, SeedSpec
from .mechanisms import _sigmoid

REJECTION_BUDGET = 10_000
GRID_POINTS = 64


@dataclass
class SelectionParams:
    """Per-row Gaussian data parameters of the selection model."""

    mu: NDArray
    sigma: NDArray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float).reshape(-1)
        self.sigma = np.asarray(self.sigma, dtype=float).reshape(-1)
        if len(self.mu) != len(self.sigma):
            raise ValueError("mu and sigma must have equal length")
        if (self.sigma <= 0).any():
            raise ValueError("sigma entries must be positive")


def _sample_tilted_batch(mu, sigma, phi, size, rng):
    """Draws from the density proportional to N(mu, sigma^2) * (1 - h(x; phi)).

    Rejection with the Gaussian proposal and acceptance 1 - h (valid since
    1 - h <= 1); entries still open after the retry budget fall back to a
    64-point grid inverse-CDF sampler.
    """
    phi0, phi1 = phi
    out = np.empty(size)
    open_idx = np.arange(size)
    for _ in range(REJECTION_BUDGET):  # per-entry retry cap
        if len(open_idx) == 0:
            return out
        prop = mu + sigma * rng.standard_normal(len(open_idx))
        accept = rng.random(len(open_idx)) < 1.0 - _sigmoid(phi1 * prop + phi0)
        out[open_idx[accept]] = prop[accept]
        open_idx = open_idx[~accept]
    if len(open_idx) > 0:
        xs = mu + sigma * np.linspace(-6.0, 6.0, GRID_POINTS)
        logw = -0.5 * ((xs - mu) / max(sigma, 1e-300)) ** 2 + np.log(
            np.maximum(1.0 - _sigmoid(phi1 * xs + phi0), 1e-300)
        )
        w = np.exp(logw - logw.max())
        total = w.sum()
        if not np.isfinite(total) or total <= 0:
            raise RuntimeError(
                "tilted-Gaussian sampler failed: zero mass after rejection budget"
            )
        cdf = np.cumsum(w) / total
        u = rng.random(len(open_idx))
        out[open_idx] = np.interp(u, cdf, xs)
    return out


def sample_missing_entry(theta_row, phi, seed: SeedSpec = SeedSpec(0)) -> float:
    """One draw of a missing entry given its row parameters and the mechanism.

    theta_row is (mu_i, sigma_i); the target is the Gaussian tilted by the
    probability of being missing, f(x | M = 0) on that row.
    """
    mu, sigma = float(theta_row[0]), float(theta_row[1])
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return float(_sample_tilted_batch(mu, sigma, phi, 1, seed.rng())[0])


def _logistic_newton(x, y, phi0, phi1, max_iter=50, tol=1e-10):
    """Newton fit of P(y=1) = sigmoid(phi1 * x + phi0); None when it fails."""
    beta = np.array([phi0, phi1], dtype=float)
    Z = np.column_stack([np.ones_like(x), x])
    for _ in range(max_iter):
        eta = Z @ beta
        p = _sigmoid(eta)
        grad = Z.T @ (y - p)
        w = np.maximum(p * (1.0 - p), 1e-12)
        H = (Z * w[:, None]).T @ Z
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            return None
        beta = beta + step
        if not np.all(np.isfinite(beta)) or np.abs(beta).max() > 1e6:
            return None
        if np.abs(step).max() < tol:
            break
    return beta


@dataclass
class SemSelectionResult:
    theta: SelectionParams
    phi: NDArray
    mu_chain: NDArray
    sigma_chain: NDArray
    phi_chain: NDArray
    separation_warnings: int


def sem_selection_fit(
    X: IncompleteMatrix,
    init_theta: SelectionParams | None = None,
    init_phi=(0.0, 0.0),
    iters: int = 200,
    burn_in: int = 50,
    seed: SeedSpec = SeedSpec(0),
    estimate_phi: bool = True,
) -> SemSelectionResult:
    """Stochastic EM for the self-masked selection model.

    Each iteration (a) redraws every missing entry from the tilted
    conditional at the current parameters, (b) re-estimates each row's mean
    and scale from its completed values, and (c) refits the logistic
    mechanism on the mask-versus-completed-value pairs by Newton steps.
    The returned estimates are post-burn-in chain averages; iterations where
    the logistic fit separates (or diverges) keep the previous phi and bump
    the warning counter.

    The likelihood is flat in the slope direction at phi1 = 0, so a
    zero-slope start cannot move and a near-zero truth makes the slope chain
    wander; start from a sign-informed slope when estimating, or pass
    estimate_phi=False to hold the mechanism at init_phi (the chain then
    reduces to stochastic Gaussian EM under that fixed mechanism).
    """
    if iters <= burn_in:
        raise ValueError("iters must exceed burn_in")
    if not np.isfinite(init_phi).all():
        raise ValueError(f"init_phi must be finite, got {init_phi}")
    if (X.mask.sum(axis=1) < 2).any():
        raise ValueError("every row needs at least two observed entries")
    p, n = X.shape
    if init_theta is None:
        obs_counts = X.mask.sum(axis=1)
        mu0 = X.filled(0.0).sum(axis=1) / obs_counts
        dev = np.where(X.mask == 1, X.filled(0.0) - mu0[:, None], 0.0)
        sig0 = np.sqrt(np.maximum((dev**2).sum(axis=1) / obs_counts, 1e-12))
        init_theta = SelectionParams(mu0, sig0)
    theta = SelectionParams(init_theta.mu.copy(), init_theta.sigma.copy())
    phi = np.asarray(init_phi, dtype=float).copy()
    rng = seed.rng()
    Xc = X.filled(0.0)
    holes = [np.flatnonzero(X.mask[i] == 0) for i in range(p)]
    mask_flat = X.mask.reshape(-1).astype(float)
    mu_chain = np.empty((iters, p))
    sigma_chain = np.empty((iters, p))
    phi_chain = np.empty((iters, 2))
    warnings = 0
    for it in range(iters):
        for i in range(p):
            if len(holes[i]) == 0:
                continue
            Xc[i, holes[i]] = _sample_tilted_batch(
                theta.mu[i], theta.sigma[i], phi, len(holes[i]), rng
            )
        mu = Xc.mean(axis=1)
        sigma = np.sqrt(np.maximum(Xc.var(axis=1), 1e-12))
        theta = SelectionParams(mu, sigma)
        if estimate_phi:
            if mask_flat.min() == mask_flat.max():
                warnings += 1
            else:
                beta = _logistic_newton(Xc.reshape(-1), mask_flat, phi[0], phi[1])
                if beta is None:
                    warnings += 1
                else:
                    phi = beta
        mu_chain[it] = mu
        sigma_chain[it] = sigma
        phi_chain[it] = phi
    theta_hat = SelectionParams(
        mu_chain[burn_in:].mean(axis=0), sigma_chain[burn_in:].mean(axis=0)
    )
    phi_hat = phi_chain[burn_in:].mean(axis=0)
    return SemSelectionResult(
        theta_hat, phi_hat, mu_chain, sigma_chain, phi_chain, warnings
    )
