"""Joint estimation of data and mechanism parameters under self-masked MNAR.

The selection model factorizes each entry as f(x | theta) * f(m | x, phi)
with an entrywise-independent Gaussian data model (per-row mean and scale)
and a logistic observation probability h(x; phi) = sigmoid(phi1 * x + phi0).
A stochastic EM alternates tilted-conditional draws of the missing entries
with closed-form theta updates and a Newton logistic fit for phi.

Each iteration draws every row's missing entries in one exact rejection
batch, sized from each row's running acceptance rate so that one round
almost always suffices; a row may spend REJECTION_BUDGET proposals per
missing entry before its open entries fall back to a grid inverse CDF.
The Newton step for the two logistic parameters is solved in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import IncompleteMatrix, SeedSpec, _check_count, _check_finite, _check_rows
from .mechanisms import _sigmoid

REJECTION_BUDGET = 10_000  # proposals per requested entry before the grid fallback
GRID_POINTS = 64
MAX_BATCH = 1 << 18  # proposals per rejection round: a collapsed rate costs rounds, not memory
_BATCH_FACTOR, _BATCH_SLACK = 1.15, 8


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
        _check_finite("mu", self.mu)
        _check_finite("sigma", self.sigma)
        if (self.sigma <= 0).any():
            raise ValueError("sigma entries must be positive")


@dataclass
class _SamplerState:
    """What one fit's sampler carries between calls: each segment's running
    acceptance rate, the rejection rounds run and the grid-fallback draws."""

    rate: NDArray
    rounds: int = 0
    fallbacks: int = 0


def _sample_tilted_batch(mu, sigma, phi, need, rng, state=None):
    """Draws from the density proportional to N(mu, sigma^2) * (1 - h(x; phi)).

    mu, sigma and need are scalars (one segment) or equal-length arrays, one
    entry per segment; the result holds need[0] draws at (mu[0], sigma[0]),
    then need[1] draws at (mu[1], sigma[1]), and so on.

    Rejection with the Gaussian proposal and acceptance 1 - h (valid since
    1 - h <= 1). Each round draws ceil(1.15 * open / rate) + 8 i.i.d.
    proposals for every segment with open entries, where rate is the
    segment's running acceptance rate (carried in `state` between calls), and
    hands the accepted ones out in order, so one round almost always fills
    every segment. A round holds at most MAX_BATCH proposals. A segment may
    spend REJECTION_BUDGET proposals per requested entry; entries still open
    after that fall back to a 64-point grid inverse-CDF sampler.
    """
    phi0, phi1 = phi
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    need = np.atleast_1d(np.asarray(need, dtype=np.int64))
    if state is None:
        state = _SamplerState(np.ones(len(need)))
    out = np.empty(need.sum())
    end = np.cumsum(need)  # one past each segment's last output slot
    left, spare = need.copy(), REJECTION_BUDGET * need  # open entries, proposals still allowed
    while (live := np.minimum(left, spare)).any():
        size = np.ceil(_BATCH_FACTOR * left / state.rate) + _BATCH_SLACK
        count = np.where(live > 0, np.minimum(size, spare), 0).astype(np.int64)
        total = count.sum()
        if total > MAX_BATCH:  # shrink every live segment's share, keeping at least one
            count = np.maximum(count * MAX_BATCH // total, live > 0)
            total = count.sum()
        prop = np.repeat(mu, count) + np.repeat(sigma, count) * rng.standard_normal(total)
        hit = np.flatnonzero(rng.random(total) < _sigmoid(prop * -phi1 - phi0))
        # segment i's accepted proposals are hit[first[i]:first[i] + n_hit[i]]; it
        # takes the first take[i] of them into its next open output slots
        stop = np.cumsum(count)
        first = np.searchsorted(hit, stop - count)
        n_hit = np.searchsorted(hit, stop) - first
        take = np.minimum(n_hit, left)
        shift = np.cumsum(take) - take
        j = np.arange(take.sum())
        out[np.repeat(end - left - shift, take) + j] = prop[hit[np.repeat(first - shift, take) + j]]
        left -= take
        spare -= count
        # Laplace's rule keeps the rate positive after a round with no accepts
        state.rate = np.where(count > 0, (n_hit + 1) / (count + 2), state.rate)
        state.rounds += 1
    for i in np.flatnonzero(left):  # budget spent: grid inverse CDF
        xs = mu[i] + sigma[i] * np.linspace(-6.0, 6.0, GRID_POINTS)
        logw = -0.5 * ((xs - mu[i]) / max(sigma[i], 1e-300)) ** 2 + np.log(
            np.maximum(_sigmoid(-(phi1 * xs + phi0)), 1e-300)
        )
        w = np.exp(logw - logw.max())
        total = w.sum()
        if not np.isfinite(total) or total <= 0:
            raise RuntimeError(
                "tilted-Gaussian sampler failed: zero mass after rejection budget"
            )
        cdf = np.cumsum(w) / total
        u = rng.random(left[i])
        out[end[i] - left[i]:end[i]] = np.interp(u, cdf, xs)
        state.fallbacks += int(left[i])
    return out


def _logistic_newton(x, y, phi0, phi1, max_iter=50, tol=1e-10):
    """Newton fit of P(y=1) = sigmoid(phi1 * x + phi0); None when it fails
    or does not converge within max_iter steps.

    The 2 x 2 step is solved in closed form from the weighted sums
    sum w, sum w x, sum w x^2 and the score sum (y - p), sum (y - p) x.
    """
    b0, b1 = float(phi0), float(phi1)
    one, xx = np.ones_like(x), x * x
    y0, y1 = y @ one, y @ x  # the score is (y0 - sum p, y1 - sum p x)
    for _ in range(max_iter):
        p = _sigmoid(b1 * x + b0)
        w = np.maximum(p * (1.0 - p), 1e-12)
        s0, s1, s2 = w @ one, w @ x, w @ xx
        g0, g1 = y0 - p @ one, y1 - p @ x
        det = s0 * s2 - s1 * s1
        if not (math.isfinite(det) and det > 0):
            return None
        d0, d1 = (s2 * g0 - s1 * g1) / det, (s0 * g1 - s1 * g0) / det
        b0, b1 = b0 + d0, b1 + d1
        if not (math.isfinite(b0) and math.isfinite(b1)) or max(abs(b0), abs(b1)) > 1e6:
            return None
        if max(abs(d0), abs(d1)) < tol:
            return np.array([b0, b1])
    return None  # not converged: on separable data the slope climbs until the weights vanish


@dataclass
class SemSelectionResult:
    theta: SelectionParams
    phi: NDArray
    mu_chain: NDArray
    sigma_chain: NDArray
    phi_chain: NDArray
    separation_warnings: int
    rejection_rounds: int  # sampler rounds over the whole fit (about one per iteration)
    grid_fallbacks: int  # missing-entry draws left to the grid after the rejection budget


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
    _check_count("burn_in", burn_in, 0)
    _check_count("iters", iters, 1)
    if iters <= burn_in:
        raise ValueError("iters must exceed burn_in")
    _check_finite("init_phi", init_phi)
    _check_rows(X)
    p, n = X.shape
    if init_theta is None:
        obs_counts = X.mask.sum(axis=1)
        mu0 = X.row_means()
        dev = np.where(X.mask == 1, X.filled(0.0) - mu0[:, None], 0.0)
        sig0 = np.sqrt(np.maximum((dev**2).sum(axis=1) / obs_counts, np.finfo(float).tiny))
        init_theta = SelectionParams(mu0, sig0)
    if len(init_theta.mu) != p:
        raise ValueError(f"init_theta has {len(init_theta.mu)} rows, X has {p}")
    mu, sigma = init_theta.mu, init_theta.sigma
    phi = np.asarray(init_phi, dtype=float).copy()
    rng = seed.rng()
    Xc = X.filled(0.0)
    xc = Xc.reshape(-1)  # a view: writing the holes here fills Xc
    holes = np.flatnonzero(X.mask == 0)  # row-major: each row's holes are one segment
    need = np.bincount(holes // n, minlength=p)
    sampler = _SamplerState(np.ones(p))
    mask_flat = X.mask.reshape(-1).astype(float)
    one_class = mask_flat.min() == mask_flat.max()  # no entry (or every entry) missing
    mu_chain = np.empty((iters, p))
    sigma_chain = np.empty((iters, p))
    phi_chain = np.empty((iters, 2))
    warnings = 0
    for it in range(iters):
        xc[holes] = _sample_tilted_batch(mu, sigma, phi, need, rng, sampler)
        mu = Xc.mean(axis=1)
        sigma = np.sqrt(np.maximum(Xc.var(axis=1), np.finfo(float).tiny))
        if estimate_phi:
            beta = None if one_class else _logistic_newton(xc, mask_flat, *phi)
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
        theta_hat, phi_hat, mu_chain, sigma_chain, phi_chain, warnings,
        sampler.rounds, sampler.fallbacks,
    )
