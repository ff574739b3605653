"""AR(1) with Student-t innovations fitted to gappy series, plus
posterior-draw multiple imputation.

The innovations are treated as a Gaussian scale mixture: each step carries a
latent Gamma weight whose conditional is available in closed form, which
makes the M-step a weighted least squares and the imputation step an exact
Gibbs sweep. During fitting the missing interior points are refreshed by
Metropolis moves targeting the product of the two adjacent Student-t
transitions.

Both samplers update the interior gaps in red-black order: a point's
two-sided conditional involves only its two neighbours, so the even points
are conditionally independent given the odd ones and vice versa, and each
parity is updated in one vectorized step. This is the same Gibbs scan as
visiting the points of one parity one at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.special import gammaln

from .core import SeedSpec
from .em import EmConfig

NU_GRID = np.geomspace(2.1, 100.0, 21)
# log Gamma((nu + 1)/2) - log Gamma(nu/2) on the grid, for the t log density
_NU_LOG_NORM = gammaln((NU_GRID + 1.0) / 2.0) - gammaln(NU_GRID / 2.0)


@dataclass
class Ar1StudentParams:
    """Drift, AR coefficient, innovation scale and degrees of freedom."""

    mu: float
    a: float
    sigma: float
    nu: float
    enforce_stationarity: bool = False

    def __post_init__(self):
        if not np.isfinite([self.mu, self.a, self.sigma, self.nu]).all():
            raise ValueError("mu, a, sigma and nu must be finite")
        if not math.isfinite(self.a * self.a):
            raise ValueError(f"a = {self.a!r} is explosive: a**2 overflows")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.enforce_stationarity and not abs(self.a) < 1:
            raise ValueError("|a| < 1 required when stationarity is enforced")


@dataclass
class Ar1SaemFit:
    """SAEM result. ``accept_rate`` is the share of Metropolis proposals
    accepted for the interior missing points (0 < t < n-1) over all
    iterations; it is nan when there is no such point."""

    params: Ar1StudentParams
    chains: dict
    n_iter: int
    accept_rate: float


def _t_loglik_grid(e, sigma):
    """Student-t log likelihood of the innovations e, one value per NU_GRID
    entry."""
    log_norm = _NU_LOG_NORM - 0.5 * np.log(NU_GRID * math.pi * sigma**2)
    q = (e / sigma) ** 2 / NU_GRID[:, None]
    np.log1p(q, out=q)  # in place: one (grid, n-1) buffer, not two
    return len(e) * log_norm - 0.5 * (NU_GRID + 1.0) * q.sum(axis=1)


def _ols_ar1(x):
    """Least-squares (mu, a, sigma) from consecutive finite pairs."""
    pairs = np.isfinite(x[:-1]) & np.isfinite(x[1:])
    if pairs.sum() < 3:
        m = float(np.nanmean(x))
        s = float(np.nanstd(x))
        return m, 0.0, max(s, 1e-6)
    z = x[:-1][pairs]
    y = x[1:][pairs]
    Z = np.column_stack([np.ones_like(z), z])
    beta, *_ = np.linalg.lstsq(Z, y, rcond=None)
    resid = y - Z @ beta
    sigma = math.sqrt(max(float(resid @ resid) / len(y), 1e-12))
    return float(beta[0]), float(beta[1]), sigma


def ar1t_fit_saem(
    y: NDArray,
    init: Ar1StudentParams | None = None,
    cfg: EmConfig | None = None,
    estimate_nu: bool = True,
) -> Ar1SaemFit:
    """SAEM fit of the gappy AR(1)-t model; returns post-burn-in averages.

    Per iteration: (a) Metropolis-within-Gibbs refresh of the missing values
    against the product of adjacent t transitions (boundary gaps are drawn
    exactly from one-sided transitions), (b) Gamma draws of the per-step
    mixture weights, (c) weighted-least-squares update of (mu, a, sigma) on
    stochastically averaged sufficient statistics, (d) degrees of freedom by
    a 1-D grid on the stochastically averaged innovation log likelihood.
    """
    cfg = cfg or EmConfig(max_iter=300, saem_burn_in=20)
    y = np.asarray(y, dtype=float).reshape(-1)
    n = len(y)
    observed = np.isfinite(y)
    if observed.sum() < 2:
        raise ValueError("need at least two observed points")
    if init is None:
        mu0, a0, s0 = _ols_ar1(y)
        init = Ar1StudentParams(mu0, a0, s0, 10.0)
    mu, a, sigma, nu = init.mu, init.a, init.sigma, init.nu
    rng = cfg.seed.rng()
    x = _initial_fill(y, observed)
    ends = (not observed[0], not observed[-1])
    interior = np.flatnonzero(~observed[1:-1]) + 1
    halves = _parity_halves(interior)
    accepted = 0
    stats = None
    ll_grid_smooth = None
    iters = cfg.max_iter
    chains = {k: np.empty(iters) for k in ("mu", "a", "sigma", "nu")}
    for it in range(1, iters + 1):
        accepted += _refresh_missing_mh(x, ends, halves, mu, a, sigma, nu, rng)
        e = x[1:] - mu - a * x[:-1]
        tau = rng.gamma((nu + 1.0) / 2.0, 2.0 / (nu + (e / sigma) ** 2))
        z_prev = x[:-1]
        cur = np.array(
            [
                tau.sum(),
                float(tau @ z_prev),
                float(tau @ (z_prev**2)),
                float(tau @ x[1:]),
                float(tau @ (z_prev * x[1:])),
                float(tau @ (x[1:] ** 2)),
            ]
        )
        gamma_k = cfg.saem_gamma(it)
        stats = cur if stats is None else stats + gamma_k * (cur - stats)
        s_t, s_z, s_zz, s_y, s_zy, s_yy = stats
        Szz = np.array([[s_t, s_z], [s_z, s_zz]])
        Szy = np.array([s_y, s_zy])
        beta = np.linalg.solve(Szz + 1e-12 * np.eye(2), Szy)
        mu, a = float(beta[0]), float(beta[1])
        rss = s_yy - 2.0 * beta @ Szy + beta @ Szz @ beta
        sigma = math.sqrt(max(float(rss) / (n - 1), 1e-12))
        if estimate_nu:
            ll = _t_loglik_grid(x[1:] - mu - a * x[:-1], sigma)
            ll_grid_smooth = (
                ll
                if ll_grid_smooth is None
                else ll_grid_smooth + gamma_k * (ll - ll_grid_smooth)
            )
            nu = float(NU_GRID[int(np.argmax(ll_grid_smooth))])
        chains["mu"][it - 1] = mu
        chains["a"][it - 1] = a
        chains["sigma"][it - 1] = sigma
        chains["nu"][it - 1] = nu
    b = min(cfg.saem_burn_in, iters - 1)
    params = Ar1StudentParams(
        float(chains["mu"][b:].mean()),
        float(chains["a"][b:].mean()),
        float(chains["sigma"][b:].mean()),
        float(chains["nu"][b:].mean()) if estimate_nu else nu,
    )
    accept_rate = accepted / (len(interior) * iters) if len(interior) else math.nan
    return Ar1SaemFit(params, chains, iters, accept_rate)


def _initial_fill(y, observed):
    x = y.copy()
    idx = np.flatnonzero(observed)
    x[: idx[0]] = y[idx[0]]
    x[idx[-1] + 1 :] = y[idx[-1]]
    interior = np.flatnonzero(~observed)
    interior = interior[(interior > idx[0]) & (interior < idx[-1])]
    if len(interior) > 0:
        x[interior] = np.interp(interior, idx, y[idx])
    return x


def _parity_halves(sites):
    """Split point indices into their even and odd halves, dropping an empty
    half. No two points of a half are neighbours, so under the AR(1) chain
    they are conditionally independent given everything else."""
    return [h for h in (sites[sites % 2 == 0], sites[sites % 2 == 1]) if len(h)]


def _two_sided(prev, nxt, mu, a, w_prev, w_next):
    """Conditional mean of x_t given x_{t-1} = prev and x_{t+1} = nxt, when
    the innovations into and out of t have precisions w_prev / sigma^2 and
    w_next / sigma^2; returns (mean, w) with conditional precision w / sigma^2."""
    w = w_prev + a**2 * w_next
    return (w_prev * (mu + a * prev) + a * w_next * (nxt - mu)) / w, w


def _refresh_missing_mh(x, ends, halves, mu, a, sigma, nu, rng):
    """Refresh the missing points of x in place; returns how many interior
    proposals were accepted.

    The endpoints t = 0 and t = n-1, when ``ends`` flags them missing, have
    one-sided targets and are drawn exactly first. Then each half in
    ``halves`` (the interior missing points split by `_parity_halves`) takes
    one vectorized independence Metropolis step: a Gaussian proposal at the
    two-sided conditional mean with matched variance, against the product of
    the two adjacent t transitions, whose normalizing constants cancel.
    """
    head, tail = ends
    if head:
        if abs(a) > 1e-8:
            x[0] = (x[1] - mu - sigma * rng.standard_t(nu)) / a
        else:
            x[0] = mu + sigma * rng.standard_t(nu)
    if tail:
        x[-1] = mu + a * x[-2] + sigma * rng.standard_t(nu)
    var_t = sigma**2 * (nu / (nu - 2.0)) if nu > 2.0 else sigma**2
    scale = nu * sigma**2
    accepted = 0
    for t in halves:
        prev, nxt = x[t - 1], x[t + 1]
        mean, w = _two_sided(prev, nxt, mu, a, 1.0, 1.0)
        sd = math.sqrt(var_t / w)
        cand = np.stack([mean + sd * rng.standard_normal(len(t)), x[t]])  # proposal, current
        log_w = 0.5 * ((cand - mean) / sd) ** 2 - 0.5 * (nu + 1.0) * (
            np.log1p((cand - mu - a * prev) ** 2 / scale)
            + np.log1p((nxt - mu - a * cand) ** 2 / scale)
        )
        accept = np.log(rng.random(len(t)) + 1e-300) < log_w[0] - log_w[1]
        x[t[accept]] = cand[0, accept]
        accepted += int(accept.sum())
    return accepted


def ar1t_multiple_impute(
    y: NDArray,
    params: Ar1StudentParams,
    K: int,
    seed: SeedSpec = SeedSpec(0),
    sweeps: int = 100,
) -> NDArray:
    """K Gibbs-sampled completions of the gaps; observed points untouched.

    Interior gaps are sampled exactly from the Gaussian conditionals given
    the mixture weights (scale-mixture augmentation), even points then odd
    points; tail gaps are free forecasts and head gaps run the recursion
    backwards. Returns a (K, n) array; draw d uses seed substream d + 1.
    """
    if K < 1 or sweeps < 1:
        raise ValueError(f"K and sweeps must be >= 1, got K={K}, sweeps={sweeps}")
    y = np.asarray(y, dtype=float).reshape(-1)
    n = len(y)
    observed = np.isfinite(y)
    if observed.sum() < 1:
        raise ValueError("need at least one observed point")
    missing_idx = np.flatnonzero(~observed)
    obs_idx = np.flatnonzero(observed)
    head_end = obs_idx[0]  # everything before this index is a leading gap
    tail_start = obs_idx[-1] + 1  # everything from here on is a trailing gap
    interior = missing_idx[(missing_idx > head_end) & (missing_idx < tail_start)]
    halves = _parity_halves(interior)
    mu, a, sigma, nu = params.mu, params.a, params.sigma, params.nu
    out = np.tile(y, (K, 1))
    for d in range(K):
        rng = seed.substream(d + 1).rng()
        x = _initial_fill(y, observed)
        for _ in range(sweeps if len(missing_idx) else 0):
            # boundary runs have one-sided conditionals: draw them exactly by
            # running the model forward (tail) or backward (head)
            for t in range(tail_start, n):
                x[t] = mu + a * x[t - 1] + sigma * rng.standard_t(nu)
            for t in range(head_end - 1, -1, -1):
                if abs(a) > 1e-8:
                    x[t] = (x[t + 1] - mu - sigma * rng.standard_t(nu)) / a
                else:
                    x[t] = mu + sigma * rng.standard_t(nu)
            if not halves:
                continue
            e = x[1:] - mu - a * x[:-1]
            tau = rng.gamma((nu + 1.0) / 2.0, 2.0 / (nu + (e / sigma) ** 2))
            for t in halves:
                mean, w = _two_sided(x[t - 1], x[t + 1], mu, a, tau[t - 1], tau[t])
                x[t] = mean + sigma * rng.standard_normal(len(t)) / np.sqrt(w)
        out[d, missing_idx] = x[missing_idx]
    return out
