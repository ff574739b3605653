"""AR(1) with Student-t innovations fitted to gappy series, plus
posterior-draw multiple imputation.

The innovations are treated as a Gaussian scale mixture: each step carries a
latent Gamma weight whose conditional is available in closed form, which
makes the M-step a weighted least squares and the gap update an exact Gibbs
sweep. One sweep, `_gibbs_sweep`, serves both the SAEM fit and the
multiple imputation. It draws the leading and trailing gaps from their
one-sided transitions, then the mixture weights, then the interior gaps in
red-black order: a point's two-sided conditional involves only its two
neighbours, so each parity is updated in one vectorized Gaussian draw.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import SeedSpec, _check_count, _check_finite, _check_positive, _parity_halves
from .em import NU_GRID, EmConfig, _student_loglik, _texture_weights


@dataclass
class Ar1StudentParams:
    """Drift, AR coefficient, innovation scale and degrees of freedom."""

    mu: float
    a: float
    sigma: float
    nu: float

    def __post_init__(self):
        _check_finite("mu and a", [self.mu, self.a])
        if not math.isfinite(self.a * self.a):
            raise ValueError(f"a = {self.a!r} is explosive: a**2 overflows")
        _check_positive("sigma", self.sigma)
        _check_positive("nu", self.nu)


@dataclass
class Ar1SaemFit:
    """SAEM result: post-burn-in averages and the per-iteration chains."""

    params: Ar1StudentParams
    chains: dict
    n_iter: int


def _ols_ar1(x):
    """Least-squares (mu, a, sigma) from consecutive finite pairs."""
    if np.isfinite(x).sum() < 2:
        raise ValueError("need at least two observed points")
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

    Per iteration: (a) one `_gibbs_sweep` over the missing values, which
    leaves their posterior at the current parameters invariant, (b) fresh
    Gamma draws of the per-step mixture weights, (c) weighted-least-squares
    update of (mu, a, sigma) on stochastically averaged sufficient
    statistics, (d) degrees of freedom by a 1-D grid on the stochastically
    averaged innovation log likelihood.
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
    layout = _gap_layout(observed)
    stats = None
    ll_grid_smooth = None
    iters = cfg.max_iter
    chains = {k: np.empty(iters) for k in ("mu", "a", "sigma", "nu")}
    ones = np.ones(n - 1, dtype=int)  # k = 1: each innovation is a 1-D point
    for it in range(1, iters + 1):
        _gibbs_sweep(x, layout, mu, a, sigma, nu, rng)
        e = x[1:] - mu - a * x[:-1]
        tau = _texture_weights(nu, 1.0, (e / sigma) ** 2, rng)
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
        stats = cfg.saem_smooth(it, stats, cur)
        s_t, s_z, s_zz, s_y, s_zy, s_yy = stats
        Szz = np.array([[s_t, s_z], [s_z, s_zz]])
        Szy = np.array([s_y, s_zy])
        beta = np.linalg.solve(Szz + 1e-12 * np.eye(2), Szy)
        mu, a = float(beta[0]), float(beta[1])
        rss = s_yy - 2.0 * beta @ Szy + beta @ Szz @ beta
        sigma = math.sqrt(max(float(rss) / (n - 1), 1e-12))
        if estimate_nu:
            delta = ((x[1:] - mu - a * x[:-1]) / sigma) ** 2
            ll = _student_loglik(ones, delta, (n - 1) * math.log(sigma**2), NU_GRID)
            ll_grid_smooth = cfg.saem_smooth(it, ll_grid_smooth, ll)
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
    return Ar1SaemFit(params, chains, iters)


def _initial_fill(y, observed):
    """Linear interpolation across the gaps, flat beyond the end points."""
    x = y.copy()
    idx = np.flatnonzero(observed)
    x[~observed] = np.interp(np.flatnonzero(~observed), idx, y[idx])
    return x


def _two_sided(prev, nxt, mu, a, w_prev, w_next):
    """Conditional mean of x_t given x_{t-1} = prev and x_{t+1} = nxt, when
    the innovations into and out of t have precisions w_prev / sigma^2 and
    w_next / sigma^2; returns (mean, w) with conditional precision w / sigma^2."""
    w = w_prev + a**2 * w_next
    return (w_prev * (mu + a * prev) + a * w_next * (nxt - mu)) / w, w


def _gap_layout(observed):
    """(head_end, tail_start, halves): the gaps before head_end and from
    tail_start on are the leading and trailing runs, and halves are the
    interior gaps split by `_parity_halves`; under the AR(1) chain the points
    of a half are conditionally independent given everything else."""
    obs_idx = np.flatnonzero(observed)
    head_end, tail_start = obs_idx[0], obs_idx[-1] + 1
    interior = np.flatnonzero(~observed[head_end:tail_start]) + head_end
    return head_end, tail_start, _parity_halves(interior)


def _gibbs_sweep(x, layout, mu, a, sigma, nu, rng):
    """One Gibbs sweep over the gaps of x, in place; it leaves the posterior
    of the gaps given the observed points and the parameters invariant."""
    head_end, tail_start, halves = layout
    # boundary runs have one-sided conditionals: draw them exactly by
    # running the model forward (tail) or backward (head)
    for t in range(tail_start, len(x)):
        x[t] = mu + a * x[t - 1] + sigma * rng.standard_t(nu)
    for t in range(head_end - 1, -1, -1):
        if abs(a) > 1e-8:
            x[t] = (x[t + 1] - mu - sigma * rng.standard_t(nu)) / a
        else:
            x[t] = mu + sigma * rng.standard_t(nu)
    if not halves:
        return
    e = x[1:] - mu - a * x[:-1]
    tau = _texture_weights(nu, 1.0, (e / sigma) ** 2, rng)
    for t in halves:
        mean, w = _two_sided(x[t - 1], x[t + 1], mu, a, tau[t - 1], tau[t])
        x[t] = mean + sigma * rng.standard_normal(len(t)) / np.sqrt(w)


def ar1t_multiple_impute(
    y: NDArray,
    params: Ar1StudentParams,
    K: int,
    seed: SeedSpec = SeedSpec(0),
    sweeps: int = 100,
) -> NDArray:
    """K Gibbs-sampled completions of the gaps; observed points untouched.

    Each draw runs ``sweeps`` passes of `_gibbs_sweep` from the interpolated
    series. Returns a (K, n) array; draw d uses seed substream d + 1.
    Raises FloatingPointError when a draw is not finite, as when the
    parameters overflow the conditional means or precisions.
    """
    _check_count("K", K, 1)
    _check_count("sweeps", sweeps, 1)
    y = np.asarray(y, dtype=float).reshape(-1)
    observed = np.isfinite(y)
    if observed.sum() < 1:
        raise ValueError("need at least one observed point")
    layout = _gap_layout(observed)
    mu, a, sigma, nu = params.mu, params.a, params.sigma, params.nu
    out = np.empty((K, len(y)))
    for d in range(K):
        rng = seed.substream(d + 1).rng()
        x = _initial_fill(y, observed)
        with np.errstate(all="ignore"):  # a non-finite draw is raised below
            for _ in range(sweeps):
                _gibbs_sweep(x, layout, mu, a, sigma, nu, rng)
        if not np.isfinite(x).all():
            raise FloatingPointError(
                f"AR(1)-t draw {d} is not finite at mu={mu!r}, a={a!r}, sigma={sigma!r}, nu={nu!r}"
            )
        out[d] = x
    return out
