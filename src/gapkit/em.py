"""EM-family estimation of Gaussian and Student-t parameters from gappy data.

The E-step can be exact (closed-form conditional moments), or stochastic
(single draw, Monte Carlo averaging over several draws, or stochastic
approximation with a decaying step sequence). The M-step is the closed-form
maximizer; the Student-t fit can add an observed-likelihood step for nu
(ECME).
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.typing import NDArray

from .core import ColumnSplit, IncompleteMatrix, SeedSpec
from .core import _check_count, _check_finite, _check_positive, _check_rows

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class GaussianParams:
    """Location vector and SPD covariance."""

    mu: NDArray
    sigma: NDArray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float).reshape(-1)
        self.sigma = np.asarray(self.sigma, dtype=float)
        _check_finite("mu", self.mu)
        _check_spd(self.sigma, len(self.mu))

    @property
    def p(self) -> int:
        return len(self.mu)


@dataclass
class StudentTParams(GaussianParams):
    """Location, SPD shape matrix and degrees of freedom."""

    nu: float

    def __post_init__(self):
        super().__post_init__()
        _check_positive("nu", self.nu)


def _check_spd(sigma, p):
    if sigma.shape != (p, p):
        raise ValueError(f"sigma must be {p}x{p}")
    _check_finite("sigma", sigma)
    scale = max(np.abs(sigma).max(), 1e-300)
    if np.abs(sigma - sigma.T).max() > 1e-12 * scale:
        raise ValueError("sigma must be symmetric")
    if np.linalg.eigvalsh(sigma).min() <= 0:
        raise ValueError("sigma must be positive definite")


class EVariant(Enum):
    EXACT = "exact"
    SEM = "sem"
    MCEM = "mcem"
    SAEM = "saem"


@dataclass
class EmConfig:
    """E-variant plus stopping rule for the EM drivers (whose M-steps are
    closed form).

    The SAEM schedule is full weight (gamma = 1) for `saem_burn_in`
    iterations, then 1/k; it satisfies sum gamma = inf, sum gamma^2 < inf.
    """

    e_variant: EVariant = EVariant.EXACT
    tol: float = 1e-8
    max_iter: int = 500
    seed: SeedSpec = field(default_factory=lambda: SeedSpec(0))
    mcem_draws: int = 10
    saem_burn_in: int = 20

    def __post_init__(self):
        _check_positive("tol", self.tol)
        _check_count("max_iter", self.max_iter, 1)
        _check_count("mcem_draws", self.mcem_draws, 1)
        _check_count("saem_burn_in", self.saem_burn_in, 0)

    def saem_gamma(self, k: int) -> float:
        """Step weight for (1-based) iteration k."""
        if k <= self.saem_burn_in:
            return 1.0
        return 1.0 / (k - self.saem_burn_in)

    def saem_smooth(self, k: int, s, c):
        """SAEM running statistic s + gamma_k (c - s) after the fresh one c,
        entry by entry for a tuple; c itself while there is no s yet."""
        if s is None:
            return c
        gamma = self.saem_gamma(k)
        if isinstance(c, tuple):
            return tuple(si + gamma * (ci - si) for si, ci in zip(s, c))
        return s + gamma * (c - s)


@dataclass
class EmFit:
    """Fitted parameters plus per-iteration diagnostics."""

    params: object
    loglik_trace: NDArray
    converged: bool
    n_iter: int
    mu_trace: NDArray


# ---------------------------------------------------------------------------
# Gaussian conditioning on the observed rows of every column, batched by the
# observed count k of its missing-data pattern.
# ---------------------------------------------------------------------------


def _condition(mu, sigma, obs, mis, group, x_o):
    """Condition N(mu, sigma) on the observed rows of a batch of columns.

    obs (g, k) and mis (g, m) hold the rows of g patterns with k observed
    rows, x_o (c, k) the observed values of c columns and group (c,) the
    pattern of each. One batched Cholesky S_oo = L L^T and one batched solve
    [L^-1 | V] = L^-1 [I | S_om] serve all columns; z = L^-1 (x_o - mu_o).
    Returns sum(z^2) (c,), log det S_oo (g,), the conditional means
    mu_m + V^T z (c, m) and covariances S_mm - V^T V (g, m, m).
    """
    k = obs.shape[1]
    try:
        L = np.linalg.cholesky(sigma[obs[:, :, None], obs[:, None, :]])
    except np.linalg.LinAlgError:
        raise ValueError("singular observed-block covariance") from None
    eye = np.broadcast_to(np.eye(k), L.shape)
    W = np.linalg.solve(L, np.concatenate([eye, sigma[obs[:, :, None], mis[:, None, :]]], axis=2))
    V = W[:, :, k:]
    z = np.einsum("cij,cj->ci", W[group, :, :k], x_o - mu[obs][group])
    logdet = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
    mu_c = mu[mis][group] + np.einsum("cij,ci->cj", V[group], z)
    sigma_c = sigma[mis[:, :, None], mis[:, None, :]] - np.swapaxes(V, 1, 2) @ V
    return np.einsum("ci,ci->c", z, z), logdet, mu_c, sigma_c


_Conditioned = namedtuple("_Conditioned", "k delta logdet mean covs")


def _condition_all(mu, sigma, X: IncompleteMatrix) -> _Conditioned:
    """Condition N(mu, sigma) on the observed rows of every column of X, one
    _condition call per k. Per column: k observed rows, delta and log det
    S_oo (both 0 for k = 0); mean is X with every hole at its conditional
    mean; covs holds each pattern batch's conditional covariances."""
    delta, logdet, mean, covs = np.zeros(X.n), np.zeros(X.n), X.values.copy(), []
    for obs, mis, cols, group, _ in X.pattern_batches:
        d, ld, mu_c, sigma_c = _condition(mu, sigma, obs, mis, group, X.values[obs[group], cols[:, None]])
        delta[cols], logdet[cols] = d, ld[group]
        mean[mis[group], cols[:, None]] = mu_c
        covs.append(sigma_c)
    return _Conditioned(X.mask.sum(axis=0), delta, logdet, mean, tuple(covs))


def conditional_gaussian(params: GaussianParams, split: ColumnSplit):
    """Conditional mean and covariance of the missing block given x_o.

    Returns mu_m + S_mo S_oo^-1 (x_o - mu_o) and S_mm - S_mo S_oo^-1 S_om.
    Empty missing block gives empty outputs.
    """
    o, m = split.observed_idx, split.missing_idx
    if len(m) == 0:
        return np.empty(0), np.empty((0, 0))
    _, _, mu_c, sigma_c = _condition(params.mu, params.sigma, o[None], m[None], [0], split.x_o[None])
    return mu_c[0], 0.5 * (sigma_c[0] + sigma_c[0].T)


def _gaussian_loglik(cond: _Conditioned) -> float:
    """Observed-marginal Gaussian log likelihood; k = 0 columns add 0."""
    return float(np.sum(-0.5 * (cond.k * LOG_2PI + cond.logdet + cond.delta)))


def _student_log_norm(nu, k):
    """Log normaliser of the k-dimensional Student-t density with a unit scale
    matrix: log Gamma((nu + k)/2) - log Gamma(nu/2) - (k/2) log(nu pi)."""
    from scipy.special import gammaln

    return gammaln((nu + k) / 2.0) - gammaln(nu / 2.0) - (k / 2.0) * np.log(nu * math.pi)


def _student_loglik(k, delta, logdet, nu):
    """Student-t log likelihood of points with k (integer) observed
    coordinates, squared radii delta and scale-block log determinants logdet
    (per point, or summed), at a scalar nu or at each entry of a vector of
    them; one (grid, points) buffer holds q = log1p(delta / nu)."""
    nu = np.asarray(nu, dtype=float)[..., None]
    count = np.bincount(k)  # points per observed count
    q = np.divide(delta, nu)
    np.log1p(q, out=q)
    radial = 0.5 * (nu[..., 0] * q.sum(axis=-1) + q @ k)
    return _student_log_norm(nu, np.arange(len(count))) @ count - 0.5 * np.sum(logdet) - radial


def _texture_weights(nu, k, delta, rng=None):
    """Texture weights of Student-t points with k observed coordinates and
    squared radii delta, whose posterior is Gamma with shape (nu + k)/2 and
    scale 2/(nu + delta): its means when rng is None, else one draw each."""
    if rng is None:
        return (nu + k) / (nu + delta)
    return rng.gamma((nu + k) / 2.0, 2.0 / (nu + delta))


def observed_loglik_gaussian(params: GaussianParams, X: IncompleteMatrix) -> float:
    """Sum over columns of the observed-marginal Gaussian log density; fully
    missing columns contribute zero."""
    return _gaussian_loglik(_condition_all(params.mu, params.sigma, X))


def observed_loglik_student(params: StudentTParams, X: IncompleteMatrix) -> float:
    """Observed-marginal Student-t log likelihood (marginals keep nu)."""
    cond = _condition_all(params.mu, params.sigma, X)
    return float(_student_loglik(cond.k, cond.delta, cond.logdet, params.nu))


# ---------------------------------------------------------------------------
# E-step statistics (exact, or from one conditional draw) and the EM loop.
# ---------------------------------------------------------------------------


def _completed(X: IncompleteMatrix, cond: _Conditioned, rng=None, w=None):
    """X with every hole at its conditional mean (cond.mean) or, given rng,
    each column's missing block drawn from its conditional, the noise divided
    by sqrt(w) per column when w is given. The standard normals are drawn in
    pattern_groups order."""
    if rng is None:
        return cond.mean
    out, z = cond.mean.copy(), rng.standard_normal(X.n_missing())
    for (_, mis, cols, group, draw), sigma_c in zip(X.pattern_batches, cond.covs):
        noise = np.einsum("cij,cj->ci", _chol_psd(sigma_c)[group], z[draw])
        out[mis[group], cols[:, None]] += noise if w is None else noise / np.sqrt(w[cols])[:, None]
    return out


def _moments(X: IncompleteMatrix, cond: _Conditioned, w, rng=None):
    """Weighted statistics (sum w, sum w x, sum w x x^T) of the completed
    columns. Exact when rng is None: conditional means fill the holes and the
    conditional covariance enters the missing block of the second moment (for
    a Student-t texture, E[tau (x_m - mu_c)(x_m - mu_c)^T] = Sigma_m|o).
    Otherwise one conditional draw, its noise divided by sqrt(w) per column."""
    Xc = _completed(X, cond, rng, w)
    S2 = (Xc * w) @ Xc.T
    if rng is None:  # each column's conditional covariance, in its missing block
        for (_, mis, _, group, _), sigma_c in zip(X.pattern_batches, cond.covs):
            np.add.at(S2, (mis[:, :, None], mis[:, None, :]), np.bincount(group)[:, None, None] * sigma_c)
    return float(w.sum()), Xc @ w, S2


def _chol_psd(S):
    """Cholesky factor of each covariance in a stack; for one that is not
    numerically PD, a factor from eigh with tiny negative eigenvalues zeroed."""
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        if S.ndim > 2:
            return np.stack([_chol_psd(s) for s in S])
        w, V = np.linalg.eigh(0.5 * (S + S.T))
        return V * np.sqrt(np.maximum(w, 0.0))


def _eig_floor(sigma, floor):
    """Symmetrize, and floor the eigenvalues at floor if any lies below it."""
    sigma = 0.5 * (sigma + sigma.T)
    w, V = np.linalg.eigh(sigma)
    if w.min() >= floor:
        return sigma
    return (V * np.maximum(w, floor)) @ V.T


def _spd_floor(sigma, rel=1e-8):
    """_eig_floor at rel * max(trace, p * tiny) / p: a relative floor in any units."""
    p = sigma.shape[0]
    return _eig_floor(sigma, rel * max(np.trace(sigma), p * np.finfo(float).tiny) / p)


def default_gaussian_init(X: IncompleteMatrix) -> GaussianParams:
    """Mean-imputed sample moments, the naive-imputation starting point."""
    from .imputation import impute_mean

    Xc = impute_mean(X)
    mu = Xc.mean(axis=1)
    dev = Xc - mu[:, None]
    sigma = _spd_floor(dev @ dev.T / X.n, rel=1e-6)
    return GaussianParams(mu, sigma)


def _em_loop(params, cfg: EmConfig, estep, m_step) -> EmFit:
    """Iterate E- and M-steps from params under cfg's E-variant.

    estep(params) factors every observed block once and returns the observed
    log likelihood at params and stats(rng), a tuple of E-step statistics:
    exact when rng is None, else from one conditional draw. SEM and SAEM use
    one draw, MCEM averages cfg.mcem_draws, SAEM smooths with cfg.saem_gamma.
    m_step(stats, params) returns the next parameters, whose E-step gives the
    trace's log likelihood too: n_iter iterations factor n_iter + 1 times.
    Stops when the log likelihood moves less than cfg.tol.
    """
    rng = cfg.seed.rng()
    n_draws = cfg.mcem_draws if cfg.e_variant is EVariant.MCEM else 1
    loglik, stats = estep(params)
    trace = [loglik]
    mu_trace = [params.mu.copy()]
    smooth = None  # SAEM running statistics
    for it in range(1, cfg.max_iter + 1):
        if cfg.e_variant is EVariant.EXACT:
            cur = stats(None)
        else:
            draws = [stats(rng) for _ in range(n_draws)]
            cur = tuple(sum(s) / len(draws) for s in zip(*draws))
        if cfg.e_variant is EVariant.SAEM:
            smooth = cur = cfg.saem_smooth(it, smooth, cur)
        params = m_step(cur, params)
        loglik, stats = estep(params)
        trace.append(loglik)
        mu_trace.append(params.mu.copy())
        if abs(trace[-1] - trace[-2]) < cfg.tol:
            break
    return EmFit(params, np.array(trace), abs(trace[-1] - trace[-2]) < cfg.tol, it, np.array(mu_trace))


def em_gaussian_fit(
    X: IncompleteMatrix,
    init: GaussianParams | None = None,
    cfg: EmConfig | None = None,
) -> EmFit:
    """Fit a multivariate Gaussian to incomplete columns by EM.

    The exact E-step accumulates per-column conditional first and second
    moments (the conditional covariance enters the missing block of the
    second moment); the M-step re-estimates (mu, sigma) from the completed
    statistics. Stochastic E-variants replace the conditional expectation by
    draws. Stops when the observed log-likelihood moves less than cfg.tol.
    """
    return _fit_gaussian(X, init, cfg)


def _fit_gaussian(X, init, cfg, project=None) -> EmFit:
    """em_gaussian_fit with project applied to the initial covariance and to
    every M-step covariance (structured-covariance EM)."""
    cfg = cfg or EmConfig()
    _check_rows(X)
    params = init if init is not None else default_gaussian_init(X)
    if project is not None:
        params = GaussianParams(params.mu.copy(), project(params.sigma))

    def m_step(stats, prev):
        S1, S2 = stats
        mu = S1 / X.n
        sigma = _spd_floor(S2 / X.n - np.outer(mu, mu))
        return GaussianParams(mu, sigma if project is None else project(sigma))

    def estep(q):
        cond = _condition_all(q.mu, q.sigma, X)
        return _gaussian_loglik(cond), lambda rng: _moments(X, cond, np.ones(X.n), rng)[1:]

    return _em_loop(params, cfg, estep, m_step)


# ---------------------------------------------------------------------------
# Student-t EM (inverse-gamma texture / Gaussian scale mixture).
# ---------------------------------------------------------------------------

NU_GRID = np.geomspace(1.0, 100.0, 25)


def em_student_fit(
    X: IncompleteMatrix,
    init: StudentTParams | None = None,
    cfg: EmConfig | None = None,
    estimate_nu: bool = False,
) -> EmFit:
    """Fit a multivariate Student-t to incomplete columns by EM.

    nu is held fixed unless estimate_nu is set, in which case it is profiled
    over a log-spaced grid by direct maximization of the observed Student-t
    log likelihood (the observed-likelihood block of the ECME scheme); the
    grid reuses the conditioning that the next E-step starts from. Given the
    texture weights the M-step for (mu, sigma) is closed form. SEM and SAEM
    draw once per iteration; MCEM averages cfg.mcem_draws draws.
    """
    cfg = cfg or EmConfig()
    _check_rows(X)
    if init is None:
        g = default_gaussian_init(X)
        init = StudentTParams(g.mu, g.sigma, 10.0)
    params = StudentTParams(init.mu.copy(), init.sigma.copy(), init.nu)
    last = [b"", None]  # the bytes of the latest (mu, sigma) and its conditioning

    def condition(mu, sigma):
        if last[0] != (key := mu.tobytes() + sigma.tobytes()):
            last[:] = key, _condition_all(mu, sigma, X)
        return last[1]

    def estep(q):
        cond = condition(q.mu, q.sigma)
        ll = _student_loglik(cond.k, cond.delta, cond.logdet, q.nu)
        return float(ll), lambda rng: _moments(X, cond, _texture_weights(q.nu, cond.k, cond.delta, rng), rng)

    def m_step(stats, prev):
        Sw, S1, S2 = stats
        mu = S1 / Sw
        sigma = _spd_floor((S2 - Sw * np.outer(mu, mu)) / X.n)
        nu = prev.nu
        if estimate_nu:
            cond = condition(mu, sigma)
            nu = float(NU_GRID[np.argmax(_student_loglik(cond.k, cond.delta, cond.logdet, NU_GRID))])
        return StudentTParams(mu, sigma, nu)

    return _em_loop(params, cfg, estep, m_step)
