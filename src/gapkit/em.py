"""EM-family estimation of Gaussian and Student-t parameters from gappy data.

The E-step can be exact (closed-form conditional moments), or stochastic
(single draw, Monte Carlo averaging over several draws, or stochastic
approximation with a decaying step sequence). The M-step can be the full
closed-form maximizer, a conditional-maximization sweep, a variant that
pushes part of the parameter through the observed likelihood, or a damped
generalized step that only guarantees surrogate ascent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.lapack import dpotrf, dtrtrs
from scipy.special import gammaln, kv

from .core import ColumnSplit, IncompleteMatrix, SeedSpec

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class GaussianParams:
    """Location vector and SPD covariance."""

    mu: NDArray
    sigma: NDArray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float).reshape(-1)
        self.sigma = np.asarray(self.sigma, dtype=float)
        _check_spd(self.sigma, len(self.mu))

    @property
    def p(self) -> int:
        return len(self.mu)


@dataclass
class StudentTParams:
    """Location, SPD shape matrix and degrees of freedom."""

    mu: NDArray
    sigma: NDArray
    nu: float

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float).reshape(-1)
        self.sigma = np.asarray(self.sigma, dtype=float)
        _check_spd(self.sigma, len(self.mu))
        if not self.nu > 0:
            raise ValueError("nu must be positive")

    @property
    def p(self) -> int:
        return len(self.mu)


def _check_spd(sigma, p):
    if sigma.shape != (p, p):
        raise ValueError(f"sigma must be {p}x{p}")
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


class MVariant(Enum):
    FULL = "full"
    ECM = "ecm"
    ECME = "ecme"
    GEM = "gem"


@dataclass
class EmConfig:
    """E-variant x M-variant plus stopping rule for the EM drivers.

    The SAEM schedule is full weight (gamma = 1) for `saem_burn_in`
    iterations, then 1/k; it satisfies sum gamma = inf, sum gamma^2 < inf.
    """

    e_variant: EVariant = EVariant.EXACT
    m_variant: MVariant = MVariant.FULL
    tol: float = 1e-8
    max_iter: int = 500
    seed: SeedSpec = field(default_factory=lambda: SeedSpec(0))
    mcem_draws: int = 10
    saem_burn_in: int = 20
    gem_inner_steps: int = 3

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.mcem_draws < 1:
            raise ValueError("mcem_draws must be >= 1")

    def saem_gamma(self, k: int) -> float:
        """Step weight for (1-based) iteration k."""
        if k <= self.saem_burn_in:
            return 1.0
        return 1.0 / (k - self.saem_burn_in)


@dataclass
class EmFit:
    """Fitted parameters plus per-iteration diagnostics."""

    params: object
    loglik_trace: NDArray
    converged: bool
    n_iter: int
    mu_trace: NDArray


# ---------------------------------------------------------------------------
# Density generators for elliptically symmetric families (evaluation only).
# ---------------------------------------------------------------------------


class GeneratorKind(Enum):
    GAUSSIAN = "gaussian"
    STUDENT_T = "student_t"
    GENERALIZED_GAUSSIAN = "generalized_gaussian"
    K_DISTRIBUTION = "k_distribution"


@dataclass(frozen=True)
class DensityGenerator:
    """Radial profile g(r) of an elliptical density f(x) = det(S)^-1/2 g(d^2).

    Only pointwise evaluation is provided; fitting beyond the Gaussian and
    Student-t cases needs conditional samplers this toolkit does not ship.
    """

    kind: GeneratorKind
    nu: float = 1.0
    s: float = 1.0
    b: float = 1.0

    def __call__(self, r, dim: int):
        r = np.asarray(r, dtype=float)
        if (r < 0).any():
            raise ValueError("squared radius r must be nonnegative")
        n = dim
        if self.kind is GeneratorKind.GAUSSIAN:
            return np.exp(-r / 2.0) / (2.0 * math.pi) ** (n / 2.0)
        if self.kind is GeneratorKind.STUDENT_T:
            nu = self.nu
            logc = (
                gammaln((nu + n) / 2.0)
                - gammaln(nu / 2.0)
                - (n / 2.0) * math.log(nu * math.pi)
            )
            return np.exp(logc - (n + nu) / 2.0 * np.log1p(r / nu))
        if self.kind is GeneratorKind.GENERALIZED_GAUSSIAN:
            s, b = self.s, self.b
            logc = (
                math.log(s)
                + gammaln(n / 2.0)
                - (n / 2.0) * LOG_2PI
                - (n / (2.0 * s)) * math.log(b)
                - gammaln(n / (2.0 * s))
            )
            return np.exp(logc - r**s / (2.0**s * b))
        # K-distribution; modified Bessel function of the second kind
        nu = self.nu
        rr = np.maximum(r, 1e-300)
        arg = np.sqrt(2.0 * nu * rr)
        coef = (
            nu ** (n / 2.0)
            * (2.0 * nu * rr) ** ((2.0 * nu - n) / 4.0)
            / (2.0 ** (nu - 1.0) * math.pi ** (n / 2.0) * math.exp(gammaln(nu)))
        )
        return coef * kv(nu - n / 2.0, arg)


# ---------------------------------------------------------------------------
# Gaussian conditioning on the observed block of each missing-data pattern.
# ---------------------------------------------------------------------------


def _condition(mu, sigma, obs, mis, x_o):
    """Condition N(mu, sigma) on the observed rows of one pattern group.

    x_o holds the observed values, one column per member of the group. S_oo
    is Cholesky-factored once (S_oo = L L^T) and one triangular solve against
    [x_o - mu_o | S_om] gives z = L^-1 (x_o - mu_o) and V = L^-1 S_om. Returns
    (delta, logdet, mu_c, sigma_c): the Mahalanobis terms sum(z^2) per column,
    log det S_oo, the conditional means mu_m + V^T z (one column per member)
    and the conditional covariance S_mm - V^T V. An empty observed block
    gives delta = 0, logdet = 0 and the marginal moments of the missing rows.
    """
    c = x_o.shape[1]
    mu_m = mu[mis, None]
    S_mm = sigma[np.ix_(mis, mis)]
    if len(obs) == 0:
        return np.zeros(c), 0.0, np.repeat(mu_m, c, axis=1), S_mm
    L, info = dpotrf(sigma[np.ix_(obs, obs)], lower=1)
    if info != 0:
        raise ValueError("singular observed-block covariance")
    ZV, _ = dtrtrs(L, np.hstack([x_o - mu[obs, None], sigma[np.ix_(obs, mis)]]), lower=1)
    z, V = ZV[:, :c], ZV[:, c:]
    delta = np.sum(z * z, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    return delta, logdet, mu_m + V.T @ z, S_mm - V.T @ V


def conditional_gaussian(params: GaussianParams, split: ColumnSplit):
    """Conditional mean and covariance of the missing block given x_o.

    Returns mu_m + S_mo S_oo^-1 (x_o - mu_o) and S_mm - S_mo S_oo^-1 S_om.
    Empty missing block gives empty outputs.
    """
    o, m = split.observed_idx, split.missing_idx
    if len(m) == 0:
        return np.empty(0), np.empty((0, 0))
    _, _, mu_c, sigma_c = _condition(params.mu, params.sigma, o, m, split.x_o[:, None])
    return mu_c[:, 0], 0.5 * (sigma_c + sigma_c.T)


def _observed_blocks(mu, sigma, X: IncompleteMatrix):
    """[(k, logdet, delta)] of the pattern groups with k > 0 observed rows."""
    no_rows = np.empty(0, dtype=np.intp)
    blocks = []
    for obs, _mis, cols in X.pattern_groups:
        if len(obs) > 0:
            delta, logdet, _, _ = _condition(mu, sigma, obs, no_rows, X.values[np.ix_(obs, cols)])
            blocks.append((len(obs), logdet, delta))
    return blocks


def observed_loglik_gaussian(params: GaussianParams, X: IncompleteMatrix) -> float:
    """Sum over columns of the observed-marginal Gaussian log density.

    Fully missing columns contribute zero.
    """
    total = 0.0
    for k, logdet, delta in _observed_blocks(params.mu, params.sigma, X):
        total += float(np.sum(-0.5 * (k * LOG_2PI + logdet + delta)))
    return total


def observed_loglik_student(params: StudentTParams, X: IncompleteMatrix) -> float:
    """Observed-marginal Student-t log likelihood (marginals keep nu)."""
    return _student_loglik(_observed_blocks(params.mu, params.sigma, X), params.nu)


def _student_loglik(blocks, nu):
    total = 0.0
    for k, logdet, delta in blocks:
        logc = (
            gammaln((nu + k) / 2.0)
            - gammaln(nu / 2.0)
            - (k / 2.0) * math.log(nu * math.pi)
            - 0.5 * logdet
        )
        total += float(np.sum(logc - (nu + k) / 2.0 * np.log1p(delta / nu)))
    return total


# ---------------------------------------------------------------------------
# E-step statistics (exact, or from one conditional draw) and the EM loop.
# ---------------------------------------------------------------------------


def _complete_gaussian(params: GaussianParams, X: IncompleteMatrix, rng=None):
    """Copy of X.values with every hole set to its conditional mean or, given
    rng, with each column's missing block drawn from its conditional."""
    out = X.values.copy()
    for obs, mis, cols in X.pattern_groups:
        if len(mis) == 0:
            continue
        _, _, mu_c, sigma_c = _condition(
            params.mu, params.sigma, obs, mis, X.values[np.ix_(obs, cols)]
        )
        if rng is not None:
            mu_c = mu_c + _chol_psd(sigma_c) @ rng.standard_normal(mu_c.shape)
        out[np.ix_(mis, cols)] = mu_c
    return out


def _gaussian_stats(params: GaussianParams, X: IncompleteMatrix, rng):
    """Sufficient statistics (sum x, sum x x^T) of the completed columns.

    Exact when rng is None: conditional means fill the holes and the
    conditional covariance enters the missing block of the second moment.
    Otherwise the statistics of one conditional draw.
    """
    if rng is not None:
        Xc = _complete_gaussian(params, X, rng)
        return Xc.sum(axis=1), Xc @ Xc.T
    S1 = np.zeros(params.p)
    S2 = np.zeros((params.p, params.p))
    for obs, mis, cols in X.pattern_groups:
        Xc = X.values[:, cols].copy()
        if len(mis) > 0:
            _, _, mu_c, sigma_c = _condition(params.mu, params.sigma, obs, mis, Xc[obs])
            Xc[mis] = mu_c
            S2[np.ix_(mis, mis)] += len(cols) * sigma_c
        S1 += Xc.sum(axis=1)
        S2 += Xc @ Xc.T
    return S1, S2


def _chol_psd(S):
    """Cholesky factor tolerant of tiny negative eigenvalues."""
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(0.5 * (S + S.T))
        return V * np.sqrt(np.maximum(w, 0.0))


def _spd_floor(sigma, rel=1e-8):
    """Symmetrize and floor eigenvalues at rel * trace / p."""
    sigma = 0.5 * (sigma + sigma.T)
    p = sigma.shape[0]
    floor = rel * max(np.trace(sigma), p * 1e-12) / p
    w, V = np.linalg.eigh(sigma)
    if w.min() >= floor:
        return sigma
    w = np.maximum(w, floor)
    return (V * w) @ V.T


def _q_gaussian(mu, sigma, S1, S2, n):
    """Expected complete-data log likelihood at (mu, sigma) given stats."""
    p = len(mu)
    A = S2 - np.outer(S1, mu) - np.outer(mu, S1) + n * np.outer(mu, mu)
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        return -np.inf
    return -0.5 * (n * p * LOG_2PI + n * logdet + np.trace(np.linalg.solve(sigma, A)))


def _m_step_gaussian(S1, S2, n, cfg, prev: GaussianParams):
    """Dispatch the configured M-variant on Gaussian sufficient statistics.

    FULL and ECM coincide here (the conditional maximizations are exact and
    order-independent for the Gaussian Q); ECME has no observed-likelihood
    block for (mu, sigma) and also reduces to the full step. GEM takes damped
    steps and verifies the surrogate never decreases, falling back to the
    full maximizer when a damped step would.
    """
    mu_star = S1 / n
    sigma_full = _spd_floor(S2 / n - np.outer(mu_star, mu_star))
    if cfg.m_variant in (MVariant.FULL, MVariant.ECM, MVariant.ECME):
        return mu_star, sigma_full
    # GEM: damped moves toward the maximizer, surrogate-ascent checked.
    mu, sigma = prev.mu.copy(), prev.sigma.copy()
    q_cur = _q_gaussian(mu, sigma, S1, S2, n)
    for _ in range(max(cfg.gem_inner_steps, 1)):
        mu_new = mu + 0.5 * (mu_star - mu)
        sigma_target = _spd_floor(
            S2 / n
            - np.outer(S1 / n, mu_new)
            - np.outer(mu_new, S1 / n)
            + np.outer(mu_new, mu_new)
        )
        sigma_new = sigma + 0.5 * (sigma_target - sigma)
        q_new = _q_gaussian(mu_new, sigma_new, S1, S2, n)
        if q_new < q_cur:
            return mu_star, sigma_full
        mu, sigma, q_cur = mu_new, sigma_new, q_new
    if _q_gaussian(mu_star, sigma_full, S1, S2, n) >= q_cur:
        return mu_star, sigma_full
    return mu, sigma


def default_gaussian_init(X: IncompleteMatrix) -> GaussianParams:
    """Mean-imputed sample moments, the naive-imputation starting point."""
    from .imputation import impute_mean

    Xc = impute_mean(X)
    mu = Xc.mean(axis=1)
    dev = Xc - mu[:, None]
    sigma = _spd_floor(dev @ dev.T / X.n, rel=1e-6)
    return GaussianParams(mu, sigma)


def _check_rows(X: IncompleteMatrix):
    if (X.mask.sum(axis=1) < 2).any():
        raise ValueError("every row must be observed at least twice")


def _em_loop(X, params, cfg: EmConfig, stats, m_step, loglik, saem_draws=1) -> EmFit:
    """Iterate E- and M-steps from params under cfg's E-variant.

    stats(params, X, rng) returns a tuple of E-step statistics: the exact
    ones when rng is None, else those of one conditional draw. SEM uses one
    draw, MCEM averages cfg.mcem_draws draws, and SAEM averages saem_draws
    draws and smooths them with the cfg.saem_gamma schedule. m_step(stats,
    params) returns the next parameters. Stops when loglik(params, X) moves
    less than cfg.tol.
    """
    rng = cfg.seed.rng()
    n_draws = {EVariant.SEM: 1, EVariant.MCEM: cfg.mcem_draws, EVariant.SAEM: saem_draws}
    trace = [loglik(params, X)]
    mu_trace = [params.mu.copy()]
    smooth = None  # SAEM running statistics
    converged = False
    it = 0
    for it in range(1, cfg.max_iter + 1):
        if cfg.e_variant is EVariant.EXACT:
            cur = stats(params, X, None)
        else:
            draws = [stats(params, X, rng) for _ in range(n_draws[cfg.e_variant])]
            cur = tuple(sum(s) / len(draws) for s in zip(*draws))
        if cfg.e_variant is EVariant.SAEM:
            if smooth is not None:
                gamma = cfg.saem_gamma(it)
                cur = tuple(s + gamma * (c - s) for s, c in zip(smooth, cur))
            smooth = cur
        params = m_step(cur, params)
        trace.append(loglik(params, X))
        mu_trace.append(params.mu.copy())
        if abs(trace[-1] - trace[-2]) < cfg.tol:
            converged = True
            break
    return EmFit(params, np.array(trace), converged, it, np.array(mu_trace))


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
        mu, sigma = _m_step_gaussian(*stats, X.n, cfg, prev)
        return GaussianParams(mu, sigma if project is None else project(sigma))

    return _em_loop(X, params, cfg, _gaussian_stats, m_step, observed_loglik_gaussian)


# ---------------------------------------------------------------------------
# Student-t EM (inverse-gamma texture / Gaussian scale mixture).
# ---------------------------------------------------------------------------

NU_GRID = np.geomspace(1.0, 100.0, 25)


def _student_stats(params: StudentTParams, X: IncompleteMatrix, rng):
    """Texture-weighted statistics (sum w, sum w x, sum w x x^T).

    Exact when rng is None: the Gamma-posterior mean weight
    (nu + p_o)/(nu + delta_o) and closed-form conditional moments given the
    texture. Otherwise one draw: the texture from its Gamma conditional and
    the missing block from the Gaussian conditional at that texture.
    """
    p = params.p
    mu, sigma, nu = params.mu, params.sigma, params.nu
    Sw = 0.0  # sum of weights
    S1 = np.zeros(p)  # sum of weighted completed vectors
    S2 = np.zeros((p, p))  # sum of weighted second moments
    for obs, mis, cols in X.pattern_groups:
        Xc = X.values[:, cols].copy()
        k = len(obs)
        delta, _, mu_c, sigma_c = _condition(mu, sigma, obs, mis, Xc[obs])
        if rng is None:
            w = (nu + k) / (nu + delta)
        else:
            w = rng.gamma((nu + k) / 2.0, 2.0 / (nu + delta))
        if len(mis) > 0:
            if rng is None:
                Xc[mis] = mu_c
                # E[tau * (x_m - mu_c)(x_m - mu_c)^T] = Sigma_m|o
                S2[np.ix_(mis, mis)] += len(cols) * sigma_c
            else:
                noise = _chol_psd(sigma_c) @ rng.standard_normal(mu_c.shape)
                Xc[mis] = mu_c + noise / np.sqrt(w)[None, :]
        Sw += float(w.sum())
        S1 += Xc @ w
        S2 += (Xc * w) @ Xc.T
    return Sw, S1, S2


def em_student_fit(
    X: IncompleteMatrix,
    init: StudentTParams | None = None,
    cfg: EmConfig | None = None,
    estimate_nu: bool = False,
) -> EmFit:
    """Fit a multivariate Student-t to incomplete columns by EM.

    nu is held fixed unless estimate_nu is set, in which case it is profiled
    over a log-spaced grid by direct maximization of the observed Student-t
    log likelihood (the observed-likelihood block of the ECME scheme). Given
    the texture weights the M-step for (mu, sigma) is closed form, so FULL,
    ECM and ECME coincide; GEM is rejected. SEM draws once per iteration;
    MCEM averages cfg.mcem_draws draws, and so does SAEM before smoothing.
    """
    cfg = cfg or EmConfig()
    if cfg.m_variant is MVariant.GEM:
        raise ValueError("the Student-t M-step is closed form; GEM is not supported")
    _check_rows(X)
    if init is None:
        g = default_gaussian_init(X)
        init = StudentTParams(g.mu, g.sigma, 10.0)
    params = StudentTParams(init.mu.copy(), init.sigma.copy(), init.nu)

    def m_step(stats, prev):
        Sw, S1, S2 = stats
        mu = S1 / Sw
        sigma = _spd_floor((S2 - Sw * np.outer(mu, mu)) / X.n)
        nu = prev.nu
        if estimate_nu:
            blocks = _observed_blocks(mu, sigma, X)
            lls = [_student_loglik(blocks, nu_c) for nu_c in NU_GRID]
            nu = float(NU_GRID[int(np.argmax(lls))])
        return StudentTParams(mu, sigma, nu)

    return _em_loop(
        X, params, cfg, _student_stats, m_step, observed_loglik_student,
        saem_draws=cfg.mcem_draws,
    )


# ---------------------------------------------------------------------------
# Generic MAP M-step: ascend Q + log prior from the current parameter.
# ---------------------------------------------------------------------------


def map_m_step(q_fn, log_prior, theta_k, max_evals: int = 4000) -> NDArray:
    """Return theta with q_fn(theta) + log_prior(theta) >= its value at theta_k.

    Runs a derivative-free ascent (Nelder-Mead proposal, then a compass
    line-search polish) and never accepts a non-improving point, so the
    generalized-EM ascent guarantee holds by construction. Infeasible points
    (log prior = -inf) are rejected during the search.
    """
    from scipy.optimize import minimize

    theta_k = np.atleast_1d(np.asarray(theta_k, dtype=float))

    def objective(t):
        lp = log_prior(t)
        if not np.isfinite(lp):
            return -np.inf
        val = q_fn(t) + lp
        return val if np.isfinite(val) else -np.inf

    f0 = objective(theta_k)
    if not np.isfinite(f0):
        raise ValueError("Q + log prior must be finite at theta_k")

    best_theta, best_val = theta_k.copy(), f0
    res = minimize(
        lambda t: -np.nan_to_num(objective(t), nan=np.inf, neginf=1e300),
        theta_k,
        method="Nelder-Mead",
        options={"maxfev": max_evals // 2, "xatol": 1e-12, "fatol": 1e-14},
    )
    cand_val = objective(res.x)
    if cand_val > best_val:
        best_theta, best_val = np.atleast_1d(res.x), cand_val

    # Compass polish: shrinking coordinate steps, improvements only.
    evals = 0
    step = max(1.0, float(np.abs(best_theta).max()))
    while step > 1e-11 * max(1.0, float(np.abs(best_theta).max())) and evals < max_evals:
        improved = False
        for i in range(len(best_theta)):
            for sgn in (1.0, -1.0):
                cand = best_theta.copy()
                cand[i] += sgn * step
                val = objective(cand)
                evals += 1
                if val > best_val:
                    best_theta, best_val = cand, val
                    improved = True
        if not improved:
            step *= 0.5
    if best_val < f0:
        raise RuntimeError("ascent failure in map_m_step")  # pragma: no cover
    return best_theta
