"""Structured-covariance projections and structured-covariance EM.

Two structure sets are supported: a factor model (scaled identity plus a
rank-r PSD part) and a noise-floored set whose eigenvalues may not drop below
a known white-noise power. Structured EM is the Gaussian EM driver with the
covariance projected onto the set after every M-step, so it honours the
E-variant of its EmConfig.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import NDArray

from .core import IncompleteMatrix, _check_count, _check_positive
from .em import EmConfig, EmFit, GaussianParams, _eig_floor, _fit_gaussian


class StructureKind(Enum):
    FACTOR_MODEL = "factor"
    NOISE_FLOOR = "floor"


@dataclass(frozen=True)
class CovStructure:
    kind: StructureKind
    r: int = 1
    sigma_known: float = 1.0

    def __post_init__(self):
        if self.kind is StructureKind.FACTOR_MODEL:
            _check_count("r", self.r, 1)
        else:
            _check_positive("sigma_known", self.sigma_known)

    def project(self, sigma):
        if self.kind is StructureKind.FACTOR_MODEL:
            return project_factor_model(sigma, self.r)
        return project_fml(sigma, self.sigma_known)


def project_factor_model(Sigma_hat: NDArray, r: int) -> NDArray:
    """Map onto sigma^2 I + (rank <= r PSD part).

    sigma^2 is the mean of the p - r smallest eigenvalues; the top-r
    eigenvalues keep their eigenvectors with loadings max(lambda_i - sigma^2,
    0), clipped so the low-rank part stays PSD even for degenerate spectra.
    """
    S = np.asarray(Sigma_hat, dtype=float)
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    w, V = w[::-1], V[:, ::-1]
    p = len(w)
    if not 1 <= r < p:
        raise ValueError(f"factor rank r={r} must satisfy 1 <= r < p={p}")
    sigma2 = float(w[r:].mean())
    load = np.maximum(w[:r] - sigma2, 0.0)
    out = sigma2 * np.eye(p) + (V[:, :r] * load) @ V[:, :r].T
    return 0.5 * (out + out.T)


def project_fml(Sigma_hat: NDArray, sigma_known: float) -> NDArray:
    """Floor every eigenvalue at sigma_known^2 (fast maximum likelihood rule)."""
    return _eig_floor(np.asarray(Sigma_hat, dtype=float), sigma_known**2)


def em_structured_fit(
    X: IncompleteMatrix,
    structure: CovStructure,
    cfg: EmConfig | None = None,
    init: GaussianParams | None = None,
) -> EmFit:
    """Gaussian EM whose covariance is projected onto the structure set.

    This is em_gaussian_fit, E-variants included, with
    structure.project applied to the initial covariance and to every M-step
    covariance; the mean update stays unconstrained. For the noise-floor
    structure the projection of the full M-step is the exact constrained
    maximizer of the surrogate, so the exact-EM observed log-likelihood trace
    is nondecreasing; the factor-model projection is generalized-EM style.
    """
    return _fit_gaussian(X, init, cfg, project=structure.project)
