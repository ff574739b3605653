"""Mask generation under MCAR/MAR/MNAR mechanisms and pattern classification."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import NDArray

from .core import SeedSpec, _check_count, _check_finite


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


class MechanismKind(Enum):
    MCAR = "mcar"
    MAR = "mar"
    MNAR_SELF_MASK = "mnar"


@dataclass(frozen=True)
class MechanismSpec:
    """Missingness mechanism parameters.

    MCAR removes each entry independently with probability `rate`. MAR makes
    row i (i != driver_row) of column j missing with probability
    sigmoid(phi1 * X[driver_row, j] + phi0); the driver row stays fully
    observed. MNAR self-masking observes each entry with probability
    sigmoid(phi1 * x + phi0) evaluated at the entry's own value.
    """

    kind: MechanismKind
    rate: float = 0.0
    driver_row: int = 0
    phi0: float = 0.0
    phi1: float = 0.0

    def __post_init__(self):
        if self.kind is MechanismKind.MCAR and not 0.0 <= self.rate <= 1.0:
            raise ValueError("MCAR rate must lie in [0, 1]")
        _check_finite("phi0 and phi1", [self.phi0, self.phi1])


class PatternClass(Enum):
    UNIVARIATE = "univariate"
    MULTIVARIATE = "multivariate"
    MONOTONE = "monotone"
    FILE_MATCHING = "file_matching"
    GENERAL = "general"
    RANDOM = "random"  # generator-side label only, never produced by the classifier


def gen_mask(shape, spec: MechanismSpec, X=None, seed: SeedSpec = SeedSpec(0)) -> NDArray:
    """Draw a 0/1 observation mask of the given shape under `spec`.

    X (the complete data) is required for MAR and MNAR. Entries are
    independent Bernoulli draws; under MAR the driver row is forced fully
    observed.
    """
    p, n = shape
    _check_count("p", p, 1)
    _check_count("n", n, 1)
    rng = seed.rng()
    if spec.kind is MechanismKind.MCAR:
        mask = (rng.random((p, n)) >= spec.rate).astype(np.int8)
        return mask
    if X is None:
        raise ValueError(f"{spec.kind.value} mechanism requires the data matrix X")
    X = np.asarray(X, dtype=float)
    if X.shape != (p, n):
        raise ValueError("X shape does not match the requested mask shape")
    if spec.kind is MechanismKind.MAR:
        if not 0 <= spec.driver_row < p:
            raise ValueError(f"driver_row {spec.driver_row} outside [0, p) for p={p}")
        p_missing = _sigmoid(spec.phi1 * X[spec.driver_row] + spec.phi0)
        mask = (rng.random((p, n)) >= p_missing[None, :]).astype(np.int8)
        mask[spec.driver_row] = 1
        return mask
    # MNAR self-masking: observation probability depends on the entry itself
    p_obs = _sigmoid(spec.phi1 * X + spec.phi0)
    return (rng.random((p, n)) < p_obs).astype(np.int8)


def classify_pattern(mask) -> PatternClass:
    """Classify a mask into the univariate/multivariate/monotone/
    file-matching/general taxonomy.

    Checks run in a fixed order: univariate (all holes in one row), monotone
    (rows reorderable so each column's missing set is a suffix), file matching
    (some pair of rows never co-observed), multivariate (>= 2 rows missing on
    identical column sets), else general. The "random" label is reserved for
    simulation and never returned.
    """
    mask = np.asarray(mask)
    if mask.size == 0:
        raise ValueError("empty mask")
    miss = mask == 0
    rows_with_missing = np.flatnonzero(miss.any(axis=1))
    if len(rows_with_missing) == 1:
        return PatternClass.UNIVARIATE
    if _is_monotone(miss):
        return PatternClass.MONOTONE
    if _has_never_co_observed_pair(mask):
        return PatternClass.FILE_MATCHING
    if _has_synchronized_rows(miss):
        return PatternClass.MULTIVARIATE
    return PatternClass.GENERAL


def _is_monotone(miss) -> bool:
    # Canonical order: ascending per-row missing count, then suffix test.
    order = np.argsort(miss.sum(axis=1), kind="stable")
    m = miss[order]
    p = m.shape[0]
    for col in m.T:
        k = col.sum()
        if k and not col[p - k :].all():
            return False
    return True


def _has_never_co_observed_pair(mask) -> bool:
    obs = (mask == 1).astype(np.int64)
    co = obs @ obs.T  # co[i, k] = number of columns observing both rows
    iu = np.triu_indices_from(co, k=1)
    return bool((co[iu] == 0).any())


def _has_synchronized_rows(miss) -> bool:
    """Whether two rows with holes miss the same set of columns."""
    patterns = [row.tobytes() for row in miss if row.any()]
    return len(set(patterns)) < len(patterns)
