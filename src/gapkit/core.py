"""Shared data model for incomplete matrices, seeding, parameter checks, metrics and CSV I/O.

Everything in the toolkit consumes a p x n data matrix together with a 0/1
observation mask. Missing entries carry NaN in memory so that any code path
that bypasses the mask poisons its output instead of silently reading garbage.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray


@dataclass(frozen=True)
class SeedSpec:
    """Seed plus substream id; equal (seed, stream_id) gives identical draws."""

    seed: int
    stream_id: int = 0

    def rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed & 0xFFFFFFFFFFFFFFFF, self.stream_id])

    def substream(self, offset: int) -> "SeedSpec":
        return SeedSpec(self.seed, self.stream_id + offset)


class IncompleteMatrix:
    """A p x n value matrix with a 0/1 mask (1 = observed).

    Entries where mask == 0 are stored as NaN and must never be consumed by
    numerics; all operations index through the mask.
    """

    def __init__(self, values: NDArray, mask: NDArray):
        values = np.asarray(values, dtype=float)
        mask = np.asarray(mask)
        if values.ndim != 2:
            raise ValueError("values must be a 2-D matrix")
        if values.shape != mask.shape:
            raise ValueError(f"shape mismatch: values {values.shape} vs mask {mask.shape}")
        if not np.isin(mask, (0, 1)).all():
            raise ValueError("mask entries must be exactly 0 or 1")
        mask = mask.astype(np.int8)
        values = values.copy()
        values[mask == 0] = np.nan  # poison the sentinel positions
        if not np.isfinite(values[mask == 1]).all():
            raise ValueError("observed entries must be finite numbers")
        self.values = values
        self.mask = mask
        self.values.setflags(write=False)
        self.mask.setflags(write=False)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def n_missing(self) -> int:
        return int((self.mask == 0).sum())

    @cached_property
    def pattern_groups(self) -> tuple[tuple[NDArray, NDArray, NDArray], ...]:
        """Columns grouped by identical mask column: ((obs, mis, cols), ...).

        obs and mis are the ascending observed and missing row indices of the
        pattern and cols the ascending indices of its columns. Groups come in
        order of first appearance, so sums over groups run in a fixed order.
        Computed once per matrix, as values and mask are read-only.
        """
        groups = {}
        for j in range(self.n):
            groups.setdefault(self.mask[:, j].tobytes(), []).append(j)
        out = []
        for key, cols in groups.items():
            col_mask = np.frombuffer(key, dtype=np.int8)
            obs = np.flatnonzero(col_mask == 1)
            mis = np.flatnonzero(col_mask == 0)
            out.append((obs, mis, np.array(cols)))
        return tuple(out)

    @cached_property
    def pattern_batches(self) -> tuple[tuple[NDArray, ...], ...]:
        """pattern_groups stacked by observed count k, in ascending k:
        ((obs, mis, cols, group, draw), ...). obs (g, k) and mis (g, p - k)
        hold the rows of the batch's g groups, cols its c columns group by
        group, and group (c,) each column's index into obs and mis. draw
        (c, p - k) ranks every hole group by group in pattern_groups order,
        then by missing row, then by column: the order a per-group loop draws."""
        by_k, first = {}, 0
        for obs, mis, cols in self.pattern_groups:
            draw = first + np.arange(len(cols))[:, None] + len(cols) * np.arange(len(mis))
            by_k.setdefault(len(obs), []).append((obs, mis, cols, draw))
            first += draw.size
        return tuple(
            (np.array(obs, dtype=np.intp), np.array(mis, dtype=np.intp), np.concatenate(cols),
             np.repeat(np.arange(len(cols)), [len(c) for c in cols]), np.concatenate(draw))
            for obs, mis, cols, draw in (zip(*members) for _, members in sorted(by_k.items()))
        )

    def filled(self, fill_value: float = 0.0) -> NDArray:
        """Copy of values with missing entries replaced by fill_value."""
        out = self.values.copy()
        out[self.mask == 0] = fill_value
        return out

    def row_means(self) -> NDArray:
        """Mean of each row's observed entries; every row needs one."""
        return self.filled(0.0).sum(axis=1) / self.mask.sum(axis=1)

    @classmethod
    def from_complete(cls, values: NDArray) -> "IncompleteMatrix":
        values = np.asarray(values, dtype=float)
        return cls(values, np.ones_like(values, dtype=np.int8))

    def __repr__(self) -> str:
        return f"IncompleteMatrix(p={self.p}, n={self.n}, missing={self.n_missing()})"


@dataclass(frozen=True)
class ColumnSplit:
    """Observed/missing row indices of one column plus its observed values."""

    observed_idx: NDArray
    missing_idx: NDArray
    x_o: NDArray


def split_column(X: IncompleteMatrix, j: int) -> ColumnSplit:
    """Split column j of X into observed and missing parts (ascending indices)."""
    if not 0 <= j < X.n:
        raise IndexError(f"column index {j} out of range [0, {X.n})")
    col_mask = X.mask[:, j]
    observed = np.flatnonzero(col_mask == 1)
    missing = np.flatnonzero(col_mask == 0)
    return ColumnSplit(observed, missing, X.values[observed, j].copy())


def _check_count(name: str, value, least: int) -> None:
    """ValueError unless value is an integer no smaller than least; a bool is no integer here."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_nonnegative(name: str, value) -> None:
    if not 0 <= value < np.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")


def _check_positive(name: str, value) -> None:
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _check_finite(name: str, value) -> None:
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite, without NaN or inf entries")


def _unit_scale(top: float) -> float:
    """The power of two nearest 1 / top (scaling by it rounds nothing), 1.0 at top = 0; the
    exponent is clamped at 1022: exact for every normal top, finite for a subnormal one."""
    return 2.0 ** -max(round(np.log2(top)), -1022) if top > 0 else 1.0


def _check_rows(X: IncompleteMatrix) -> None:
    if (X.mask.sum(axis=1) < 2).any():
        raise ValueError("every row must be observed at least twice")


def _parity_halves(sites: NDArray) -> list[NDArray]:
    """Split integer indices into their even and odd halves, dropping an
    empty half. No two indices of a half are neighbours, so a chain model
    (an AR(1) series, a lag-one signal) updates each half in one batch."""
    return [h for h in (sites[sites % 2 == 0], sites[sites % 2 == 1]) if len(h)]


def rmse_missing(Xhat: NDArray, Xtrue: NDArray, M: NDArray) -> float:
    """Root mean squared error over the masked (M == 0) entries only."""
    Xhat = np.asarray(Xhat, dtype=float)
    Xtrue = np.asarray(Xtrue, dtype=float)
    M = np.asarray(M)
    if not (Xhat.shape == Xtrue.shape == M.shape):
        raise ValueError("Xhat, Xtrue and M must share one shape")
    hole = M == 0
    if not hole.any():
        raise ValueError("empty evaluation set: no masked entries")
    diff = Xhat[hole] - Xtrue[hole]
    return float(np.sqrt(np.mean(diff**2)))


def sep(U_hat: NDArray, U_true: NDArray) -> float:
    """Normalized subspace estimation error in [0, 1].

    Computes tr(U_true^T (I - P_hat) U_true) / r where P_hat projects onto
    span(U_hat); 0 iff the two r-dimensional subspaces coincide, 1 when they
    are orthogonal. Invariant to the basis chosen for either span.
    """
    U_hat = np.asarray(U_hat, dtype=float)
    U_true = np.asarray(U_true, dtype=float)
    if U_hat.ndim != 2 or U_true.ndim != 2 or U_hat.shape != U_true.shape:
        raise ValueError("bases must be p x r matrices of equal shape")
    if U_hat.shape[1] > U_hat.shape[0]:
        raise ValueError("rank r cannot exceed the ambient dimension p")
    r = U_hat.shape[1]
    Qh = _orthonormalize(U_hat)
    Qt = _orthonormalize(U_true)
    C = Qt.T @ Qh
    val = (r - np.sum(C * C)) / r
    return float(min(max(val, 0.0), 1.0))


def _orthonormalize(U: NDArray, name: str = "basis") -> NDArray:
    q, rmat = np.linalg.qr(U)
    if np.min(np.abs(np.diag(rmat))) < 1e-12 * max(1.0, np.abs(rmat).max()):
        raise ValueError(f"rank-deficient {name}")
    return q


# ---------------------------------------------------------------------------
# CSV format: one row per variable, missing entries are empty fields.
# ---------------------------------------------------------------------------


def read_matrix_csv(path, mask_path=None) -> IncompleteMatrix:
    """Read a p x n matrix CSV; empty fields mark missing entries, and every
    other field must be a finite number.

    If mask_path is given, the sidecar 0/1 mask overrides the empty-field
    convention (entries masked out are dropped even if a value is present);
    an empty field the mask marks observed is an error. In a one-column file
    every blank line is a missing entry, trailing ones included; in a wider
    file trailing blank lines are ignored.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n").rstrip("\r") for line in fh]
    if any("," in line for line in lines):
        while lines[-1].strip() == "":
            lines.pop()
    try:
        rows = [[float(tok) if tok.strip() else None for tok in line.split(",")] for line in lines]
    except ValueError:  # locate the field only on this path, so the parse above stays one pass
        for i, line in enumerate(lines):
            for j, tok in enumerate(line.split(",")):
                try:
                    float(tok) if tok.strip() else None
                except ValueError:
                    raise ValueError(f"{path}: {tok!r} at row {i}, column {j} (0-based) is not a number")
        raise
    if not rows:
        raise ValueError(f"no data rows in {path}")
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise ValueError(f"ragged CSV rows in {path}")
    cells = np.array(rows, dtype=object)
    empty = np.equal(cells, None)
    values = cells.astype(float)
    bad = np.argwhere(~empty & ~np.isfinite(values))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"{path}: non-finite value at row {i}, column {j} (0-based)")
    if mask_path is not None:
        try:
            mask = np.loadtxt(mask_path, delimiter=",", dtype=float, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"mask file {mask_path}: {exc}") from exc
        if mask.shape != values.shape:
            raise ValueError(
                f"mask file {mask_path}: shape mismatch: values {values.shape} vs mask {mask.shape}"
            )
        holes = np.argwhere(empty & (mask == 1))
        if len(holes):
            i, j = holes[0]
            raise ValueError(
                f"{path}: empty field at row {i}, column {j} (0-based) "
                f"is marked observed in {mask_path}"
            )
    else:
        mask = (~empty).astype(np.int8)
    return IncompleteMatrix(np.where(empty, 0.0, values), mask)


def write_matrix_csv(path, X, mask=None) -> None:
    """Write a matrix CSV; NaN or mask==0 entries become empty fields."""
    X = np.asarray(X, dtype=float)
    if mask is None:
        mask = ~np.isnan(X)
    else:
        mask = np.asarray(mask) == 1
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(X.shape[0]):
            fields = [
                format_float(X[i, j]) if mask[i, j] else ""
                for j in range(X.shape[1])
            ]
            fh.write(",".join(fields) + "\n")


def write_mask_csv(path, mask) -> None:
    mask = np.asarray(mask).astype(int)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in mask:
            fh.write(",".join(str(int(v)) for v in row) + "\n")


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips a float64 exactly."""
    return repr(float(x))
