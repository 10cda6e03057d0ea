"""Data model: mixed datasets, thresholds, and the flattened parameter vector.

Variables are ordered continuous-first: Y_1..Y_c then X_1..X_d. The
correlation vector R flattens the lower triangles of the continuous block
and the ordinal block by columns, with the continuous-ordinal rectangle in
between grouped by continuous variable:

    R = (rho_yy[2,1], rho_yy[3,1], ..., rho_yx[1,1], ..., rho_yx[1,d],
         rho_yx[2,1], ..., rho_xx[2,1], rho_xx[3,1], ...)

The full parameter vector theta is all thresholds (variable by variable,
ascending) followed by R.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    CodeOutOfRange,
    EmptyCategory,
    NonFiniteCell,
    TooFewRows,
)

__all__ = [
    "VariableSpec",
    "MixedDataset",
    "ThresholdSet",
    "CorrelationParams",
    "cut_codes",
    "ingest",
    "ingest_batch",
]


@dataclass(frozen=True)
class VariableSpec:
    """One column: continuous (categories=None) or ordinal with s >= 2 categories."""

    name: str
    categories: int | None = None

    def __post_init__(self):
        if self.categories is not None and self.categories < 2:
            raise ValueError(f"ordinal variable {self.name!r} needs >= 2 categories")

    @property
    def is_ordinal(self) -> bool:
        return self.categories is not None


def _split_specs(specs):
    """Validate continuous-before-ordinal ordering and unique names."""
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError("variable names must be unique")
    kinds = [s.is_ordinal for s in specs]
    c = kinds.count(False)
    if any(kinds[:c]) or not all(kinds[c:]):
        raise ValueError("specs must list all continuous variables before ordinal ones")
    return c, len(specs) - c


@dataclass(frozen=True)
class MixedDataset:
    """Validated n x (c+d) sample: standardized continuous block, coded ordinal block.

    counts holds, ordinal by ordinal, the number of rows in each category
    1..s_i; ``ingest`` passes the counts its checks made, and a dataset
    built without them counts its own codes.
    """

    specs: tuple
    y: np.ndarray  # (n, c) float, standardized
    x: np.ndarray  # (n, d) int codes in 1..s_i
    dropped_rows: int = 0
    standardized: bool = True
    counts: np.ndarray | None = None  # (sum of s_i,) int

    def __post_init__(self):
        if self.counts is None:
            counts = [_category_counts(self.x[None, :, j], sj)[0] for j, sj in enumerate(self.s)]
            object.__setattr__(self, "counts", np.concatenate([np.zeros(0, np.int64), *counts]))

    @property
    def n(self) -> int:
        return self.y.shape[0] if self.c else self.x.shape[0]

    @property
    def c(self) -> int:
        return self.y.shape[1]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def s(self) -> tuple:
        return tuple(sp.categories for sp in self.specs if sp.is_ordinal)

    @property
    def names(self) -> tuple:
        return tuple(sp.name for sp in self.specs)


def _category_counts(codes, sj):
    """(B, s_j) counts of the codes 1..s_j in each row of the (B, n) codes:
    one bincount over the whole stack, row b's codes offset by b (s_j + 1)."""
    B = len(codes)
    offset = (np.arange(B) * (sj + 1))[:, None]
    return np.bincount((codes + offset).ravel(), minlength=B * (sj + 1)).reshape(B, sj + 1)[:, 1:]


def cut_codes(values, cuts) -> np.ndarray:
    """The code of each non-NaN value v cut at the sorted ``cuts``: 1 + the
    number of cuts strictly below v, so a value on a cut takes the lower
    code. Equal to ``np.searchsorted(cuts, values) + 1`` (side left), in the
    smallest unsigned integer type that holds len(cuts) + 1.

    One vectorised comparison per cut, added into that narrow type: on
    200k unsorted values this beats the binary search, whose branches are
    mispredicted, up to about 250 cuts (0.18 against 3.2 ms at 3 cuts, 2.9
    against 8.8 ms at 40, 13.2 against 13.0 ms at 254; one core of a 2-core
    x86-64 machine).
    """
    codes = np.ones(np.shape(values), np.min_scalar_type(len(cuts) + 1))
    for a in cuts:
        codes += values > a
    return codes


def ingest(table, specs, standardize=True) -> MixedDataset:
    """Validate raw rows against specs and standardize continuous columns.

    Rows containing NaN cells are dropped (count reported on the dataset);
    infinite cells are a hard error. Ordinal cells must be integer codes in
    1..s_i with every category observed at least once. Continuous columns
    are standardized to sample mean 0 and sd 1 (divisor n-1); pass
    standardize=False only for inputs already standardized by construction
    (the Monte Carlo generator draws from a unit-variance population): the
    fit's Pearson start and its moment covariance S come from one-pass raw
    sums (sum Z, sum ZZ'), which lose digits on a continuous column far
    from mean 0 relative to its sd. On c = 1, d = 2, n = 5000 the start
    moved from ``np.corrcoef`` by 4.5e-13, 6.9e-9 and 9.4e-5 with Y
    shifted by 1e2, 1e4 and 1e6 sd.

    ``ingest`` is ``ingest_batch`` of one table.
    """
    (data,) = ingest_batch(np.asarray(table, dtype=float)[None], specs, standardize)
    if isinstance(data, Exception):
        raise data
    return data


def ingest_batch(tables, specs, standardize=True) -> list:
    """``ingest`` of each table of the (B, n, c + d) stack ``tables``, with
    each check made once over the stack.

    Returns, per table in order, its MixedDataset or the typed error (a
    MixedCorrError) that ``ingest`` raises on that table alone. The checks
    are those of ``ingest``, made in its order, each over the whole stack;
    a table fails at the first check that finds a problem in it, and keeps
    that error. A stack of the wrong shape raises ValueError. The
    complete tables' datasets are views of one stacked y and x, with the
    category counts the checks made; a table with a NaN cell is ingested
    on its own complete rows.
    """
    specs = tuple(specs)
    c, d = _split_specs(specs)
    raw = np.asarray(tables, dtype=float)
    if raw.ndim != 3 or raw.shape[2] != c + d:
        raise ValueError(f"table must be 2-D with {c + d} columns")
    out = [None] * len(raw)
    complete = np.isfinite(raw).all(axis=(1, 2))
    for b in np.flatnonzero(~complete).tolist():
        if np.isinf(raw[b]).any():
            out[b] = NonFiniteCell("table contains infinite cells")
        else:
            keep = ~np.isnan(raw[b]).any(axis=1)
            dropped = int(raw.shape[1] - keep.sum())
            (out[b],) = _ingest_complete(raw[b][keep][None], specs, c, standardize, dropped)
    ids = np.flatnonzero(complete)
    if len(ids):
        # no copy of an all-complete stack
        whole = raw if len(ids) == len(raw) else raw[ids]
        for b, data in zip(ids.tolist(), _ingest_complete(whole, specs, c, standardize, 0)):
            out[b] = data
    return out


def _ingest_complete(raw, specs, c, standardize, dropped):
    """``ingest_batch`` of a stack of tables with finite cells only."""
    B, n = raw.shape[:2]
    if n < 2:
        return [TooFewRows(f"need at least 2 complete rows, have {n}") for _ in range(B)]
    out = [None] * B

    def fail(mask, error):
        # table i, flagged in mask, fails with error(i) unless it failed before
        for i in np.flatnonzero(mask).tolist():
            if out[i] is None:
                out[i] = error(i)

    y = raw[:, :, :c].copy()
    for j in range(c):
        col = y[:, :, j]
        sd = col.std(axis=1, ddof=1)
        fail((sd == 0.0) | ~np.isfinite(sd), lambda i: NonFiniteCell(
            f"continuous column {specs[j].name!r} cannot be standardized (sd={sd[i]})"))
        if standardize:
            # a failed table's sd of 0 divides without a warning
            with np.errstate(divide="ignore", invalid="ignore"):
                y[:, :, j] = (col - col.mean(axis=1)[:, None]) / sd[:, None]

    ordinal = specs[c:]
    x = np.empty((B, n, len(ordinal)), dtype=np.int64)
    counts = [np.zeros((B, 0), np.int64)]
    for j, sp in enumerate(ordinal):
        col = raw[:, :, c + j]
        # the range is checked on the floats: a code beyond int64 has no cast
        outside = (col.min(axis=1, initial=1) < 1) | (col.max(axis=1, initial=1) > sp.categories)
        # a code in range is an integer where its cast equals it; the codes
        # of a table out of range are counted as 1s
        x[:, :, j] = np.where(outside[:, None], 1.0, col) if outside.any() else col
        fraction = (x[:, :, j] != col).any(axis=1)
        fraction[outside] = (col[outside] != np.round(col[outside])).any(axis=1)
        fail(fraction, lambda i: CodeOutOfRange(
            f"ordinal column {sp.name!r} has non-integer cells"))
        fail(outside, lambda i: CodeOutOfRange(
            f"ordinal column {sp.name!r} has codes outside 1..{sp.categories}"))
        counts.append(_category_counts(x[:, :, j], sp.categories))
        empty = counts[-1] == 0
        fail(empty.any(axis=1), lambda i: EmptyCategory(sp.name, int(np.argmax(empty[i])) + 1))

    counts = np.concatenate(counts, axis=1)
    for a in (y, x, counts):
        a.setflags(write=False)
    return [
        MixedDataset(specs=specs, y=y[i], x=x[i], dropped_rows=dropped, standardized=standardize,
                     counts=counts[i]) if error is None else error
        for i, error in enumerate(out)
    ]


class ThresholdSet:
    """Per ordinal variable, the strictly increasing interior cut points a_{i,1..s_i-1}.

    The boundary thresholds a_{i,0} = -inf and a_{i,s_i} = +inf are implicit;
    with_bounds() materializes them.
    """

    def __init__(self, cuts):
        self._cuts = tuple(np.asarray(a, dtype=float).reshape(-1) for a in cuts)
        for i, a in enumerate(self._cuts):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"thresholds of variable {i} must be finite")
            if a.size > 1 and np.any(np.diff(a) <= 0):
                raise ValueError(f"thresholds of variable {i} must be strictly increasing")
            a.setflags(write=False)

    def __len__(self):
        return len(self._cuts)

    def __getitem__(self, i) -> np.ndarray:
        return self._cuts[i]

    def __eq__(self, other):
        return isinstance(other, ThresholdSet) and all(
            np.array_equal(a, b) for a, b in zip(self._cuts, other._cuts)
        ) and len(self) == len(other)

    def with_bounds(self, i) -> np.ndarray:
        """Thresholds of variable i including the -inf / +inf sentinels."""
        return np.concatenate(([-np.inf], self._cuts[i], [np.inf]))

    def to_array(self) -> np.ndarray:
        return np.concatenate(self._cuts) if self._cuts else np.empty(0)

    @property
    def sizes(self) -> tuple:
        return tuple(a.size for a in self._cuts)

    @staticmethod
    def from_array(values, sizes) -> "ThresholdSet":
        values = np.asarray(values, dtype=float)
        out, pos = [], 0
        for m in sizes:
            out.append(values[pos : pos + m])
            pos += m
        return ThresholdSet(out)

    def __repr__(self):
        return f"ThresholdSet({[list(a) for a in self._cuts]})"


# Coefficient kinds in flattening order.
KIND_PEARSON = "pearson"
KIND_POLYSERIAL = "polyserial"
KIND_POLYCHORIC = "polychoric"


def coefficient_order(c: int, d: int):
    """Canonical flattened order of R as (kind, i, j) with 1-based indices.

    Pearson (i, j): corr(Y_i, Y_j), lower triangle by columns (j < i).
    Polyserial (i1, i2): corr(Y_i1, Z_i2), grouped by Y, ordinal index fastest.
    Polychoric (i2, j2): corr(Z_i2, Z_j2), lower triangle by columns (j2 < i2).
    """
    out = []
    for j in range(1, c + 1):
        for i in range(j + 1, c + 1):
            out.append((KIND_PEARSON, i, j))
    for i1 in range(1, c + 1):
        for i2 in range(1, d + 1):
            out.append((KIND_POLYSERIAL, i1, i2))
    for j2 in range(1, d + 1):
        for i2 in range(j2 + 1, d + 1):
            out.append((KIND_POLYCHORIC, i2, j2))
    return out


def coefficient_variables(c: int, kind, i, j):
    """0-based positions in Y_1..Y_c, X_1..X_d of the two variables of
    coefficient (kind, i, j), in the order the label names them (a
    polyserial's Y first)."""
    return (
        c + i - 1 if kind == KIND_POLYCHORIC else i - 1,
        j - 1 if kind == KIND_PEARSON else c + j - 1,
    )


@functools.cache
def _lower_triangle(c, d):
    """The (row, column) of each coefficient of R, in the coefficient
    order, in the lower triangle of the (c+d) x (c+d) matrix: the one map
    from a coefficient to its matrix position. Cached per (c, d), so the
    arrays are read-only."""
    pos = np.array([coefficient_variables(c, *lab) for lab in coefficient_order(c, d)],
                   dtype=int).reshape(-1, 2)
    rows, cols = pos.max(axis=1), pos.min(axis=1)
    for a in (rows, cols):
        a.setflags(write=False)
    return rows, cols


@dataclass(frozen=True)
class CorrelationParams:
    """Flattened mixed correlation vector with its index map.

    values follows coefficient_order(c, d); every entry lies in
    (-RHO_MAX, RHO_MAX). NaN entries mark coefficients excluded from a
    custom system.
    """

    c: int
    d: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if vals.size != (self.c + self.d) * (self.c + self.d - 1) // 2:
            raise ValueError("correlation vector has wrong length")
        finite = vals[~np.isnan(vals)]
        if np.any(np.abs(finite) >= 1.0):
            raise ValueError("correlations must lie strictly inside (-1, 1)")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def labels(self):
        return coefficient_order(self.c, self.d)

    def to_matrix(self) -> np.ndarray:
        """Full symmetric (c+d) x (c+d) matrix with unit diagonal."""
        rows, cols = _lower_triangle(self.c, self.d)
        mat = np.eye(self.c + self.d)
        mat[rows, cols] = mat[cols, rows] = self.values
        return mat

    @staticmethod
    def from_matrix(mat, c: int, d: int) -> "CorrelationParams":
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (c + d, c + d):
            raise ValueError("matrix has wrong shape")
        return CorrelationParams(c, d, mat[_lower_triangle(c, d)])
