"""GF(2) linear algebra on integer-bitset rows.

A matrix is a list of row ints; bit c of row r is the entry at (r, c).
Row reduction runs Gauss-Jordan with deterministic pivoting (leftmost
usable column, topmost candidate row) and tracks the invertible row
transform R with R @ M = M_rref over GF(2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "BinaryMatrix",
    "Gf2Rref",
    "ColumnClasses",
    "rref_with_transform",
    "classify_columns",
    "apply_transpose",
]


def _uint64_or_none(values: Sequence[int]) -> np.ndarray | None:
    """values as a uint64 array, or None if one is negative or wider."""
    try:
        return np.asarray(values, dtype=np.uint64)
    except OverflowError:
        return None


@dataclass(frozen=True, slots=True)
class BinaryMatrix:
    """n_rows x n_cols matrix over GF(2), rows packed as ints."""

    n_rows: int
    n_cols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(self.rows) != self.n_rows:
            raise ValueError("row count mismatch")
        mask = (1 << self.n_cols) - 1
        if any(r & ~mask or r < 0 for r in self.rows):
            raise ValueError("row bits outside the column range")

    @classmethod
    def from_columns(cls, n_rows: int, columns: Sequence[int]) -> "BinaryMatrix":
        """Build from column bitsets (bit j of column k is entry (j, k)).

        Up to 64 rows, the columns go into one uint64 array and row j is
        bit j of every column, packed by ``np.packbits``.  Wider matrices,
        and columns that do not fit, go bit by bit into bytearrays (which
        name the first bad column), so the cost stays linear in the
        column count; setting bits on a wide int directly would copy the
        whole row every time.
        """
        cols = _uint64_or_none(columns) if 0 < n_rows <= 64 else None
        if cols is not None and not np.any(cols > (1 << n_rows) - 1):
            rows = tuple(
                int.from_bytes(
                    np.packbits((cols >> j & 1).astype(np.uint8), bitorder="little").tobytes(),
                    "little",
                )
                for j in range(n_rows)
            )
            return cls(n_rows, len(cols), rows)
        width = (len(columns) + 7) // 8
        bufs = [bytearray(width) for _ in range(n_rows)]
        for k, col in enumerate(columns):
            if col < 0 or col >> n_rows:
                raise ValueError(f"column {k} has bits outside {n_rows} rows")
            m = col
            while m:
                j = (m & -m).bit_length() - 1
                bufs[j][k >> 3] |= 1 << (k & 7)
                m &= m - 1
        rows = tuple(int.from_bytes(buf, "little") for buf in bufs)
        return cls(n_rows, len(columns), rows)

    def column(self, c: int) -> int:
        if not 0 <= c < self.n_cols:
            raise IndexError("column index out of range")
        out = 0
        for j, row in enumerate(self.rows):
            if row >> c & 1:
                out |= 1 << j
        return out


@dataclass(frozen=True, slots=True)
class Gf2Rref:
    """Row-reduced form plus the transform that produced it."""

    matrix: BinaryMatrix
    rref: BinaryMatrix
    transform: tuple[int, ...]  # n_rows ints of n_rows bits each; R @ M = rref
    pivot_cols: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)


def rref_with_transform(matrix: BinaryMatrix) -> Gf2Rref:
    """Gauss-Jordan reduction with the row transform tracked."""
    rows = list(matrix.rows)
    trans = [1 << i for i in range(matrix.n_rows)]
    pivots: list[int] = []
    r = 0
    for c in range(matrix.n_cols):
        if r == matrix.n_rows:
            break
        bit = 1 << c
        pivot = next((i for i in range(r, matrix.n_rows) if rows[i] & bit), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            trans[r], trans[pivot] = trans[pivot], trans[r]
        for i in range(matrix.n_rows):
            if i != r and rows[i] & bit:
                rows[i] ^= rows[r]
                trans[i] ^= trans[r]
        pivots.append(c)
        r += 1
    rref = BinaryMatrix(matrix.n_rows, matrix.n_cols, tuple(rows))
    return Gf2Rref(matrix, rref, tuple(trans), tuple(pivots))


@dataclass(frozen=True, slots=True)
class ColumnClasses:
    """Usable columns of an rref: unit columns and top-paired doubles.

    primary holds (column, row) pairs for columns equal to a unit vector
    e_r; secondary holds (column, partner_row) for columns equal to
    e_0 + e_i with i >= 1.  Both lists are in ascending column order.
    """

    primary: tuple[tuple[int, int], ...]
    secondary: tuple[tuple[int, int], ...]

    @property
    def usable(self) -> tuple[tuple[int, int, bool], ...]:
        """(column, row, is_secondary) merged in ascending column order."""
        merged = [(c, r, False) for c, r in self.primary]
        merged += [(c, r, True) for c, r in self.secondary]
        merged.sort()
        return tuple(merged)


def classify_columns(res: Gf2Rref) -> ColumnClasses:
    """Split rref columns into unit vectors and e_0 + e_i doubles.

    Column population counts come from three bit accumulators swept once
    over the rows, so the per-column work stays O(n_rows) words.
    """
    rows = res.rref.rows
    once = twice = more = 0
    for row in rows:
        more |= twice & row
        twice |= once & row
        once |= row
    single = once & ~twice
    double = twice & ~more & rows[0] if rows else 0

    primary: list[tuple[int, int]] = []
    secondary: list[tuple[int, int]] = []
    for r, row in enumerate(rows):
        hits = row & single
        while hits:
            c = (hits & -hits).bit_length() - 1
            primary.append((c, r))
            hits &= hits - 1
        if r >= 1:
            hits = row & double
            while hits:
                c = (hits & -hits).bit_length() - 1
                secondary.append((c, r))
                hits &= hits - 1
    primary.sort()
    secondary.sort()
    return ColumnClasses(tuple(primary), tuple(secondary))


def apply_transpose(transform: Sequence[int], vec: int) -> int:
    """R^T @ vec over GF(2): XOR of the rows selected by vec's bits."""
    out = 0
    m = vec
    while m:
        j = (m & -m).bit_length() - 1
        out ^= transform[j]
        m &= m - 1
    return out
