"""Maximal anti-commuting generator sets from ranked X-words.

The input is a ranked list of pure-X words (bit masks).  Their binary
vectors form the columns of a GF(2) matrix; after row reduction, unit
columns and e_0 + e_i columns each earn a Z-chain partner picked so the
resulting Y-containing words pairwise anti-commute.  The Z choices are
made in the transformed frame and mapped back through the transpose of
the row transform, which preserves all commutation relations.

The set size is bounded by 2n - 1 on n qubits, and the bound is tight:
the standard chains below realize it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gf2 import (
    BinaryMatrix,
    _uint64_or_none,
    apply_transpose,
    classify_columns,
    rref_with_transform,
)
from .pauli import PauliWord

__all__ = [
    "AnticommutingSet",
    "build_anticommuting_set",
    "canonical_generator",
    "standard_majorana_d",
    "standard_f",
]


def canonical_generator(n: int, x_mask: int) -> PauliWord:
    """Flip the lowest X factor of a pure-X word to Y."""
    if x_mask <= 0:
        raise ValueError("x_mask must be a non-empty X-word")
    return PauliWord(n, x_mask, x_mask & -x_mask)


def standard_majorana_d(i: int, n: int) -> PauliWord:
    """Chain operator y_i z_{i-1} ... z_0 (Jordan-Wigner ladder image)."""
    if not 0 <= i < n:
        raise ValueError("index outside the register")
    return PauliWord(n, 1 << i, (1 << (i + 1)) - 1)


def standard_f(i: int, n: int) -> PauliWord:
    """Chain operator x_0 y_i z_{i+1} ... z_{n-1}, defined for 1 <= i < n."""
    if not 1 <= i < n:
        raise ValueError("index must lie in 1..n-1")
    full = (1 << n) - 1
    return PauliWord(n, (1 << i) | 1, full ^ ((1 << i) - 1))


def _checked_masks(n: int, x_masks: Sequence[int]) -> Sequence[int]:
    """The masks, as a uint64 array up to 64 qubits, once each is checked.

    Valid masks are checked as one array.  Above 64 qubits, or when the
    array check fails, a pass in input order names the first mask that
    is empty, outside n qubits or equal to an earlier one.
    """
    full = (1 << n) - 1
    masks = _uint64_or_none(x_masks) if n <= 64 else None
    if (
        masks is not None
        and not np.any((masks == 0) | (masks > full))
        and len(np.unique(masks)) == len(masks)
    ):
        return masks
    seen: set[int] = set()
    for m in x_masks:
        if m <= 0 or m & ~full:
            raise ValueError(f"X mask {m:#x} empty or outside {n} qubits")
        if m in seen:
            raise ValueError(f"duplicate X mask {m:#x}")
        seen.add(m)
    return list(x_masks)


@dataclass(frozen=True, slots=True)
class AnticommutingSet:
    """Pairwise anti-commuting odd-Y generators and where each came from.

    generators[k] keeps the X mask of the source word source_columns[k];
    kinds[k] is 'primary' or 'secondary' and rows[k] the transformed-frame
    row that fixed its Z-chain.
    """

    n: int
    generators: tuple[PauliWord, ...]
    source_columns: tuple[int, ...]
    kinds: tuple[str, ...]
    rows: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.generators)


def build_anticommuting_set(
    n: int,
    x_masks: list[int] | tuple[int, ...],
    max_generators: int | None = None,
) -> AnticommutingSet:
    """Construct a maximal anti-commuting set from ranked X-words.

    Parameters
    ----------
    n : qubit count.
    x_masks : distinct nonzero X-word bit masks, best ranked first; the
        column order (and therefore the rank order) decides which words
        win generators where the matrix leaves a choice.
    max_generators : optional cap; keeps the first entries in column
        order.

    Returns
    -------
    AnticommutingSet with at most 2n - 1 generators, one per usable
    column, each sharing its source word's X mask and carrying an odd
    number of Y factors.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    if max_generators is not None and max_generators < 0:
        raise ValueError("max_generators must be non-negative")
    columns = _checked_masks(n, x_masks)
    if not len(columns):
        return AnticommutingSet(n, (), (), (), ())

    res = rref_with_transform(BinaryMatrix.from_columns(n, columns))
    classes = classify_columns(res)

    gens: list[PauliWord] = []
    cols: list[int] = []
    kinds: list[str] = []
    rows: list[int] = []
    for col, row, is_secondary in classes.usable:
        if max_generators is not None and len(gens) >= max_generators:
            break
        chain = standard_f(row, n) if is_secondary else standard_majorana_d(row, n)
        z_old = apply_transpose(res.transform, chain.z)
        gens.append(PauliWord(n, x_masks[col], z_old))
        cols.append(col)
        kinds.append("secondary" if is_secondary else "primary")
        rows.append(row)
    return AnticommutingSet(n, tuple(gens), tuple(cols), tuple(kinds), tuple(rows))
