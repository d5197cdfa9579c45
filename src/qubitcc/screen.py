"""Ising-sector decomposition and gradient screening.

A Hamiltonian splits by X mask: H = I_0(z) + sum_m I_m(z) X_m, with the
Y factors of each term factored as y_j = -i z_j x_j.  The z-side
coefficient picks up (-i)^(y count); that phase is +-1 for even Y count
and +-i for odd, so each sector stores an even part and an odd part as
ascending (z_mask, coefficient) tuples with real coefficients, the odd
part understood to carry one extra factor of i.

Every matrix element the estimators need is one sector at one basis
state: ``sector.value(bits)`` is <bits| I_m(z) X_m |bits ^ m>.  At the
reference it is the gradient of the sector's canonical generator,
which is what the screening ranks; the diagonal (m = 0) sector at a
flipped reference gives the Epstein-Nesbet and Brillouin-Wigner
denominators, which ``ilcap`` evaluates for all flips at once in the
same term order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum, ReferenceState, _signed_sum

__all__ = [
    "IsingSector",
    "IsingDecomposition",
    "RankedXWords",
    "ising_decompose",
    "gradients",
]


@dataclass(frozen=True, slots=True)
class IsingSector:
    """One X sector: I(z) stored as even-Y and odd-Y folded parts.

    A term (a, f) in even contributes f * Z_a * X to the Hamiltonian, a
    term (a, g) in odd contributes i * g * Z_a * X, with Z_a the Z
    word on the bits of a and X the X word on the bits of x_mask.  Both
    f and g are real; both parts ascend in a.
    """

    x_mask: int
    even: tuple[tuple[int, float], ...]
    odd: tuple[tuple[int, float], ...]

    def value(self, bits: int) -> complex:
        """<bits| I(z) X |bits ^ x_mask>, in general complex."""
        return complex(_signed_sum(self.even, bits), _signed_sum(self.odd, bits))

    def reference_value(self, ref: ReferenceState) -> complex:
        """<0| I(z) X |0 ^ x_mask>, the sector at the reference."""
        return self.value(ref.occupied_mask)

    def weight(self, ref: ReferenceState) -> float:
        """Gradient magnitude |<0| I(z) X |0 ^ x_mask>|."""
        return abs(self.reference_value(ref))


@dataclass(frozen=True, slots=True)
class IsingDecomposition:
    """Sector split of a Hamiltonian, the diagonal (x_mask 0) kept separate."""

    n: int
    diagonal: IsingSector
    sectors: dict[int, IsingSector]  # keyed by nonzero x_mask, ascending


def _fold_y_phases(h: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """Each term's real z-side coefficient and its odd-Y flag.

    (-i)^k is 1, -i, -1, i for k = 0..3 Y factors: the sign goes into
    the coefficient, and an odd k leaves the one factor of i the odd
    part of a sector carries.
    """
    k = np.bitwise_count(h.x & h.z) & 3
    return np.where((k == 1) | (k == 2), -h.c, h.c), k & 1


def ising_decompose(h: PauliSum) -> IsingDecomposition:
    """Group terms by X mask and fold the Y phases onto the z side."""
    c, odd = _fold_y_phases(h)
    # a stable sort, so each (x, odd) run keeps the canonical ascending z
    order = np.lexsort((odd, h.x))
    x, odd = h.x[order], odd[order]
    cuts = (np.flatnonzero(np.diff(x) | np.diff(odd)) + 1).tolist()
    bounds = [0, *cuts, len(x)] if len(x) else []
    terms = list(zip(h.z[order].tolist(), c[order].tolist()))
    parts: dict[int, list[tuple]] = {0: [(), ()]}
    for lo, hi in zip(bounds, bounds[1:]):
        parts.setdefault(int(x[lo]), [(), ()])[int(odd[lo])] = tuple(terms[lo:hi])
    sectors = {m: IsingSector(m, e, o) for m, (e, o) in parts.items()}
    diagonal = sectors.pop(0)
    return IsingDecomposition(h.n, diagonal, sectors)


@dataclass(frozen=True, slots=True)
class RankedXWords:
    """X masks with gradient weights, sorted descending (ties by mask)."""

    n: int
    masks: tuple[int, ...]
    weights: tuple[float, ...]

    def top(self, count: int) -> tuple[int, ...]:
        return self.masks[:count]

    def __len__(self) -> int:
        return len(self.masks)


def gradients(
    dec: IsingDecomposition,
    ref: ReferenceState,
    *,
    drop_zero: bool = False,
    zero_tol: float = 1e-12,
) -> RankedXWords:
    """Rank the nonzero X sectors by reference gradient magnitude.

    Zero-gradient sectors are kept by default (their generators still
    enter linear-combination treatments); drop_zero removes weights at
    or below zero_tol.
    """
    if dec.n != ref.n:
        raise ValueError("qubit counts differ")
    pairs = [(x, sector.weight(ref)) for x, sector in dec.sectors.items()]
    if drop_zero:
        pairs = [(x, w) for x, w in pairs if w > zero_tol]
    pairs.sort(key=lambda p: (-p[1], p[0]))
    return RankedXWords(
        dec.n,
        tuple(x for x, _ in pairs),
        tuple(w for _, w in pairs),
    )
