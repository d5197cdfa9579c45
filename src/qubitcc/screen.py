"""Ising-sector decomposition and gradient screening.

A Hamiltonian splits by X mask: H = I_0(z) + sum_k I_k(z) X_k, with the
Y factors of each term factored as y_j = -i z_j x_j.  The z-side
coefficient picks up (-i)^(y count); that phase is +-1 for even Y count
and +-i for odd, so each sector stores an even part and an odd part
with real numbers, the odd part understood to carry one extra factor
of i.  The reference expectation magnitude of a sector is the gradient
of the sector's canonical generator, which is what the screening ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pauli import PauliSum, PauliWord, ReferenceState

__all__ = [
    "IsingSector",
    "IsingDecomposition",
    "RankedXWords",
    "ising_decompose",
    "recompose",
    "gradients",
    "diagonal_expectation_flipped",
]


@dataclass(frozen=True, slots=True)
class IsingSector:
    """One X sector: I(z) stored as even-Y and odd-Y folded parts.

    even and odd hold pure-Z words; a term (a, f) in even contributes
    f * Z_a * X to the Hamiltonian, a term (a, g) in odd contributes
    i * g * Z_a * X.  Both f and g are real.
    """

    x_mask: int
    even: PauliSum
    odd: PauliSum

    def reference_value(self, ref: ReferenceState) -> complex:
        """<0| I(z) |0> for this sector, in general complex."""
        return complex(ref.expectation(self.even), ref.expectation(self.odd))

    def weight(self, ref: ReferenceState) -> float:
        """Gradient magnitude |<0| I(z) |0>|."""
        return abs(self.reference_value(ref))


@dataclass(frozen=True, slots=True)
class IsingDecomposition:
    """Sector split of a Hamiltonian, diagonal part kept separate."""

    n: int
    diagonal: PauliSum
    sectors: dict[int, IsingSector]  # keyed by nonzero x_mask, ascending


def ising_decompose(h: PauliSum) -> IsingDecomposition:
    """Group terms by X mask and fold the Y phases onto the z side."""
    diagonal: list[tuple[PauliWord, float]] = []
    even: dict[int, list[tuple[PauliWord, float]]] = {}
    odd: dict[int, list[tuple[PauliWord, float]]] = {}
    for w, c in h.items():
        if w.x == 0:
            diagonal.append((w, c))
            continue
        zw = PauliWord(h.n, 0, w.z)
        k = w.y_count() % 4
        if k == 0:
            even.setdefault(w.x, []).append((zw, c))
        elif k == 2:
            even.setdefault(w.x, []).append((zw, -c))
        elif k == 1:
            odd.setdefault(w.x, []).append((zw, -c))
        else:
            odd.setdefault(w.x, []).append((zw, c))
    sectors: dict[int, IsingSector] = {}
    for x in sorted(set(even) | set(odd)):
        sectors[x] = IsingSector(
            x,
            PauliSum(h.n, even.get(x, [])),
            PauliSum(h.n, odd.get(x, [])),
        )
    return IsingDecomposition(h.n, PauliSum(h.n, diagonal), sectors)


def recompose(dec: IsingDecomposition) -> PauliSum:
    """Invert ising_decompose exactly (pure sign bookkeeping)."""
    terms: list[tuple[PauliWord, float]] = list(dec.diagonal.items())
    for x, sector in dec.sectors.items():
        for zw, f in sector.even.items():
            y = (x & zw.z).bit_count()
            terms.append((PauliWord(dec.n, x, zw.z), f if y % 4 == 0 else -f))
        for zw, g in sector.odd.items():
            y = (x & zw.z).bit_count()
            terms.append((PauliWord(dec.n, x, zw.z), g if y % 4 == 3 else -g))
    return PauliSum(dec.n, terms)


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


def diagonal_expectation_flipped(
    diagonal: PauliSum, ref: ReferenceState, flip_mask: int
) -> float:
    """<0| X_m H_diag X_m |0>: the diagonal part on a flipped reference."""
    if diagonal.n != ref.n:
        raise ValueError("qubit counts differ")
    pattern = ref.occupied_mask ^ flip_mask
    total = 0.0
    for w, c in diagonal.items():
        if w.x:
            raise ValueError("diagonal sum contains a non-diagonal term")
        total += -c if (w.z & pattern).bit_count() & 1 else c
    return total
