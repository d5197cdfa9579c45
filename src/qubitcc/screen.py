"""Ising-sector decomposition and gradient screening.

A Hamiltonian splits by X mask: H = I_0(z) + sum_m I_m(z) X_m, with the
Y factors of each term factored as y_j = -i z_j x_j.  The z-side
coefficient picks up (-i)^(y count); that phase is +-1 for even Y count
and +-i for odd, so each term keeps a real folded coefficient and an
odd flag, the odd terms understood to carry one extra factor of i.

``PauliSum``'s canonical (x, z) order already groups the terms by X
mask with z ascending, so each sector is a run of its term arrays, and
the decomposition is a view of those arrays that copies no term out.
Every matrix element the estimators need is one sector at one basis
state, <b| I_m(z) X_m |b ^ m>, and comes from one of two kernels in
``pauli``: ``_signed_sums`` takes every sector at one or a few states
in one ``np.bincount`` over the terms per block of states
(``IsingDecomposition.at``), and ``_diagonal_at`` takes the diagonal
(m = 0) sector at many states, by a left fold over its T terms or, when
n 2**n < T S for S states, by one Walsh-Hadamard transform of it.  Only
the transform adds in another order than term by term.  At the
reference a sector's value is the gradient of its canonical generator,
which is what the screening ranks; the diagonal at flipped references
gives the Epstein-Nesbet and Brillouin-Wigner denominators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum, ReferenceState, _first_of_runs, _signed_sums

__all__ = [
    "IsingDecomposition",
    "RankedXWords",
    "ising_decompose",
    "gradients",
]


@dataclass(frozen=True, slots=True, eq=False)
class IsingDecomposition:
    """The terms of ``h``, in canonical order, seen as Ising sectors.

    ``masks[k]`` is sector k's X mask, ascending: slot 0 is the
    diagonal (x = 0), kept even when h has no diagonal term, and
    ``sectors`` lists the nonzero masks after it as ints.  Term i
    belongs to sector ``keys[i] >> 1``, bit 0 of its key is its odd-Y
    flag, and ``coefficients[i]`` is its folded real coefficient.
    """

    h: PauliSum
    coefficients: np.ndarray
    keys: np.ndarray
    masks: np.ndarray
    sectors: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.h.n

    def at(self, bits) -> np.ndarray:
        """<b| I_m(z) X_m |b ^ m> for every m in ``masks``, as complex.

        b is the basis state ``bits``, or each of an array of them, which
        adds their axes in front.  Each sector's even and odd parts add
        from 0.0 in canonical order, and each (even, odd) pair is read as
        one complex number.
        """
        sums = _signed_sums(self.h.z, self.coefficients, self.keys, bits, 2 * len(self.masks))
        return sums.view(np.complex128)

    def row(self, bits, kets: np.ndarray) -> np.ndarray:
        """<b|h|k> for every uint64 basis state k in kets.

        That is the b ^ k sector at b, and 0 where h has none.  As in
        ``at``, b is ``bits`` or each of an array of them.
        """
        bits = np.asarray(bits, np.uint64)
        flips = bits[..., None] ^ kets
        run = np.searchsorted(self.masks, flips).clip(max=len(self.masks) - 1)
        values = np.take_along_axis(self.at(bits), run, axis=-1)
        return np.where(self.masks[run] == flips, values, 0j)


# (-i)**k for k = 0..3 Y factors is 1, -i, -1, i: its sign, by k
_Y_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def _fold_y_phases(h: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """Each term's real z-side coefficient and its odd-Y flag.

    The sign of (-i)^k goes into the coefficient (times +-1.0, exact),
    and an odd k leaves the one factor of i the odd part of a sector
    carries.
    """
    k = np.bitwise_count(h.x & h.z) & 3
    return h.c * _Y_SIGNS[k], k & 1


def ising_decompose(h: PauliSum) -> IsingDecomposition:
    """View h's term arrays as Ising sectors, with the Y phases folded."""
    c, odd = _fold_y_phases(h)
    # the diagonal terms lead the canonical order and make up sector 0;
    # each later run of one X mask is the next sector
    new = _first_of_runs(h.x) & (h.x != 0)
    masks = np.concatenate((np.zeros(1, np.uint64), h.x[new]))
    keys = 2 * np.cumsum(new, dtype=np.int32) + odd
    return IsingDecomposition(h, c, keys, masks, tuple(masks[1:].tolist()))


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
    values = dec.at(ref.occupied_mask)[1:]
    # np.hypot rounds as abs(complex) does; np.abs on complex may not
    masks, weights = dec.masks[1:], np.hypot(values.real, values.imag)
    if drop_zero:
        keep = weights > zero_tol
        masks, weights = masks[keep], weights[keep]
    order = np.lexsort((masks, -weights))
    return RankedXWords(dec.n, tuple(masks[order].tolist()), tuple(weights[order].tolist()))
