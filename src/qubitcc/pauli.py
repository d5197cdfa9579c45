"""Pauli word algebra on bit-packed symplectic masks.

A Pauli word on n qubits is stored phase-free as a pair of integer bit
masks ``(x, z)``: bit j of ``x`` set means an X factor on qubit j, bit j
of ``z`` a Z factor, and both bits together a Y factor.  Every stored
word is Hermitian by construction.  Phases arise in two places only.
``multiply(a, b)`` returns ``(word, k)`` with ``k`` an int in 0..3 such
that a*b = i**k * word, and ``I_POWERS[k]`` is i**k; acting on a
computational basis state, ``basis_image(w, bits)`` returns
``(image, k)`` with w|bits> = i**k |image>.  This module is the only
place that knows these conventions; its private array helpers apply
the same product and order rules to uint64 mask arrays.

Sums of words carry real coefficients and keep their terms as mask
arrays in a canonical order (lexicographic on the ``(x, z)`` pair), so
any two routes to the same operator accumulate bit-identical results.
Grouping sorts one packed key ``(x << w) | z`` when the masks fit in
w <= 32 bits (with the row index packed below it when that fits too),
and lexsorts the two masks above that; an unstable sort is exact there,
since duplicates are summed in input order by index, not in sorted
order.  Conjugation by a word does not regroup a sum on
up to 32 qubits: it sorts only the new product words by the packed key
(w the qubit count) and merges them into the terms already in order.

The diagonal of a sum at S basis states (``_diagonal_at``, from its T
diagonal terms) takes the cheaper of two routes.  When n 2**n < T S,
on at most _WALSH_QUBIT_CAP qubits, one fast Walsh-Hadamard transform
gives all 2**n values in n 2**n additions, read at the S states;
otherwise a blocked left fold costs T S sign applications.  Only the
fold adds each state's terms left to right in canonical order, bit for
bit the sum term by term; the transform adds them in a butterfly tree
and agrees to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "I_POWERS",
    "SUM_QUBIT_CAP",
    "PauliWord",
    "PauliSum",
    "ReferenceState",
    "multiply",
    "basis_image",
    "commutes",
    "conjugate_by_word",
    "half_commutator",
]

# i**k for k = 0..3; complex entries keep every product a complex multiply
I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)

SUM_QUBIT_CAP = 64  # a PauliSum's masks are uint64; a PauliWord has no width limit


@dataclass(frozen=True, slots=True)
class PauliWord:
    """Hermitian Pauli word on ``n`` qubits, phase-free by convention."""

    n: int
    x: int = 0
    z: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("a Pauli word needs at least one qubit")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("mask bits outside the qubit range")
        if self.x < 0 or self.z < 0:
            raise ValueError("masks must be non-negative")

    @classmethod
    def identity(cls, n: int) -> "PauliWord":
        return cls(n, 0, 0)

    @classmethod
    def from_factors(cls, n: int, factors: Iterable[tuple[str, int]]) -> "PauliWord":
        """Build a word from (letter, qubit) pairs, letters in 'XYZ'."""
        x = z = 0
        for letter, j in factors:
            if not 0 <= j < n:
                raise ValueError(f"qubit index {j} outside 0..{n - 1}")
            bit = 1 << j
            if (x | z) & bit:
                raise ValueError(f"duplicate qubit index {j}")
            if letter == "X":
                x |= bit
            elif letter == "Y":
                x |= bit
                z |= bit
            elif letter == "Z":
                z |= bit
            else:
                raise ValueError(f"unknown Pauli letter {letter!r}")
        return cls(n, x, z)

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def weight(self) -> int:
        """Number of non-identity single-qubit factors."""
        return (self.x | self.z).bit_count()

    def y_count(self) -> int:
        return (self.x & self.z).bit_count()

    def letter(self, j: int) -> str:
        """Single-qubit factor at qubit j, one of 'IXYZ'."""
        bit = 1 << j
        return "IXZY"[bool(self.x & bit) + 2 * bool(self.z & bit)]

    def to_text(self) -> str:
        """Word in the text format: 'X0 Y2 Z5' style, or 'I'."""
        if self.is_identity:
            return "I"
        parts = []
        support = self.x | self.z
        while support:
            j = (support & -support).bit_length() - 1
            parts.append(f"{self.letter(j)}{j}")
            support &= support - 1
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_text()


def commutes(a: PauliWord, b: PauliWord) -> bool:
    """True when the two words commute (symplectic form is even)."""
    if a.n != b.n:
        raise ValueError("qubit counts differ")
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


def multiply(a: PauliWord, b: PauliWord) -> tuple[PauliWord, int]:
    """Exact product a*b as (word, k) with a*b = i**k * word.

    k is an int in 0..3, the power of i relating the Hermitian result
    word to the literal operator product; I_POWERS[k] is its value.
    """
    if a.n != b.n:
        raise ValueError("qubit counts differ")
    x = a.x ^ b.x
    z = a.z ^ b.z
    k = (
        (a.x & a.z).bit_count()
        + (b.x & b.z).bit_count()
        + 2 * (a.z & b.x).bit_count()
        - (x & z).bit_count()
    )
    return PauliWord(a.n, x, z), k & 3


def basis_image(word: PauliWord, bits: int) -> tuple[int, int]:
    """word|bits> as (image, k) with word|bits> = i**k |image>.

    image is bits ^ word.x; each Y contributes -i (y = -i z x) and each
    Z that meets a set bit of the image contributes -1.
    """
    image = bits ^ word.x
    return image, (3 * word.y_count() + 2 * (word.z & image).bit_count()) & 3


def _mask_product(ax, az, bx, bz) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``multiply`` broadcast over uint64 masks: a*b = i**k * (x, z).

    k is uint8 in 0..3; its popcount sum wraps modulo 256, a multiple
    of 4, so the final ``& 3`` is exact.
    """
    x = ax ^ bx
    z = az ^ bz
    k = (
        np.bitwise_count(ax & az)
        + np.bitwise_count(bx & bz)
        + 2 * np.bitwise_count(az & bx)
        - np.bitwise_count(x & z)
    )
    return x, z, k & 3


def _first_of_runs(a: np.ndarray) -> np.ndarray:
    """True at each entry of a sorted array that differs from the one before."""
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return first


# (term, state) signs that one block of ``_diagonal_at``'s fold holds
_DIAGONAL_CELLS = 1 << 16
# (term, state) cells that one block of ``_signed_sums`` holds; its
# temporaries peak at about 17 bytes a cell, under 20 MB a block
_SIGNED_CELLS = 1 << 20
# the diagonal is a Walsh-Hadamard transform on at most this many
# qubits: its two buffers of 2**n floats then take at most 64 MB
_WALSH_QUBIT_CAP = 22

# <b|Z_z|b> by the parity of the set bits b and z share; c times either
# is exact, the same bits as c or -c
_SIGNS = np.array([1.0, -1.0])
_SIGN_BIT = np.uint64(63)


def _signed_sums(z, c, keys, states, size: int) -> np.ndarray:
    """Per state and key, the sum over its terms of c times <b|Z_z|b>.

    Z_z is -1 on a basis state that shares an odd number of set bits
    with z.  ``states`` is one uint64 basis state or an array of them;
    the result has its shape plus one axis of ``size`` keys.  Each block
    of at most max(1, _SIGNED_CELLS // terms) states is one
    ``np.bincount``, each state over its own range of keys, and it adds
    in input order from 0.0, so each key's total at each state is a left
    fold over its terms in the order given, whatever the blocks.
    """
    states = np.asarray(states, np.uint64)
    flat = states.reshape(-1, 1)
    step = max(1, _SIGNED_CELLS // max(len(z), 1))
    sums = np.empty((len(flat), size))
    for lo in range(0, len(flat), step):
        block = flat[lo : lo + step]
        signed = c * _SIGNS[np.bitwise_count(z & block) & 1]
        ranges = keys + size * np.arange(len(block))[:, None]
        sums[lo : lo + len(block)] = np.bincount(
            ranges.ravel(), weights=signed.ravel(), minlength=size * len(block)
        ).reshape(-1, size)
    return sums.reshape(states.shape + (size,))


def _diagonal_at(h: PauliSum, states: np.ndarray) -> np.ndarray:
    """<b|h|b> for every uint64 basis state b in states at once.

    The diagonal (x = 0) terms lead the canonical order.  With T of
    them, S states and n qubits, the cheaper of two routes runs:

    - n 2**n < T S (and n <= _WALSH_QUBIT_CAP): the diagonal at all
      2**n states is the Walsh-Hadamard transform of the coefficients
      placed at index z (``_walsh_hadamard``), read at each state.  Its
      additions form a butterfly tree, so it agrees with the fold to
      rounding, not bit for bit.
    - otherwise, a left fold: blocks of at most _DIAGONAL_CELLS
      (term, state) signs are reduced over the term axis below the
      running totals, which numpy adds row after row while a row has two
      or more entries (one alone it would sum pairwise, so there are
      never fewer than two columns).  Each state's total is therefore
      the same left fold from 0.0 in ascending z that ``_signed_sums``
      takes at one state.  A sign is applied by moving the parity of
      z & b into c's sign bit, in one buffer that every block reuses.
    """
    end = int(np.searchsorted(h.x, np.uint64(0), "right"))
    width = len(states)
    if h.n <= _WALSH_QUBIT_CAP and h.n << h.n < end * width:
        spectrum = np.zeros(1 << h.n)
        spectrum[h.z[:end]] = h.c[:end]
        return _walsh_hadamard(spectrum)[states]
    rows = max(1, _DIAGONAL_CELLS // max(width, 2))
    block = np.zeros((min(rows, end) + 1, max(width, 2)))
    bits = block.view(np.uint64)
    parity = np.empty((min(rows, end), width), np.uint8)
    c = h.c.view(np.uint64)
    for lo in range(0, end, rows):
        hi = min(lo + rows, end)
        signed, odd = bits[1 : hi - lo + 1, :width], parity[: hi - lo]
        np.bitwise_and(h.z[lo:hi, None], states, out=signed)
        np.bitwise_count(signed, out=odd)
        np.left_shift(odd, _SIGN_BIT, out=signed)
        np.bitwise_xor(signed, c[lo:hi, None], out=signed)
        block[0] = np.add.reduce(block[: hi - lo + 1], axis=0)
    return block[0, :width].copy()


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """sum over z of a[z] (-1)**popcount(z & b), at every b < len(a) = 2**n.

    Constant geometry (Pease): each of the n stages writes the sums of
    the pairs (2i, 2i + 1) to the first half of the other buffer and
    their differences to the second half, which rotates the index bits
    by one; after n stages they are back in place.  Every stage reads
    at stride 2 and writes contiguously: at n = 16 the transform takes
    0.9 ms on one Xeon core, against 2.4 ms for butterflies at doubling
    strides.  ``a`` is overwritten.
    """
    half = len(a) // 2
    out = np.empty_like(a)
    for _ in range(len(a).bit_length() - 1):
        pairs = a.reshape(half, 2)
        np.add(pairs[:, 0], pairs[:, 1], out=out[:half])
        np.subtract(pairs[:, 0], pairs[:, 1], out=out[half:])
        a, out = out, a
    return a


def _group_masks(x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (x, z) pairs in canonical order, and each input's index among them.

    When both masks fit in w <= 32 bits, the packed key (x << w) | z
    orders numerically as (x, z) does lexicographically.  When the row
    index also fits in the b = ceil(log2 rows) bits left, ``np.sort`` of
    (key << b) | row gives the sorted keys and their rows at once, which
    is faster than an argsort; otherwise one argsort of the key, and
    above 32 bits the two-key lexsort.  The order of ties does not
    matter: a row's group index does not depend on it, and the callers
    add duplicates with ``np.bincount`` in input order.
    """
    rows = len(x)
    w = int((x | z).max(initial=0)).bit_length()
    b = max(rows - 1, 0).bit_length()
    # in-place steps: a fresh array of this size costs as much as a pass
    if 2 * w <= 64:
        key = x << np.uint64(w)
        key |= z
        if 2 * w + b <= 64:
            key <<= np.uint64(b)
            key |= np.arange(rows, dtype=np.uint64)
            key.sort()
            order = key & np.uint64((1 << b) - 1)
            key >>= np.uint64(b)
        else:
            order = np.argsort(key)
            key = key[order]
        first = _first_of_runs(key)
        ux = key[first]
        uz = ux & np.uint64((1 << w) - 1)
        ux >>= np.uint64(w)
    else:
        order = np.lexsort((z, x))
        xs, zs = x[order], z[order]
        first = _first_of_runs(xs) | _first_of_runs(zs)
        ux, uz = xs[first], zs[first]
    runs = np.cumsum(first, dtype=np.int32 if rows < 1 << 31 else np.intp)
    runs -= 1
    inverse = np.empty(rows, dtype=np.intp)
    inverse[order] = runs
    return ux, uz, inverse


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _sum_width(n: int) -> int:
    if not 1 <= n <= SUM_QUBIT_CAP:
        raise ValueError(f"a Pauli sum spans 1 to {SUM_QUBIT_CAP} qubits, got {n}")
    return n


class PauliSum:
    """Real linear combination of Pauli words in canonical term order.

    The terms are read-only arrays: distinct uint64 masks ``x`` and
    ``z`` ascending in (x, z), and nonzero float64 coefficients ``c``.
    """

    __slots__ = ("n", "x", "z", "c")

    def __init__(self, n: int, terms: Iterable[tuple[PauliWord, float]] = ()):
        self.n = _sum_width(n)
        pairs = list(terms)
        if any(word.n != n for word, _ in pairs):
            raise ValueError("term qubit count differs from the sum's")
        self._assign(
            np.fromiter((w.x for w, _ in pairs), np.uint64, len(pairs)),
            np.fromiter((w.z for w, _ in pairs), np.uint64, len(pairs)),
            np.fromiter((float(c) for _, c in pairs), np.float64, len(pairs)),
        )

    @classmethod
    def from_masks(cls, n: int, x, z, c) -> "PauliSum":
        """The sum over i of c[i] times the word (x[i], z[i]).

        Duplicate words add up in input order (``np.bincount`` is a
        sequential loop) and exact zeros drop out.
        """
        out = cls.__new__(cls)
        out.n = _sum_width(n)
        out._assign(np.asarray(x, np.uint64), np.asarray(z, np.uint64), np.asarray(c, np.float64))
        return out

    @classmethod
    def _canonical(cls, n: int, x: np.ndarray, z: np.ndarray, c: np.ndarray) -> "PauliSum":
        """A sum over masks already distinct and in canonical order."""
        out = cls.__new__(cls)
        out.n = n
        out._adopt(x, z, c)
        return out

    def _assign(self, x: np.ndarray, z: np.ndarray, c: np.ndarray) -> None:
        ux, uz, inverse = _group_masks(x, z)
        if int((ux | uz).max(initial=0)) >> self.n:
            raise ValueError("mask bits outside the qubit range")
        self._adopt(ux, uz, np.bincount(inverse, weights=c, minlength=len(ux)))

    def _adopt(self, x: np.ndarray, z: np.ndarray, c: np.ndarray) -> None:
        """Store canonical-order arrays as they are; exact zeros drop out."""
        keep = c != 0.0
        if not keep.all():
            x, z, c = x[keep], z[keep], c[keep]
        self.x, self.z, self.c = _read_only(x, z, c)

    def items(self) -> Iterator[tuple[PauliWord, float]]:
        return zip(self.words(), self.c.tolist())

    def words(self) -> Iterator[PauliWord]:
        return (PauliWord(self.n, a, b) for a, b in zip(self.x.tolist(), self.z.tolist()))

    def coefficient(self, word: PauliWord) -> float:
        if word.n != self.n:
            return 0.0
        hit = self.c[(self.x == np.uint64(word.x)) & (self.z == np.uint64(word.z))]
        return float(hit[0]) if len(hit) else 0.0

    def __contains__(self, word: PauliWord) -> bool:
        return self.coefficient(word) != 0.0  # no stored coefficient is zero

    def __len__(self) -> int:
        return len(self.c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        pairs = zip((self.x, self.z, self.c), (other.x, other.z, other.c))
        return self.n == other.n and all(np.array_equal(a, b) for a, b in pairs)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        return PauliSum.from_masks(
            self.n,
            np.concatenate((self.x, other.x)),
            np.concatenate((self.z, other.z)),
            np.concatenate((self.c, other.c)),
        )

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __mul__(self, scalar: float) -> "PauliSum":
        # scaling keeps the words distinct and in order; 0.0 + v == v, so
        # this is what from_masks would add up
        return PauliSum._canonical(self.n, self.x, self.z, self.c * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "PauliSum":
        return self * -1.0

    def __repr__(self) -> str:
        return f"PauliSum(n={self.n}, terms={len(self)})"

    def max_abs_coefficient(self) -> float:
        return float(np.max(np.abs(self.c), initial=0.0))

    def truncate(self, threshold: float) -> "PauliSum":
        """Drop every term with coefficient magnitude below ``threshold``.

        The one pruning rule: the mapping's final drop and every dressing
        step prune through it.  A nan or negative threshold raises; when
        nothing drops, ``self`` comes back, and at 0 without a pass over
        the terms, as no stored coefficient is zero.
        """
        if not threshold >= 0.0:
            raise ValueError(f"threshold must be non-negative, got {threshold!r}")
        if threshold == 0.0:
            return self
        keep = np.abs(self.c) >= threshold
        if keep.all():
            return self
        return PauliSum._canonical(self.n, self.x[keep], self.z[keep], self.c[keep])

    # -- text round trip ------------------------------------------------

    @classmethod
    def from_text(cls, text: str, n: int | None = None) -> "PauliSum":
        """Parse the line-oriented Hamiltonian text format.

        Each non-blank line is a decimal coefficient followed by either
        the literal ``I`` or whitespace-separated factors ``X<j>``,
        ``Y<j>``, ``Z<j>`` with strictly increasing 0-based qubit
        indices.  Lines starting with ``#`` are skipped, save a
        ``# qubits: N`` header, and a nan or inf coefficient raises.  The
        qubit count is ``n`` if given, else the header's N, else one past
        the largest index; an index outside the first two raises.
        """
        parsed: list[tuple[float, list[tuple[str, int]]]] = []
        max_index = -1
        header = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                key, _, value = line[1:].partition(":")
                if key.strip() == "qubits":
                    try:
                        header = int(value)
                    except ValueError:
                        raise ValueError(f"line {lineno}: bad qubit count {value!r}") from None
                continue
            tokens = line.split()
            try:
                coeff = float(tokens[0])
            except ValueError:
                raise ValueError(f"line {lineno}: bad coefficient {tokens[0]!r}") from None
            if not math.isfinite(coeff):
                raise ValueError(f"line {lineno}: non-finite coefficient {tokens[0]!r}")
            if len(tokens) < 2:
                raise ValueError(f"line {lineno}: missing Pauli word")
            factors: list[tuple[str, int]] = []
            if tokens[1:] != ["I"]:
                prev = -1
                for tok in tokens[1:]:
                    if len(tok) < 2 or tok[0] not in "XYZ":
                        raise ValueError(f"line {lineno}: bad factor {tok!r}")
                    try:
                        j = int(tok[1:])
                    except ValueError:
                        raise ValueError(f"line {lineno}: bad factor {tok!r}") from None
                    if j == prev:
                        raise ValueError(f"line {lineno}: duplicate qubit index {j}")
                    if j < prev:
                        raise ValueError(f"line {lineno}: indices must increase")
                    factors.append((tok[0], j))
                    prev = j
                max_index = max(max_index, prev)
            parsed.append((coeff, factors))
        if n is None:
            n = max(max_index + 1, 1) if header is None else header
        if max_index >= n:
            raise ValueError(f"qubit index {max_index} outside the declared {n} qubits")
        terms = [(PauliWord.from_factors(n, f), c) for c, f in parsed]
        return cls(n, terms)

    def to_text(self) -> str:
        """Emit the text format, one term per line in canonical order.

        Each line is the coefficient as ``f"{c:.17g}"`` and the word as
        ``PauliWord.to_text`` writes it.  The words are built four qubits
        at a time: each term's (x, z) nibbles pick a fragment such as
        " X4 Y6" from a table made for the codes that occur.
        """
        words = np.full(len(self.c), "", dtype=object)
        for lo in range(0, self.n, 4):
            codes = (((self.x >> lo) & 15) | (((self.z >> lo) & 15) << 4)).astype(np.intp)
            table = np.empty(256, dtype=object)
            for code in np.flatnonzero(np.bincount(codes, minlength=256)).tolist():
                table[code] = "".join(
                    f" {'IXZY'[(code >> j & 1) + 2 * (code >> (j + 4) & 1)]}{lo + j}"
                    for j in range(4)
                    if code >> j & 0x11
                )
            words += table[codes]
        words[(self.x | self.z) == 0] = " I"
        coefficients = np.array([f"{c:.17g}" for c in self.c.tolist()], dtype=object)
        return "\n".join((coefficients + words).tolist())


@dataclass(frozen=True, slots=True)
class ReferenceState:
    """Product reference: the first ``n_elec`` qubits down (z = -1), the rest up."""

    n: int
    n_elec: int

    def __post_init__(self) -> None:
        if not 0 <= self.n_elec <= self.n:
            raise ValueError(f"n_elec must lie in 0..{self.n}")

    @property
    def occupied_mask(self) -> int:
        return (1 << self.n_elec) - 1

    def expectation(self, h: PauliSum) -> float:
        """<0|h|0>, only diagonal terms contribute."""
        if h.n != self.n:
            raise ValueError("qubit counts differ")
        return float(_diagonal_at(h, np.array([self.occupied_mask], np.uint64))[0])


def conjugate_by_word(h: PauliSum, generator: PauliWord, t: float) -> PauliSum:
    """exp(+i t G/2) h exp(-i t G/2) expanded exactly in the word basis.

    Terms commuting with the generator pass through unchanged; the
    anti-commuting ones are scaled by cos(t) in place, and sin(t) times
    the half commutator is merged in.  Its words are distinct, so only
    they are sorted: a product that is already a word of h adds to that
    term, (0.0 + c cos t) + s as ``from_masks`` would sum it, and the
    rest are scattered between h's terms.  A sum on more than 32 qubits
    has no packed key, and there all rows are grouped in one sort.
    No truncation happens here.
    """
    if generator.n != h.n:
        raise ValueError("qubit counts differ")
    if not math.isfinite(t):
        raise ValueError(f"rotation angle must be finite, got {t!r}")
    at, x, z, s = _half_commutator_rows(generator, h)
    if not len(at):
        return h
    c = h.c.copy()
    c[at] *= math.cos(t)
    s *= math.sin(t)
    if 2 * h.n > 64:
        return PauliSum.from_masks(
            h.n, np.concatenate((h.x, x)), np.concatenate((h.z, z)), np.concatenate((c, s))
        )
    w = np.uint64(h.n)
    key = (x << w) | z
    order = np.argsort(key, kind="stable")  # the keys come in sorted runs, which merge fast
    key = key[order]
    old = (h.x << w) | h.z
    pos = np.searchsorted(old, key)
    hit = old.take(pos, mode="clip") == key
    c[pos[hit]] += s[order[hit]]
    new = order[~hit]
    slot = pos[~hit] + np.arange(len(new))
    fresh = np.zeros(len(c) + len(new), dtype=bool)
    fresh[slot] = True
    stay = np.flatnonzero(~fresh)
    out = []
    for mine, theirs in ((h.x, x), (h.z, z), (c, s)):
        merged = np.empty(len(fresh), mine.dtype)
        merged[slot] = theirs[new]
        merged[stay] = mine
        out.append(merged)
    return PauliSum._canonical(h.n, *out)


def _half_commutator_rows(
    generator: PauliWord, h: PauliSum
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``half_commutator`` as rows in h's term order, unsorted.

    Returns the indices of h's anti-commuting terms and the (x, z, c)
    rows of their products with the generator; the rows' words are
    distinct, since multiplying by one word is a bijection.
    """
    gx, gz = np.uint64(generator.x), np.uint64(generator.z)
    at = np.flatnonzero((np.bitwise_count((gx & h.z) ^ (gz & h.x)) & 1).astype(bool))
    x, z, k = _mask_product(gx, gz, h.x[at], h.z[at])
    c = h.c[at]
    # k is odd on these rows, and i * i**k is -1 (k=1) or +1 (k=3)
    return at, x, z, np.where(k == 1, -c, c)


def half_commutator(generator: PauliWord, h: PauliSum) -> PauliSum:
    """(i/2)[generator, h] as a real-coefficient sum.

    This is the derivative at t = 0 of the conjugation above, whose
    sin(t) part it is, as it is of ``ilcap.dress_with_combination``'s.
    Amplitude gradients do not use it: ``qcc`` takes them on the
    determinant subspace.  Its words are distinct, one per
    anti-commuting term of h.
    """
    if generator.n != h.n:
        raise ValueError("qubit counts differ")
    _, x, z, c = _half_commutator_rows(generator, h)
    return PauliSum.from_masks(h.n, x, z, c)
