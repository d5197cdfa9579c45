import itertools
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qubitcc
from qubitcc import chemio, fci, pauli
from qubitcc.chemio import FcidumpData, _parse_header, parse_fcidump
from qubitcc.ilcap import EnResult
from qubitcc.pauli import (
    I_POWERS,
    PauliSum,
    PauliWord,
    ReferenceState,
    commutes,
    multiply,
)

DATA_DIR = Path(__file__).parent / "data"

# two degenerate orbitals with a large exchange integral: the lowest
# 2-electron state is the triplet at 0.55 Eh, the lowest singlet 0.75 Eh
HUND_FCIDUMP = """&FCI NORB=2,NELEC=2,MS2=0,
&END
1.0 1 1 1 1
1.0 2 2 2 2
0.8 1 1 2 2
0.3 1 2 1 2
-0.1 1 1 0 0
-0.1 2 2 0 0
0.25 0 0 0 0
"""


def fresh_interpreter(code: str) -> str:
    """stdout of code run in a new interpreter, so modules imported by other tests cannot hide a leak."""
    src = str(Path(qubitcc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def clear_shape_caches() -> None:
    """Drop every plan and table that chemio and fci keep per shape."""
    for kept in (chemio._orbits, chemio._jw_plan, fci._replacements, fci._identity_images):
        kept.cache_clear()


def random_word(rng: random.Random, n: int) -> PauliWord:
    while True:
        x = rng.getrandbits(n)
        z = rng.getrandbits(n)
        if x or z:
            return PauliWord(n, x, z)


def random_even_word(rng: random.Random, n: int) -> PauliWord:
    """Nonidentity word with an even Y count, i.e. a real matrix."""
    while True:
        w = random_word(rng, n)
        if w.y_count() % 2 == 0:
            return w


def random_sum(rng: random.Random, n: int, n_terms: int) -> PauliSum:
    terms: dict[PauliWord, float] = {}
    for _ in range(n_terms):
        w = random_word(rng, n)
        terms[w] = terms.get(w, 0.0) + rng.uniform(-1.0, 1.0)
    return PauliSum(n, list(terms.items()))


def random_even_sum(rng: random.Random, n: int, n_terms: int) -> PauliSum:
    terms: dict[PauliWord, float] = {}
    for _ in range(n_terms):
        w = random_even_word(rng, n)
        terms[w] = terms.get(w, 0.0) + rng.uniform(-1.0, 1.0)
    return PauliSum(n, list(terms.items()))


def random_fcidump(rng: random.Random, n_orb: int, n_elec: int, e_core: float) -> FcidumpData:
    """Random 8-fold-symmetric integrals, about a third of them exactly zero.

    Written as FCIDUMP text (values by repr, so they parse back exactly)
    and read by the parser, which fills in the symmetric partners.
    """
    def value() -> float:
        return 0.0 if rng.random() < 1 / 3 else rng.uniform(-1.0, 1.0)

    lines = [f"&FCI NORB={n_orb},NELEC={n_elec},MS2=0,", "&END"]
    pairs = [(i, j) for i in range(1, n_orb + 1) for j in range(1, i + 1)]
    for a, (i, j) in enumerate(pairs):
        lines += [f"{value()!r} {i} {j} {k} {l}" for k, l in pairs[: a + 1]]
    lines += [f"{value()!r} {i} {j} 0 0" for i, j in pairs]
    lines.append(f"{e_core!r} 0 0 0 0")
    return parse_fcidump("\n".join(lines))


def reference_parse_fcidump(text):
    """``chemio.parse_fcidump`` one line at a time: the check for its array reader."""
    fields, body_start = _parse_header(text)
    for required in ("NORB", "NELEC"):
        if required not in fields:
            raise ValueError(f"FCIDUMP header is missing {required}")
    n_orb = int(fields["NORB"])
    n_elec = int(fields["NELEC"])
    ms2 = int(fields.get("MS2", "0"))
    if n_orb < 1:
        raise ValueError("NORB must be positive")
    if not 0 <= n_elec <= 2 * n_orb:
        raise ValueError("NELEC outside 0..2*NORB")
    metadata = {k: v for k, v in fields.items() if k not in {"NORB", "NELEC", "MS2"}}

    e_core = 0.0
    one = np.zeros((n_orb, n_orb))
    two = np.zeros((n_orb,) * 4)
    seen = set()
    have_core = False
    # lineno counts lines of the whole file, so messages point at the entry
    first = text.count("\n", 0, body_start) + 1
    for lineno, raw in enumerate(text[body_start:].splitlines(), start=first):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"integral line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            value = float(parts[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(p) for p in parts[1:])
        except ValueError:
            raise ValueError(f"integral line {lineno}: malformed entry {line!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"integral line {lineno}: non-finite value {parts[0]!r}")
        if not all(0 <= idx <= n_orb for idx in (i, j, k, l)):
            raise ValueError(f"integral line {lineno}: index outside 1..{n_orb}")
        if i == j == k == l == 0:
            if have_core:
                warnings.warn(f"integral line {lineno}: core energy repeated; keeping the last value")
            e_core = value
            have_core = True
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise ValueError(f"integral line {lineno}: one-body entry with a zero index")
            key = (max(i, j), min(i, j), 0, 0)
            if key in seen:
                warnings.warn(f"integral line {lineno}: one-body ({i},{j}) repeated; keeping the last value")
            seen.add(key)
            one[i - 1, j - 1] = value
            one[j - 1, i - 1] = value
        else:
            if 0 in (i, j, k, l):
                raise ValueError(f"integral line {lineno}: two-body entry with a zero index")
            a, bb, c, dd = i - 1, j - 1, k - 1, l - 1
            perms = {
                (a, bb, c, dd), (bb, a, c, dd), (a, bb, dd, c), (bb, a, dd, c),
                (c, dd, a, bb), (dd, c, a, bb), (c, dd, bb, a), (dd, c, bb, a),
            }
            key = min(perms)
            if key in seen:
                warnings.warn(f"integral line {lineno}: two-body ({i},{j},{k},{l}) repeated; keeping the last value")
            seen.add(key)
            for p in perms:
                two[p] = value
    return FcidumpData(n_orb, n_elec, ms2, e_core, one, two, metadata)


def word_expectation(ref: ReferenceState, word: PauliWord) -> float:
    """<0|word|0>; zero unless the word is diagonal, else +-1."""
    if word.x:
        return 0.0
    return -1.0 if (word.z & ref.occupied_mask).bit_count() & 1 else 1.0


# -- term-by-term references for pauli's and screen's array routines -----


def reference_terms(n, terms):
    """``PauliSum(n, terms)``'s terms by a dict of words, in canonical order.

    Duplicates add up in input order and exact zeros drop out; the
    array constructor must reproduce this bit for bit.
    """
    acc = {}
    for word, c in terms:
        if word.n != n:
            raise ValueError("term qubit count differs from the sum's")
        acc[word] = acc.get(word, 0.0) + float(c)
    return [(w, acc[w]) for w in sorted(acc, key=lambda w: (w.x, w.z)) if acc[w] != 0.0]


def reference_group_masks(x, z):
    """``pauli._group_masks`` by a stable two-key ``np.lexsort`` on (x, z)."""
    order = np.lexsort((z, x))
    xs, zs = x[order], z[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (xs[1:] != xs[:-1]) | (zs[1:] != zs[:-1])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return xs[first], zs[first], inverse


def reference_conjugate_by_word(h, generator, t):
    """``conjugate_by_word`` term by term."""
    ct, st = math.cos(t), math.sin(t)
    out = []
    for w, c in h.items():
        if commutes(w, generator):
            out.append((w, c))
            continue
        out.append((w, c * ct))
        v, k = multiply(w, generator)
        # -i * i**k is +-1 exactly; k is odd for anti-commuting Hermitian words
        out.append((v, c * st * (1.0 if k == 1 else -1.0)))
    return PauliSum(h.n, reference_terms(h.n, out))


def reference_half_commutator(generator, h):
    """``half_commutator`` term by term."""
    out = []
    for w, c in h.items():
        if commutes(w, generator):
            continue
        v, k = multiply(generator, w)
        # i * i**k for odd k is -1 (k=1) or +1 (k=3)
        out.append((v, -c if k == 1 else c))
    return PauliSum(h.n, reference_terms(h.n, out))


def reference_expectation(ref, h):
    """``ReferenceState.expectation`` term by term, in canonical order."""
    occ = ref.occupied_mask
    total = 0.0
    for w, c in h.items():
        if w.x == 0:
            total += -c if (w.z & occ).bit_count() & 1 else c
    return total


def reference_sector_value(h, mask, bits):
    """<bits| I_m(z) X_m |bits ^ mask> term by term, for the sector m = mask.

    Each Y is folded as y = -i z x; the even-Y and odd-Y terms add
    separately from 0.0 in canonical order, the odd total carrying the
    one factor of i that is left.
    """
    parts = [0.0, 0.0]
    for w, c in h.items():
        if w.x == mask:
            k = w.y_count() & 3
            f = -c if k == 1 or k == 2 else c
            parts[k & 1] += -f if (w.z & bits).bit_count() & 1 else f
    return complex(*parts)


def reference_sectors(h):
    """The nonzero X masks of h, ascending."""
    return sorted({w.x for w in h.words()} - {0})


def reference_gradients(h, ref):
    """``screen.gradients`` term by term: (-weight, mask) order."""
    pairs = [(m, abs(reference_sector_value(h, m, ref.occupied_mask))) for m in reference_sectors(h)]
    pairs.sort(key=lambda p: (-p[1], p[0]))
    return [m for m, _ in pairs], [w for _, w in pairs]


def reference_en_correct(h, ref, *, singular_tol=1e-8):
    """``ilcap.en_correct`` sector by sector, through ``reference_sector_value``."""
    if h.n != ref.n:
        raise ValueError("qubit counts differ")
    occ = ref.occupied_mask
    e0 = reference_sector_value(h, 0, occ).real
    contributions = {}
    skipped = []
    total = e0
    for m in reference_sectors(h):
        weight = abs(reference_sector_value(h, m, occ))
        gap = e0 - reference_sector_value(h, 0, occ ^ m).real
        if abs(gap) < singular_tol:
            skipped.append(m)
            warnings.warn(
                f"sector {m:#x} skipped: degenerate diagonal gap {gap:.3e}",
                stacklevel=2,
            )
            continue
        term = weight * weight / gap
        contributions[m] = term
        total += term
    return EnResult(total, e0, contributions, tuple(skipped))


def reference_diagonal_at(h, states):
    """``pauli._diagonal_at`` one state at a time, by ``reference_sector_value``."""
    return np.array([reference_sector_value(h, 0, b).real for b in states.tolist()])


def walsh_calls(monkeypatch):
    """A list of transform lengths, one more each time ``_diagonal_at`` takes the transform."""
    calls = []
    walsh = pauli._walsh_hadamard
    monkeypatch.setattr(pauli, "_walsh_hadamard", lambda a: calls.append(len(a)) or walsh(a))
    return calls


def assert_same_sum(got, want):
    """Same words in the same order, coefficients equal bit for bit."""
    assert got.n == want.n
    assert list(got.words()) == list(want.words())
    assert [c.hex() for _, c in got.items()] == [c.hex() for _, c in want.items()]


def conjugation_energy_and_gradient(h, generators, amplitudes, ref):
    """QCC energy and gradient by conjugating the whole Hamiltonian.

    The check for ``qcc_energy_and_gradient``: the derivative with
    respect to t_j is the expectation of (i/2)[T_j, H_j] pushed through
    the remaining outer conjugations, where H_j is the Hamiltonian
    already conjugated through step j.
    """
    if len(generators) != len(amplitudes):
        raise ValueError("one amplitude per generator required")
    L = len(generators)
    inner: list[PauliSum] = []
    cur = h
    for gen, t in zip(generators, amplitudes):
        cur = reference_conjugate_by_word(cur, gen, t)
        inner.append(cur)
    energy = reference_expectation(ref, cur)
    grad = np.zeros(L)
    for j in range(L):
        d = reference_half_commutator(generators[j], inner[j])
        for k in range(j + 1, L):
            d = reference_conjugate_by_word(d, generators[k], amplitudes[k])
        grad[j] = reference_expectation(ref, d)
    return energy, grad


# -- term-by-term Jordan-Wigner expansion, the check for chemio's arrays ----


def _ladder_words(n_q, q, dagger):
    """Annihilation (or creation) image: (X_q +- i Y_q)/2 with a Z chain below."""
    chain = (1 << q) - 1
    wx = PauliWord(n_q, 1 << q, chain)
    wy = PauliWord(n_q, 1 << q, chain | (1 << q))
    sign = -1j if dagger else 1j
    return ((wx, 0.5 + 0j), (wy, 0.5 * sign))


def _product_rows(factors, scale):
    """The rows of scale * product(factors), expanded term by term, first factor slowest."""
    partial = [(None, complex(scale))]
    for factor in factors:
        grown = []
        for word, coeff in partial:
            for w, c in factor:
                if word is None:
                    grown.append((w, coeff * c))
                else:
                    v, k = multiply(word, w)
                    grown.append((v, coeff * c * I_POWERS[k]))
        partial = grown
    return partial


def _accumulate_product(out, factors, scale):
    """out += scale * product(factors), expanding term by term."""
    for word, coeff in _product_rows(factors, scale):
        out[word] = out.get(word, 0j) + coeff


def _fold_real(n_q, acc, drop_threshold):
    worst = max((abs(v.imag) for v in acc.values()), default=0.0)
    scale = max(1.0, max((abs(v) for v in acc.values()), default=0.0))
    if worst > 1e-10 * scale:
        raise ValueError(f"qubit operator has imaginary coefficients up to {worst:.3e}")
    terms = [(w, v.real) for w, v in acc.items() if abs(v.real) >= drop_threshold]
    return PauliSum(n_q, terms)


def reference_jw_hamiltonian(data, *, drop_threshold=1e-12):
    """The Jordan-Wigner Hamiltonian by a dict of words, one ladder product at a time.

    Every stored (pq|rs), all eight copies of each integral, is expanded
    with its complex coefficients; the check that ``chemio.jw_hamiltonian``
    matches to 1e-12 with the same words.
    """
    n_orb = data.n_orb
    n_q = 2 * n_orb
    acc = {}
    if data.e_core != 0.0:
        acc[PauliWord.identity(n_q)] = complex(data.e_core)
    create = [_ladder_words(n_q, q, True) for q in range(n_q)]
    destroy = [_ladder_words(n_q, q, False) for q in range(n_q)]
    for p in range(n_orb):
        for q in range(n_orb):
            f = data.one_body[p, q]
            if f == 0.0:
                continue
            for s in (0, 1):
                _accumulate_product(acc, [create[2 * p + s], destroy[2 * q + s]], f)
    for p in range(n_orb):
        for q in range(n_orb):
            for r in range(n_orb):
                for s_orb in range(n_orb):
                    g = data.two_body[p, q, r, s_orb]
                    if g == 0.0:
                        continue
                    for s in (0, 1):
                        for t in (0, 1):
                            _accumulate_product(
                                acc,
                                [create[2 * p + s], create[2 * r + t],
                                 destroy[2 * s_orb + t], destroy[2 * q + s]],
                                0.5 * g,
                            )
    return _fold_real(n_q, acc, drop_threshold)


def _accumulate_real(out, factors, scale):
    """out += the real-coefficient rows of scale * product(factors), term by term."""
    for word, coeff in _product_rows(factors, scale):
        if coeff.imag == 0.0:
            out[word] = out.get(word, 0.0) + coeff.real


def reference_jw_orbits(data, *, drop_threshold=1e-12):
    """``chemio.jw_hamiltonian`` term by term, in its own order, bit for bit.

    Only the least member of each orbit is expanded: (p, q) with
    p <= q for the one-body part, and of (p, q, r, s), (r, s, p, q),
    (q, p, s, r), (s, r, q, p) for the two-body part.  Its weight is the
    sum of the integrals over the orbit's distinct members (half of it
    for the two-body part), and only its rows with a real coefficient
    are added.
    """
    n_orb = data.n_orb
    n_q = 2 * n_orb
    acc = {}
    if data.e_core != 0.0:
        acc[PauliWord.identity(n_q)] = data.e_core
    create = [_ladder_words(n_q, q, True) for q in range(n_q)]
    destroy = [_ladder_words(n_q, q, False) for q in range(n_q)]
    f = data.one_body
    for p in range(n_orb):
        for q in range(p, n_orb):
            weight = f[p, q] + f[q, p] if p < q else f[p, p]
            if weight == 0.0:
                continue
            for s in (0, 1):
                _accumulate_real(acc, [create[2 * p + s], destroy[2 * q + s]], weight)
    g = data.two_body
    for p, q, r, s_orb in itertools.product(range(n_orb), repeat=4):
        members = list(dict.fromkeys([(p, q, r, s_orb), (r, s_orb, p, q), (q, p, s_orb, r), (s_orb, r, q, p)]))
        if min(members) != (p, q, r, s_orb):
            continue
        total = g[members[0]]
        for m in members[1:]:
            total += g[m]
        weight = 0.5 * total
        if weight == 0.0:
            continue
        for s in (0, 1):
            for t in (0, 1):
                _accumulate_real(
                    acc,
                    [create[2 * p + s], create[2 * r + t], destroy[2 * s_orb + t], destroy[2 * q + s]],
                    weight,
                )
    return PauliSum(n_q, [(w, v) for w, v in acc.items() if abs(v) >= drop_threshold])


def reference_spin_penalty(n_orb, *, drop_threshold=1e-12):
    """``chemio.spin_penalty`` by the same term-by-term expansion."""
    n_q = 2 * n_orb
    s_plus = {}
    for p in range(n_orb):
        _accumulate_product(
            s_plus, [_ladder_words(n_q, 2 * p, True), _ladder_words(n_q, 2 * p + 1, False)], 1.0
        )
    s_minus = {w: v.conjugate() for w, v in s_plus.items()}
    sz = {}
    for p in range(n_orb):
        sz_word_a = PauliWord(n_q, 0, 1 << (2 * p))
        sz_word_b = PauliWord(n_q, 0, 1 << (2 * p + 1))
        sz[sz_word_b] = sz.get(sz_word_b, 0j) + 0.25
        sz[sz_word_a] = sz.get(sz_word_a, 0j) - 0.25
    acc = {}
    _accumulate_product(acc, [s_minus.items(), s_plus.items()], 1.0)
    sz_sq = {}
    _accumulate_product(sz_sq, [sz.items(), sz.items()], 1.0)
    for w, v in sz_sq.items():
        acc[w] = acc.get(w, 0j) + v
    return _fold_real(n_q, acc, drop_threshold)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


@pytest.fixture
def h2_fcidump() -> Path:
    return DATA_DIR / "h2_r1p4.fcidump"
