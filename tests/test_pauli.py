import math
import random

import numpy as np
import pytest
from scipy.linalg import expm

from qubitcc import oracle, pauli
from qubitcc.pauli import (
    I_POWERS,
    PauliSum,
    PauliWord,
    ReferenceState,
    basis_image,
    commutes,
    conjugate_by_word,
    half_commutator,
    _diagonal_at,
    _group_masks,
    _mask_product,
    multiply,
)
from qubitcc.screen import ising_decompose

from conftest import (
    assert_same_sum,
    random_sum,
    random_word,
    reference_conjugate_by_word,
    reference_diagonal_at,
    reference_expectation,
    reference_group_masks,
    reference_half_commutator,
    reference_terms,
    walsh_calls,
    word_expectation,
)

# few distinct words, so most appear several times; the values include
# +-0.0 and cancelling pairs, and sums depend on their order
AWKWARD_VALUES = [0.0, -0.0, 0.1, 0.2, -0.3, 0.5, -0.5, 1e-17, -1.0]


def awkward_terms(rng: random.Random, n: int, max_terms: int = 25):
    pool = [random_word(rng, n) for _ in range(6)] + [PauliWord.identity(n)]
    count = rng.randint(0, max_terms)
    terms = [(rng.choice(pool), rng.choice(AWKWARD_VALUES)) for _ in range(count)]
    rng.shuffle(terms)
    return terms


def masks_of(terms):
    return (
        np.array([w.x for w, _ in terms], np.uint64),
        np.array([w.z for w, _ in terms], np.uint64),
        np.array([c for _, c in terms], np.float64),
    )


def hex_items(items):
    return [(w, c.hex()) for w, c in items]


def dense(w: PauliWord) -> np.ndarray:
    return oracle.to_dense(PauliSum(w.n, [(w, 1.0)]))


class TestPauliWord:
    def test_letters(self):
        w = PauliWord(4, x=0b0011, z=0b0110)
        assert [w.letter(j) for j in range(4)] == ["X", "Y", "Z", "I"]

    def test_from_factors_round_trip(self):
        w = PauliWord.from_factors(5, [("X", 0), ("Y", 2), ("Z", 4)])
        assert w.to_text() == "X0 Y2 Z4"
        assert w.weight() == 3
        assert w.y_count() == 1

    def test_from_factors_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PauliWord.from_factors(3, [("X", 1), ("Z", 1)])

    def test_identity(self):
        w = PauliWord.identity(3)
        assert w.is_identity and w.x == 0
        assert w.to_text() == "I"

    def test_bits_outside_register_rejected(self):
        with pytest.raises(ValueError):
            PauliWord(2, x=0b100, z=0)
        with pytest.raises(ValueError):
            PauliWord(0, 0, 0)


class TestMultiply:
    # single-qubit table, entries as (word, phase exponent)
    SINGLE = {
        ("X", "X"): ("I", 0), ("Y", "Y"): ("I", 0), ("Z", "Z"): ("I", 0),
        ("X", "Y"): ("Z", 1), ("Y", "X"): ("Z", 3),
        ("Y", "Z"): ("X", 1), ("Z", "Y"): ("X", 3),
        ("Z", "X"): ("Y", 1), ("X", "Z"): ("Y", 3),
    }

    @pytest.mark.parametrize("pair", sorted(SINGLE))
    def test_single_qubit_table(self, pair):
        a, b = pair
        want_letter, want_k = self.SINGLE[pair]
        wa = PauliWord.from_factors(1, [(a, 0)])
        wb = PauliWord.from_factors(1, [(b, 0)])
        w, k = multiply(wa, wb)
        assert w.letter(0) == want_letter
        assert k == want_k

    def test_identity_absorbs(self):
        w = PauliWord(3, 0b101, 0b011)
        prod, k = multiply(w, PauliWord.identity(3))
        assert prod == w and k == 0

    def test_square_is_identity(self, rng):
        for _ in range(50):
            w = random_word(rng, rng.randint(1, 8))
            prod, k = multiply(w, w)
            assert prod.is_identity and k == 0

    def test_matches_dense_product(self, rng):
        for _ in range(200):
            n = rng.randint(1, 5)
            a, b = random_word(rng, n), random_word(rng, n)
            w, k = multiply(a, b)
            assert type(k) is int and 0 <= k <= 3
            got = I_POWERS[k] * dense(w)
            assert np.allclose(dense(a) @ dense(b), got, atol=1e-13)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            multiply(PauliWord(2, 1, 0), PauliWord(3, 1, 0))

    @pytest.mark.parametrize("n", [1, 7, 63, 64])
    def test_mask_product_matches_multiply(self, rng, n):
        a = [random_word(rng, n) for _ in range(40)]
        b = [random_word(rng, n) for _ in range(40)]
        x, z, k = _mask_product(
            np.array([w.x for w in a], np.uint64), np.array([w.z for w in a], np.uint64),
            np.array([w.x for w in b], np.uint64), np.array([w.z for w in b], np.uint64),
        )
        want = [multiply(wa, wb) for wa, wb in zip(a, b)]
        assert [PauliWord(n, *xz) for xz in zip(x.tolist(), z.tolist())] == [w for w, _ in want]
        assert k.tolist() == [kk for _, kk in want]


class TestBasisImage:
    def test_matches_oracle(self, rng):
        for _ in range(200):
            n = rng.randint(1, 6)
            w = random_word(rng, n)
            bits = rng.getrandbits(n)
            image, k = basis_image(w, bits)
            want = oracle.apply_to_basis_state(w, bits)
            expected = np.zeros(1 << n, dtype=complex)
            expected[image] = I_POWERS[k]
            assert np.array_equal(want, expected)

    def test_single_qubit_y(self):
        y = PauliWord(1, 1, 1)
        assert basis_image(y, 0) == (1, 1)  # Y|0> = i|1>
        assert basis_image(y, 1) == (0, 3)  # Y|1> = -i|0>


class TestCommutes:
    def test_matches_dense_commutator(self, rng):
        for _ in range(200):
            n = rng.randint(1, 5)
            a, b = random_word(rng, n), random_word(rng, n)
            comm = dense(a) @ dense(b) - dense(b) @ dense(a)
            assert commutes(a, b) == bool(np.allclose(comm, 0, atol=1e-13))

    def test_product_phases_flip_under_swap_iff_anticommuting(self, rng):
        for _ in range(100):
            n = rng.randint(1, 6)
            a, b = random_word(rng, n), random_word(rng, n)
            _, pab = multiply(a, b)
            _, pba = multiply(b, a)
            if commutes(a, b):
                assert pab == pba
            else:
                assert pab == (pba + 2) % 4


def masks_of_width(rng, width, rows, distinct):
    """Mask arrays over a few distinct words whose widest bit is ``width``.

    The top bit goes on x, on z or on both, so either mask can be the
    wide one.
    """
    pool = [(rng.getrandbits(width), rng.getrandbits(width)) for _ in range(distinct)]
    if width:
        top = 1 << (width - 1)
        x, z = pool[0]
        pool[0] = rng.choice([(x | top, z), (x, z | top), (x | top, z | top)])
    pairs = [rng.choice(pool) for _ in range(rows)]
    x = np.array([a for a, _ in pairs], np.uint64)
    z = np.array([b for _, b in pairs], np.uint64)
    return x, z


class TestGroupMasks:
    """The packed-key sort (masks up to 32 bits) and the lexsort above it."""

    def check(self, x, z, monkeypatch):
        want = reference_group_masks(x, z)
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        got = _group_masks(x, z)
        monkeypatch.undo()
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        width = int((x | z).max(initial=0)).bit_length()
        assert len(calls) == (width > 32)

    @pytest.mark.parametrize("width", [0, 1, 31, 32, 33, 63, 64])
    def test_matches_lexsort(self, rng, width, monkeypatch):
        # width 0 is all-identity rows; 300 rows over 3 words is heavy
        # duplication
        for rows, distinct in ((1, 1), (40, 40), (300, 3), (500, 60)):
            x, z = masks_of_width(rng, width, rows, distinct)
            assert int((x | z).max()).bit_length() == width
            self.check(x, z, monkeypatch)

    def test_empty(self, monkeypatch):
        self.check(np.empty(0, np.uint64), np.empty(0, np.uint64), monkeypatch)

    @pytest.mark.parametrize("width", [32, 33])
    def test_keys_that_share_packed_bits(self, width, monkeypatch):
        # (0, 2**w - 1) and (1, 0) pack to the neighbouring keys 2**w - 1
        # and 2**w; each word appears once or twice, in no order
        top = 1 << (width - 1)
        ones = 2 * top - 1
        pairs = [(1, 0), (0, ones), (0, 0), (top, ones), (1, 0), (0, top), (0, ones), (1, 1)]
        x = np.array([a for a, _ in pairs], np.uint64)
        z = np.array([b for _, b in pairs], np.uint64)
        self.check(x, z, monkeypatch)


    @pytest.mark.parametrize(
        "width, rows, branch",
        [
            (16, 500, "sort"),
            (28, 256, "sort"),  # 2 * 28 + 8 bits of row index fill the key
            (28, 257, "argsort"),  # one more row needs a ninth bit
            (32, 2, "argsort"),
            (32, 1, "sort"),
            (33, 50, "lexsort"),
        ],
    )
    def test_each_branch(self, rng, width, rows, branch, monkeypatch):
        # the packed (key, row) sort, the argsort of the key and the
        # two-key lexsort, each picked by the mask width and row count
        x, z = masks_of_width(rng, width, rows, min(rows, 40))
        want = reference_group_masks(x, z)
        calls = []
        for name in ("argsort", "lexsort"):
            real = getattr(np, name)
            monkeypatch.setattr(np, name, lambda *a, real=real, name=name, **k: (
                calls.append(name) or real(*a, **k)))
        got = _group_masks(x, z)
        monkeypatch.undo()
        assert calls == ([] if branch == "sort" else [branch])
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


class TestPauliSum:
    def test_merges_duplicates_and_drops_zeros(self):
        w = PauliWord(2, 1, 0)
        s = PauliSum(2, [(w, 0.5), (w, -0.5), (PauliWord(2, 2, 0), 1.0)])
        assert w not in s
        assert len(s) == 1

    def test_arithmetic(self):
        a = PauliSum.from_text("1.0 X0\n2.0 Z1\n", 2)
        b = PauliSum.from_text("0.5 X0\n", 2)
        c = a - b * 2.0
        assert PauliWord(2, 1, 0) not in c
        assert c.coefficient(PauliWord(2, 0, 2)) == 2.0
        assert (-c).coefficient(PauliWord(2, 0, 2)) == -2.0

    def test_truncate_keeps_at_threshold(self):
        s = PauliSum.from_text("0.1 X0\n0.01 Z0\n", 1)
        t = s.truncate(0.1)
        assert len(t) == 1 and t.coefficient(PauliWord(1, 1, 0)) == 0.1

    def test_truncate_returns_self_when_nothing_drops(self):
        s = PauliSum.from_text("0.1 X0\n0.01 Z0\n", 1)
        assert s.truncate(0.0) is s
        assert s.truncate(0.005) is s
        assert s.truncate(0.01) is s

    def test_text_round_trip(self, rng):
        s = random_sum(rng, 5, 12)
        again = PauliSum.from_text(s.to_text(), 5)
        assert again == s

    def test_from_text_skips_comments_and_blanks(self):
        s = PauliSum.from_text("# header\n\n1.0 Z0\n# more\n-1 X1\n")
        assert s.n == 2 and len(s) == 2

    def test_from_text_rejects_bad_lines(self):
        with pytest.raises(ValueError):
            PauliSum.from_text("1.0 X1 X0\n")  # indices must increase
        with pytest.raises(ValueError):
            PauliSum.from_text("1.0 X0 Z0\n")  # duplicate qubit
        with pytest.raises(ValueError):
            PauliSum.from_text("1.0 Q3\n")
        with pytest.raises(ValueError):
            PauliSum.from_text("X0 1.0\n")

    @pytest.mark.parametrize("value", ["nan", "-nan", "inf", "-inf", "1e999"])
    def test_from_text_rejects_non_finite_coefficients(self, value):
        with pytest.raises(ValueError, match=f"line 2: non-finite coefficient '{value}'"):
            PauliSum.from_text(f"1.0 Z0\n{value} X0\n")

    def test_from_text_respects_explicit_width(self):
        s = PauliSum.from_text("1.0 Z0\n", 6)
        assert s.n == 6
        with pytest.raises(ValueError):
            PauliSum.from_text("1.0 Z5\n", 2)

    def test_from_text_reads_the_qubits_header(self):
        s = PauliSum.from_text("1.0 Z0\n-0.5 X0 X1\n", 16)
        again = PauliSum.from_text(f"# qubits: 16\n# terms: {len(s)}\n" + s.to_text())
        assert again == s and again.n == 16
        assert PauliSum.from_text("# qubits: 16\n1.0 Z0\n", 3).n == 3  # explicit n wins

    def test_from_text_refuses_a_narrow_header(self):
        with pytest.raises(ValueError, match="qubit index 5 outside the declared 2 qubits"):
            PauliSum.from_text("# qubits: 2\n1.0 Z0\n0.5 Z5\n")
        with pytest.raises(ValueError, match="line 1: bad qubit count"):
            PauliSum.from_text("# qubits: two\n1.0 Z0\n")

    def test_max_abs_coefficient(self):
        s = PauliSum.from_text("0.5 X0\n-2.0 Z1\n", 2)
        assert s.max_abs_coefficient() == 2.0
        assert PauliSum(2).max_abs_coefficient() == 0.0

    def test_mask_arrays_round_trip(self, rng):
        s = random_sum(rng, 64, 30)
        assert (s.x.dtype, s.z.dtype, s.c.dtype) == (np.uint64, np.uint64, np.float64)
        assert [(w.x, w.z) for w in s.words()] == list(zip(s.x.tolist(), s.z.tolist()))
        assert PauliSum.from_masks(64, s.x, s.z, s.c) == s

    def test_sum_from_masks_matches_constructor(self, rng):
        for n in (1, 7, 31, 32, 33, 63, 64):
            for _ in range(40):
                terms = awkward_terms(rng, n)
                want = hex_items(reference_terms(n, terms))
                assert hex_items(PauliSum(n, terms).items()) == want
                assert hex_items(PauliSum.from_masks(n, *masks_of(terms)).items()) == want

    def test_sum_from_masks_cancellation_and_order(self):
        w, v = PauliWord(2, 2, 1), PauliWord(2, 1, 3)
        x = np.array([w.x, v.x, w.x, v.x, w.x], np.uint64)
        z = np.array([w.z, v.z, w.z, v.z, w.z], np.uint64)
        got = PauliSum.from_masks(2, x, z, np.array([0.1, 0.5, 0.2, -0.5, -0.3]))
        # 0.1 + 0.2 - 0.3 in input order is 2**-54, not 0; v cancels exactly
        assert list(got.items()) == [(w, 0.1 + 0.2 - 0.3)]
        assert PauliSum.from_masks(2, x[:1], z[:1], np.array([-0.0])) == PauliSum(2)

    def test_from_masks_rejects_bits_outside_register(self):
        one = np.ones(1, np.uint64)
        with pytest.raises(ValueError, match="outside the qubit range"):
            PauliSum.from_masks(2, one << np.uint64(2), one, np.ones(1))

    def test_arrays_are_read_only(self, rng):
        s = random_sum(rng, 5, 6)
        for a in (s.x, s.z, s.c):
            with pytest.raises(ValueError):
                a[0] = 1

    def test_width_cap(self):
        with pytest.raises(ValueError, match="64 qubits"):
            PauliSum(65)
        with pytest.raises(ValueError, match="64 qubits"):
            PauliSum.from_masks(65, [], [], [])
        with pytest.raises(ValueError, match="64 qubits"):
            PauliSum.from_text("1.0 X0 Z64\n")

    def test_bit_63_text_round_trip(self):
        s = PauliSum.from_text("0.25 Y0 X63\n-1.5 Z63\n0.125 I\n")
        assert s.n == 64 and int(s.x[-1]) == 1 << 63 | 1
        again = PauliSum.from_text(s.to_text(), 64)
        assert again == s
        assert again.to_text() == s.to_text()

    @pytest.mark.parametrize("n", [1, 33, 64])
    def test_to_text_matches_term_by_term(self, rng, n):
        # the identity word, negative, subnormal and wide-exponent values
        values = [1.0, -1.0, 0.1, -2.5e-320, 5e-324, -1.7976931348623157e308, 1e-17, -0.3]
        for _ in range(20):
            words = [PauliWord.identity(n), random_word(rng, n), PauliWord(n, 1 << (n - 1), 0)]
            words += [random_word(rng, n) for _ in range(rng.randint(0, 30))]
            h = PauliSum(n, [(w, rng.choice(values) * rng.uniform(0.5, 1.0)) for w in words])
            want = "\n".join(f"{c:.17g} {w.to_text()}" for w, c in h.items())
            assert h.to_text().encode() == want.encode()

    @pytest.mark.parametrize("n", [1, 7, 63, 64])
    def test_arithmetic_matches_dict_reference(self, rng, n):
        for _ in range(30):
            a, b = awkward_terms(rng, n), awkward_terms(rng, n)
            sa, sb = PauliSum(n, a), PauliSum(n, b)
            want = reference_terms(n, list(sa.items()) + list(sb.items()))
            assert hex_items((sa + sb).items()) == hex_items(want)
            # 1e-320 underflows the 1e-17 terms to exact zeros
            scale = rng.choice([0.0, -0.0, 1e-300, 1e-320, -0.3, -1.0, math.nan])
            want = reference_terms(n, [(w, c * scale) for w, c in sa.items()])
            assert hex_items((sa * scale).items()) == hex_items(want)
            threshold = rng.choice([0.0, 0.1, 0.2, 1.0, math.inf])
            want = reference_terms(n, [(w, c) for w, c in sa.items() if abs(c) >= threshold])
            assert hex_items(sa.truncate(threshold).items()) == hex_items(want)
            for got in (sa * scale, -sa, sa.truncate(threshold)):
                assert not any(a.flags.writeable for a in (got.x, got.z, got.c))
            want = max((abs(c) for _, c in sa.items()), default=0.0)
            assert sa.max_abs_coefficient().hex() == want.hex()

    def test_truncate_rejects_bad_threshold(self):
        s = PauliSum.from_text("0.1 X0\n", 1)
        for bad in (math.nan, -0.5):
            with pytest.raises(ValueError, match=repr(bad)):
                s.truncate(bad)

    def test_coefficient_lookup(self, rng):
        s = random_sum(rng, 6, 20)
        for w, c in s.items():
            assert w in s and s.coefficient(w) == c
        absent = [random_word(rng, 6) for _ in range(50)]
        for w in absent:
            if w not in s:
                assert s.coefficient(w) == 0.0
        assert PauliWord(7, 1, 0) not in PauliSum(6, [(PauliWord(6, 1, 0), 1.0)])

    def test_empty_sum_through_every_routine(self):
        for n in (1, 64):
            e = PauliSum(n)
            g = PauliWord(n, 1, 0)
            assert len(e) == 0 and list(e.items()) == [] and e.to_text() == ""
            assert PauliSum.from_text("", n) == e
            assert e + e == e and 2.0 * e == e and e.truncate(0.5) == e
            assert e.max_abs_coefficient() == 0.0
            assert conjugate_by_word(e, g, 0.4) == e
            assert half_commutator(g, e) == e
            assert ReferenceState(n, 1).expectation(e) == 0.0
            dec = ising_decompose(e)
            assert dec.sectors == () and dec.masks.tolist() == [0]
            assert dec.at(1).tolist() == [0j]


class TestReferenceState:
    def test_occupied_mask(self):
        assert ReferenceState(4, 2).occupied_mask == 0b0011
        assert ReferenceState(4, 0).occupied_mask == 0
        with pytest.raises(ValueError):
            ReferenceState(2, 3)

    def test_word_expectation_rules(self):
        ref = ReferenceState(3, 2)
        assert word_expectation(ref, PauliWord(3, 1, 0)) == 0.0
        assert word_expectation(ref, PauliWord(3, 0, 0b001)) == -1.0
        assert word_expectation(ref, PauliWord(3, 0, 0b100)) == 1.0
        assert word_expectation(ref, PauliWord(3, 0, 0b011)) == 1.0

    def test_expectation_matches_oracle(self, rng):
        for _ in range(50):
            n = rng.randint(1, 6)
            s = random_sum(rng, n, 10)
            ref = ReferenceState(n, rng.randint(0, n))
            vec = oracle.reference_vector(ref)
            want = oracle.expectation(s, vec)
            assert ref.expectation(s) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 7, 63, 64])
    def test_expectation_matches_term_by_term(self, rng, n):
        for _ in range(40):
            # awkward terms plus diagonal ones, so the x = 0 prefix is long
            terms = awkward_terms(rng, n) + [
                (PauliWord(n, 0, rng.getrandbits(n)), rng.choice(AWKWARD_VALUES)) for _ in range(8)
            ]
            s = PauliSum(n, terms)
            ref = ReferenceState(n, rng.randint(0, n))
            assert ref.expectation(s).hex() == reference_expectation(ref, s).hex()


class TestConjugation:
    def test_commuting_generator_is_inert(self):
        h = PauliSum.from_text("1.0 Z0 Z1\n", 2)
        g = PauliWord(2, 0, 1)  # Z0 commutes with Z0Z1
        assert conjugate_by_word(h, g, 0.7) == h

    def test_matches_dense_exponential(self, rng):
        for _ in range(60):
            n = rng.randint(2, 5)
            h = random_sum(rng, n, 8)
            g = random_word(rng, n)
            t = rng.uniform(-2.0, 2.0)
            u = expm(-0.5j * t * dense(g))
            want = u.conj().T @ oracle.to_dense(h) @ u
            got = oracle.to_dense(conjugate_by_word(h, g, t))
            assert np.allclose(got, want, atol=1e-11)

    def test_term_count_at_most_doubles(self, rng):
        for _ in range(20):
            n = 6
            h = random_sum(rng, n, 15)
            g = random_word(rng, n)
            assert len(conjugate_by_word(h, g, 0.3)) <= 2 * len(h)

    def test_half_commutator_is_energy_derivative(self, rng):
        eps = 1e-6
        for _ in range(30):
            n = rng.randint(2, 5)
            h = random_sum(rng, n, 8)
            g = random_word(rng, n)
            ref = ReferenceState(n, rng.randint(0, n))
            d = ref.expectation(half_commutator(g, h))
            ep = ref.expectation(conjugate_by_word(h, g, eps))
            em = ref.expectation(conjugate_by_word(h, g, -eps))
            assert d == pytest.approx((ep - em) / (2 * eps), abs=1e-7)

    # 32 qubits is the widest packed key; 33 and up group all rows in one sort
    @pytest.mark.parametrize("n", [1, 7, 32, 33, 63, 64])
    def test_matches_term_by_term(self, rng, n):
        for _ in range(30):
            h = PauliSum(n, awkward_terms(rng, n) + [(random_word(rng, n), 0.7)])
            # a generator from h's own words as often as not, so products collide
            words = list(h.words())
            g = rng.choice(words) if words and rng.random() < 0.5 else random_word(rng, n)
            for t in (0.0, math.pi / 2, -math.pi / 2, rng.uniform(-3.0, 3.0)):
                assert_same_sum(conjugate_by_word(h, g, t), reference_conjugate_by_word(h, g, t))
            assert_same_sum(half_commutator(g, h), reference_half_commutator(g, h))

    @pytest.mark.parametrize("n", [3, 32, 33])
    @pytest.mark.parametrize("case", ["every product hits", "no product hits", "no anti", "empty"])
    def test_merge_cases_match_term_by_term(self, rng, n, case):
        for _ in range(20):
            g = random_word(rng, n)
            pool = [random_word(rng, n) for _ in range(12)]
            commuting = {w for w in pool if commutes(w, g)}
            anti = [w for w in pool if not commutes(w, g)]
            if case == "every product hits":
                words = commuting | set(anti) | {multiply(w, g)[0] for w in anti}
            elif case == "no product hits":
                words = set(commuting)
                for w in anti:
                    if multiply(w, g)[0] not in words:
                        words.add(w)
            else:
                words = commuting if case == "no anti" else set()
            h = PauliSum(n, [(w, rng.uniform(-1.0, 1.0)) for w in words])
            n_anti = sum(not commutes(w, g) for w in h.words())
            for t in (0.0, math.pi / 2, math.pi, rng.uniform(-3.0, 3.0)):
                got = conjugate_by_word(h, g, t)
                assert_same_sum(got, reference_conjugate_by_word(h, g, t))
            # at the random angle no coefficient vanishes, so the count shows the case
            assert len(got) == len(h) + (n_anti if case == "no product hits" else 0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_raises(self, rng, t):
        h = random_sum(rng, 4, 10)
        for g in (random_word(rng, 4), PauliWord.identity(4)):
            with pytest.raises(ValueError, match="finite"):
                conjugate_by_word(h, g, t)

    def test_half_commutator_matches_dense(self, rng):
        for _ in range(40):
            n = rng.randint(1, 5)
            h = random_sum(rng, n, 6)
            g = random_word(rng, n)
            gm, hm = dense(g), oracle.to_dense(h)
            want = 0.5j * (gm @ hm - hm @ gm)
            got = oracle.to_dense(half_commutator(g, h))
            assert np.allclose(got, want, atol=1e-12)


class TestDiagonalAt:
    @staticmethod
    def many_diagonal_terms(rng, n, count):
        # 1e-17 next to values near 1 makes every sum depend on its order
        diag = [(PauliWord(n, 0, rng.getrandbits(n)), rng.choice([rng.uniform(-1.0, 1.0), 1e-17]))
                for _ in range(count)]
        return PauliSum(n, diag) + random_sum(rng, n, 10)

    @staticmethod
    def assert_same_floats(got, want):
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]

    def test_one_state_is_a_left_fold(self, rng):
        # a lone column would be summed pairwise by a reduction along it
        for _ in range(20):
            h = self.many_diagonal_terms(rng, 12, 40)
            assert np.count_nonzero(h.x == 0) >= 16
            states = np.array([rng.getrandbits(12)], dtype=np.uint64)
            self.assert_same_floats(_diagonal_at(h, states), reference_diagonal_at(h, states))

    @pytest.mark.parametrize("cells", [1, 7, 64, 1 << 16])
    def test_blocks_match_state_by_state(self, rng, monkeypatch, cells):
        monkeypatch.setattr(pauli, "_DIAGONAL_CELLS", cells)
        for width in (0, 1, 2, 5, 33):
            h = self.many_diagonal_terms(rng, 10, 30)
            states = np.array([rng.getrandbits(10) for _ in range(width)], dtype=np.uint64)
            self.assert_same_floats(_diagonal_at(h, states), reference_diagonal_at(h, states))

    @pytest.mark.parametrize("cells", [1, 7, 64])
    def test_subnormal_and_cancelling_values(self, rng, monkeypatch, cells):
        # subnormals and pairs of equal magnitude that cancel to 0.0 under
        # one sign pattern and double under another: each sign is exact
        monkeypatch.setattr(pauli, "_DIAGONAL_CELLS", cells)
        values = [5e-324, -5e-324, 2.5e-320, -2.2250738585072014e-308, 1.0, -1.0,
                  1.0000000000000002, 1e-17]
        for width in (1, 2, 9):
            diag = [(PauliWord(8, 0, z), rng.choice(values)) for z in rng.sample(range(256), 40)]
            h = PauliSum(8, diag) + random_sum(rng, 8, 5)
            states = np.array([rng.getrandbits(8) for _ in range(width)], dtype=np.uint64)
            self.assert_same_floats(_diagonal_at(h, states), reference_diagonal_at(h, states))

    def test_no_diagonal_terms(self, rng):
        h = PauliSum(3, [(PauliWord(3, 1, 0), 0.5)])
        assert _diagonal_at(h, np.array([0, 5], dtype=np.uint64)).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("n", range(1, 15))
    def test_walsh_side_matches_reference(self, rng, monkeypatch, n):
        # more states than n 2**n / T, drawn from a few distinct ones so
        # the term-by-term reference stays cheap; the tree of additions
        # agrees with the left fold to rounding
        calls = walsh_calls(monkeypatch)
        values = [5e-324, -5e-324, 2.5e-320, -2.2250738585072014e-308, 1.0, -1.0,
                  1.0000000000000002, 1e-17]
        sums = [
            self.many_diagonal_terms(rng, n, 3 * n),
            PauliSum(n, [(PauliWord(n, 0, rng.getrandbits(n)), rng.choice(values))
                         for _ in range(3 * n)]) + random_sum(rng, n, 5),
            PauliSum(n, [(PauliWord.identity(n), -0.75)]),
        ]
        for h in sums:
            end = np.count_nonzero(h.x == 0)
            distinct = np.array([rng.getrandbits(n) for _ in range(16)], dtype=np.uint64)
            pick = np.array([rng.randrange(16) for _ in range(n * 2**n // end + 1)])
            got = _diagonal_at(h, distinct[pick])
            want = reference_diagonal_at(h, distinct)[pick]
            bound = 1e-12 * max(1.0, float(np.abs(h.c[:end]).sum()))
            assert np.abs(got - want).max() <= bound
        assert calls == [2**n] * len(sums)

    def test_side_by_cost(self, rng, monkeypatch):
        # n 2**n = 64 against T S = 8 S: the transform from 9 states on
        calls = walsh_calls(monkeypatch)
        h = PauliSum(4, [(PauliWord(4, 0, z), rng.uniform(-1.0, 1.0)) for z in range(8)])
        h = h + PauliSum(4, [(PauliWord(4, 3, 1), 0.5)])
        for width, walsh in ((8, 0), (9, 1)):
            states = np.array([rng.getrandbits(4) for _ in range(width)], dtype=np.uint64)
            got = _diagonal_at(h, states)
            assert len(calls) == walsh
            want = reference_diagonal_at(h, states)
            if walsh:
                assert np.abs(got - want).max() <= 1e-12 * 8
            else:
                self.assert_same_floats(got, want)
        # no diagonal term costs nothing to fold; above the cap the fold runs
        # whatever the cost
        empty = PauliSum(4, [(PauliWord(4, 3, 1), 0.5)])
        assert _diagonal_at(empty, np.zeros(100, np.uint64)).tolist() == [0.0] * 100
        monkeypatch.setattr(pauli, "_WALSH_QUBIT_CAP", 3)
        states = np.arange(16, dtype=np.uint64)
        self.assert_same_floats(_diagonal_at(h, states), reference_diagonal_at(h, states))
        assert len(calls) == 1
