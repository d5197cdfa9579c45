import math
import random

import numpy as np
import pytest
from scipy.linalg import expm

from qubitcc import oracle
from qubitcc.pauli import (
    I_POWERS,
    PauliSum,
    PauliWord,
    ReferenceState,
    basis_image,
    commutes,
    conjugate_by_word,
    half_commutator,
    _mask_arrays,
    _mask_product,
    _sum_from_masks,
    multiply,
)

from conftest import random_sum, random_word, word_expectation


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

    def test_from_text_respects_explicit_width(self):
        s = PauliSum.from_text("1.0 Z0\n", 6)
        assert s.n == 6
        with pytest.raises(ValueError):
            PauliSum.from_text("1.0 Z5\n", 2)

    def test_max_abs_coefficient(self):
        s = PauliSum.from_text("0.5 X0\n-2.0 Z1\n", 2)
        assert s.max_abs_coefficient() == 2.0
        assert PauliSum(2).max_abs_coefficient() == 0.0

    def test_mask_arrays_round_trip(self, rng):
        s = random_sum(rng, 64, 30)
        x, z, c = _mask_arrays(s)
        assert (x.dtype, z.dtype, c.dtype) == (np.uint64, np.uint64, np.float64)
        assert _sum_from_masks(64, x, z, c)._coeffs == s._coeffs

    def test_sum_from_masks_matches_constructor(self, rng):
        # few distinct words, so most appear several times; the values
        # include +-0.0 and cancelling pairs, and sums depend on their order
        values = [0.0, -0.0, 0.1, 0.2, -0.3, 0.5, -0.5, 1e-17, -1.0]
        for n in (1, 3, 64):
            pool = [random_word(rng, n) for _ in range(6)] + [PauliWord.identity(n)]
            for _ in range(40):
                terms = [(rng.choice(pool), rng.choice(values)) for _ in range(rng.randint(0, 25))]
                rng.shuffle(terms)
                got = _sum_from_masks(
                    n,
                    np.array([w.x for w, _ in terms], np.uint64),
                    np.array([w.z for w, _ in terms], np.uint64),
                    np.array([c for _, c in terms], np.float64),
                )
                want = PauliSum(n, terms)
                assert list(got.items()) == list(want.items())
                assert got._coeffs == want._coeffs
                assert got.to_text() == want.to_text()

    def test_sum_from_masks_cancellation_and_order(self):
        w, v = PauliWord(2, 2, 1), PauliWord(2, 1, 3)
        x = np.array([w.x, v.x, w.x, v.x, w.x], np.uint64)
        z = np.array([w.z, v.z, w.z, v.z, w.z], np.uint64)
        got = _sum_from_masks(2, x, z, np.array([0.1, 0.5, 0.2, -0.5, -0.3]))
        # 0.1 + 0.2 - 0.3 in input order is 2**-54, not 0; v cancels exactly
        assert list(got.items()) == [(w, 0.1 + 0.2 - 0.3)]
        assert _sum_from_masks(2, x[:1], z[:1], np.array([-0.0])) == PauliSum(2)


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

    def test_half_commutator_matches_dense(self, rng):
        for _ in range(40):
            n = rng.randint(1, 5)
            h = random_sum(rng, n, 6)
            g = random_word(rng, n)
            gm, hm = dense(g), oracle.to_dense(h)
            want = 0.5j * (gm @ hm - hm @ gm)
            got = oracle.to_dense(half_commutator(g, h))
            assert np.allclose(got, want, atol=1e-12)
