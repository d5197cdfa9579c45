import numpy as np
import pytest

from qubitcc import oracle
from qubitcc.acset import canonical_generator
from qubitcc.pauli import I_POWERS, PauliSum, PauliWord, ReferenceState, multiply
from qubitcc.screen import gradients, ising_decompose

from conftest import (
    random_even_sum,
    random_sum,
    random_word,
    reference_ising_decompose,
    word_expectation,
)


def recompose(dec):
    """Invert ising_decompose exactly (pure sign bookkeeping)."""
    terms = []
    for x, sector in [(0, dec.diagonal), *dec.sectors.items()]:
        for z, f in sector.even:
            y = (x & z).bit_count()
            terms.append((PauliWord(dec.n, x, z), f if y % 4 == 0 else -f))
        for z, g in sector.odd:
            y = (x & z).bit_count()
            terms.append((PauliWord(dec.n, x, z), g if y % 4 == 3 else -g))
    return PauliSum(dec.n, terms)


def gradient_single(h, generator, ref):
    """|Im <0| h * generator |0>|, the energy slope magnitude at t = 0."""
    total = 0.0
    for w, c in h.items():
        if w.x == generator.x:
            v, k = multiply(w, generator)
            total += c * word_expectation(ref, v) * I_POWERS[k].imag
    return abs(total)


class TestDecompose:
    def test_splits_diagonal_from_sectors(self):
        h = PauliSum.from_text("1.0 Z0\n0.5 Z0 Z1\n0.3 X0 X1\n0.2 Y0 Y1\n", 2)
        dec = ising_decompose(h)
        assert dec.diagonal.x_mask == 0
        assert dec.diagonal.even == ((0b01, 1.0), (0b11, 0.5))
        assert dec.diagonal.odd == ()
        assert list(dec.sectors) == [0b11]

    def test_y_phase_folding(self):
        # y0 = -i z0 x0, so the sector stores the coefficient on the odd side
        h = PauliSum.from_text("0.7 Y0\n", 1)
        dec = ising_decompose(h)
        sector = dec.sectors[1]
        assert sector.even == ()
        assert sector.odd == ((1, -0.7),)

    def test_two_y_fold_to_even_with_sign(self):
        h = PauliSum.from_text("0.4 Y0 Y1\n", 2)
        dec = ising_decompose(h)
        sector = dec.sectors[0b11]
        assert sector.even == ((0b11, -0.4),)
        assert sector.odd == ()

    def test_round_trip_random(self, rng):
        for _ in range(100):
            n = rng.randint(1, 7)
            h = random_sum(rng, n, 15)
            assert recompose(ising_decompose(h)) == h

    def test_round_trip_is_exact_not_approximate(self, rng):
        # bit-for-bit equality of coefficients, not closeness
        h = random_sum(rng, 5, 30)
        back = recompose(ising_decompose(h))
        want = dict(h.items())
        got = dict(back.items())
        assert want.keys() == got.keys()
        assert all(want[w] == got[w] for w in want)

    @pytest.mark.parametrize("n", [1, 7, 63, 64])
    def test_matches_term_by_term(self, rng, n):
        # few distinct x masks, so sectors hold several words of both parities
        for _ in range(30):
            xs = [0] + [rng.getrandbits(n) for _ in range(3)]
            terms = [
                (PauliWord(n, rng.choice(xs), rng.getrandbits(n)), rng.uniform(-1.0, 1.0))
                for _ in range(rng.randint(0, 40))
            ] + [(random_word(rng, n), 0.5)]
            h = PauliSum(n, terms)
            got, want = ising_decompose(h), reference_ising_decompose(h)
            # repr shows every mask, the exact coefficients and the sector order
            assert repr(got) == repr(want)


class TestSectorWeight:
    def test_weight_matches_oracle_bracket(self, rng):
        # |<0| H P(x) |0>| restricted to one sector equals the stored weight
        for _ in range(60):
            n = rng.randint(2, 5)
            h = random_sum(rng, n, 12)
            ref = ReferenceState(n, rng.randint(0, n))
            dec = ising_decompose(h)
            vec = oracle.reference_vector(ref)
            hm = oracle.to_dense(h)
            for x, sector in dec.sectors.items():
                flip = oracle.to_dense(PauliSum(n, [(PauliWord(n, x, 0), 1.0)]))
                val = vec.conj() @ hm @ (flip @ vec)
                assert sector.weight(ref) == pytest.approx(abs(val), abs=1e-12)

    def test_gradient_single_even_hamiltonian(self, rng):
        # for even-Y Hamiltonians the canonical generator reproduces the weight
        for _ in range(60):
            n = rng.randint(2, 6)
            h = random_even_sum(rng, n, 12)
            ref = ReferenceState(n, rng.randint(0, n))
            dec = ising_decompose(h)
            for x, sector in dec.sectors.items():
                g = canonical_generator(n, x)
                assert gradient_single(h, g, ref) == pytest.approx(sector.weight(ref), abs=1e-12)

    def test_gradient_single_is_commutator_slope(self, rng):
        from qubitcc.pauli import half_commutator

        for _ in range(40):
            n = rng.randint(2, 5)
            h = random_sum(rng, n, 10)
            ref = ReferenceState(n, rng.randint(0, n))
            dec = ising_decompose(h)
            for x in dec.sectors:
                g = canonical_generator(n, x)
                slope = ref.expectation(half_commutator(g, h))
                assert gradient_single(h, g, ref) == pytest.approx(abs(slope), abs=1e-12)


class TestRanking:
    def test_descending_with_mask_tiebreak(self):
        h = PauliSum.from_text("0.1 X0\n0.5 X1\n0.1 X0 X1\n", 2)
        ranked = gradients(ising_decompose(h), ReferenceState(2, 0))
        assert ranked.masks == (0b10, 0b01, 0b11)
        assert ranked.weights == pytest.approx((0.5, 0.1, 0.1))
        assert ranked.top(1) == (0b10,)

    def test_zero_sectors_kept_by_default(self):
        # x0 z1 has zero reference gradient when qubit 1 points up or down
        # only through the z expectation; choose a configuration where the
        # even and odd parts cancel at the reference
        h = PauliSum.from_text("0.3 X0\n0.3 Y0\n", 1)
        ref = ReferenceState(1, 0)
        ranked = gradients(ising_decompose(h), ref)
        assert len(ranked) == 1
        dropped = gradients(ising_decompose(h), ref, drop_zero=True)
        assert len(dropped) == 1  # weight is sqrt(2)*0.3, not zero

    def test_drop_zero_removes_null_sectors(self):
        # x0x1 + y0y1 is a particle-conserving hop; it cannot connect the
        # empty reference to the doubly flipped state, so the sector weight
        # vanishes even though the sector is populated
        h = PauliSum.from_text("0.5 X0 X1\n0.5 Y0 Y1\n", 2)
        ref = ReferenceState(2, 0)
        kept = gradients(ising_decompose(h), ref)
        assert kept.masks == (0b11,)
        assert kept.weights[0] == pytest.approx(0.0, abs=1e-15)
        dropped = gradients(ising_decompose(h), ref, drop_zero=True)
        assert len(dropped) == 0

    def test_qubit_count_mismatch(self):
        h = PauliSum.from_text("1.0 X0\n", 1)
        with pytest.raises(ValueError):
            gradients(ising_decompose(h), ReferenceState(2, 0))


class TestSectorValue:
    def test_matches_oracle(self, rng):
        # value(bits) is <bits| h |bits ^ x> for the diagonal and every sector
        odd_seen = 0
        for _ in range(60):
            n = rng.randint(1, 6)
            h = random_sum(rng, n, 12)
            dec = ising_decompose(h)
            hm = oracle.to_dense(h)
            for sector in [dec.diagonal, *dec.sectors.values()]:
                odd_seen += len(sector.odd)
                for _ in range(3):
                    bits = rng.getrandbits(n)
                    ket = oracle.apply_to_basis_state(PauliWord(n, sector.x_mask, 0), bits)
                    want = hm[bits] @ ket
                    got = sector.value(bits)
                    assert got.real == pytest.approx(want.real, abs=1e-12)
                    assert got.imag == pytest.approx(want.imag, abs=1e-12)
        assert odd_seen

    def test_identity_flip(self):
        h = PauliSum.from_text("2.0 Z0\n", 2)
        ref = ReferenceState(2, 1)
        diagonal = ising_decompose(h).diagonal
        occ = ref.occupied_mask
        assert diagonal.value(occ) == pytest.approx(ref.expectation(h))
        assert diagonal.value(occ ^ 0b01) == pytest.approx(-ref.expectation(h))
        assert diagonal.reference_value(ref) == diagonal.value(occ)
