import numpy as np
import pytest

from qubitcc import oracle
from qubitcc.acset import build_anticommuting_set, canonical_generator
from qubitcc.chemio import hf_reference, jw_hamiltonian, load_fcidump
from qubitcc.ilcap import dress_with_combination, solve_ilcap
from qubitcc.pauli import I_POWERS, PauliSum, PauliWord, ReferenceState, multiply
from qubitcc.screen import gradients, ising_decompose

from conftest import (
    DATA_DIR,
    random_even_sum,
    random_sum,
    random_word,
    reference_gradients,
    reference_sector_value,
    word_expectation,
)


def recompose(dec):
    """Invert ising_decompose exactly: unfold each term's Y phase (pure sign bookkeeping)."""
    terms = []
    for key, z, f in zip(dec.keys.tolist(), dec.h.z.tolist(), dec.coefficients.tolist()):
        x = int(dec.masks[key >> 1])
        y = (x & z).bit_count()
        keep = y % 4 == 3 if key & 1 else y % 4 == 0
        terms.append((PauliWord(dec.n, x, z), f if keep else -f))
    return PauliSum(dec.n, terms)


def hexes(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


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
        assert dec.sectors == (0b11,)
        assert dec.masks.tolist() == [0, 0b11]
        # slot 0 is the diagonal: 1.0 Z0 + 0.5 Z0 Z1 at each basis state
        assert [dec.at(b)[0] for b in range(4)] == [1.5, -1.5, 0.5, -0.5]
        # Y0 Y1 = -Z0 Z1 X0 X1, so the sector's even part is 0.3 - 0.2 Z0 Z1
        assert [dec.at(b)[1] for b in range(4)] == [0.3 - 0.2, 0.3 + 0.2, 0.3 + 0.2, 0.3 - 0.2]

    def test_y_phase_folding(self):
        # y0 = -i z0 x0, so the coefficient lands on the odd (imaginary) side
        h = PauliSum.from_text("0.7 Y0\n", 1)
        dec = ising_decompose(h)
        assert dec.sectors == (1,)
        assert dec.coefficients.tolist() == [-0.7] and dec.keys.tolist() == [2 + 1]
        assert dec.at(0)[1] == -0.7j and dec.at(1)[1] == 0.7j

    def test_two_y_fold_to_even_with_sign(self):
        h = PauliSum.from_text("0.4 Y0 Y1\n", 2)
        dec = ising_decompose(h)
        assert dec.coefficients.tolist() == [-0.4] and dec.keys.tolist() == [2]
        assert [dec.at(b)[1] for b in range(4)] == [-0.4, 0.4, 0.4, -0.4]

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
        # few distinct x masks, so sectors hold several words of both
        # parities; every sector at a few basis states, bit for bit
        for _ in range(30):
            xs = [0] + [rng.getrandbits(n) for _ in range(3)]
            terms = [
                (PauliWord(n, rng.choice(xs), rng.getrandbits(n)), rng.uniform(-1.0, 1.0))
                for _ in range(rng.randint(0, 40))
            ] + [(random_word(rng, n), 0.5)]
            h = PauliSum(n, terms)
            dec = ising_decompose(h)
            assert dec.sectors == tuple(sorted({w.x for w in h.words()} - {0}))
            masks = [0, *dec.sectors]
            bras = [0, (1 << n) - 1, rng.getrandbits(n)]
            for bits in bras:
                want = [reference_sector_value(h, m, bits) for m in masks]
                assert hexes(dec.at(bits).tolist()) == hexes(want)
                kets = np.array([bits ^ m for m in xs], dtype=np.uint64)
                want = [reference_sector_value(h, m, bits) if m in masks else 0j for m in xs]
                assert hexes(dec.row(bits, kets).tolist()) == hexes(want)
            # every bra at once: one row per bra, each as it is alone
            many = np.array(bras, dtype=np.uint64)
            kets = np.array([bras[2] ^ m for m in xs], dtype=np.uint64)
            assert [hexes(r) for r in dec.at(many).tolist()] == [
                hexes(dec.at(b).tolist()) for b in bras]
            assert [hexes(r) for r in dec.row(many, kets).tolist()] == [
                hexes(dec.row(b, kets).tolist()) for b in bras]


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
            values = dec.at(ref.occupied_mask)
            for x, value in zip(dec.sectors, values[1:]):
                flip = oracle.to_dense(PauliSum(n, [(PauliWord(n, x, 0), 1.0)]))
                val = vec.conj() @ hm @ (flip @ vec)
                assert abs(value) == pytest.approx(abs(val), abs=1e-12)

    def test_gradient_single_even_hamiltonian(self, rng):
        # for even-Y Hamiltonians the canonical generator reproduces the weight
        for _ in range(60):
            n = rng.randint(2, 6)
            h = random_even_sum(rng, n, 12)
            ref = ReferenceState(n, rng.randint(0, n))
            dec = ising_decompose(h)
            values = dec.at(ref.occupied_mask)
            for x, value in zip(dec.sectors, values[1:]):
                g = canonical_generator(n, x)
                assert gradient_single(h, g, ref) == pytest.approx(abs(value), abs=1e-12)

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

    def test_equal_weights_rank_by_ascending_mask(self, rng):
        # 40 sectors in three weights, shuffled over the masks; every
        # fourth 0.5 is 0.3 + 0.2 from two terms, equal to 0.5 exactly
        n = 9
        masks = rng.sample(range(1, 1 << (n - 1)), 40)
        terms = []
        for i, m in enumerate(masks):
            if i % 4 == 3:
                terms += [(PauliWord(n, m, 0), 0.3), (PauliWord(n, m, 1 << (n - 1)), 0.2)]
            else:
                terms.append((PauliWord(n, m, 0), (0.5, 0.25, 0.125)[i % 4]))
        ranked = gradients(ising_decompose(PauliSum(n, terms)), ReferenceState(n, 0))
        groups = [sorted(m for i, m in enumerate(masks) if i % 4 in keep) for keep in ((0, 3), (1,), (2,))]
        assert ranked.masks == tuple(groups[0] + groups[1] + groups[2])
        assert ranked.weights == (0.5,) * 20 + (0.25,) * 10 + (0.125,) * 10

    def test_matches_term_by_term_with_y(self, rng):
        # masks and weights equal the term-by-term ranking bit for bit
        y_seen = 0
        for _ in range(60):
            n = rng.randint(1, 7)
            h = random_sum(rng, n, 20)
            y_seen += sum(w.y_count() % 2 for w in h.words())
            ref = ReferenceState(n, rng.randint(0, n))
            ranked = gradients(ising_decompose(h), ref)
            masks, weights = reference_gradients(h, ref)
            assert list(ranked.masks) == masks
            assert [w.hex() for w in ranked.weights] == [w.hex() for w in weights]
        assert y_seen

    def test_matches_term_by_term_on_dressed_h4(self):
        # linear H4 at 2.0 bohr, the RHF orbitals of bench/hchain.py
        data = load_fcidump(str(DATA_DIR / "h4_r2p0.fcidump"))
        h, ref = jw_hamiltonian(data), hf_reference(data)
        ranked = gradients(ising_decompose(h), ref)
        acs = build_anticommuting_set(h.n, list(ranked.masks))
        sol = solve_ilcap(h, acs.generators, ref)
        # equal weights on every generator: the solved ones are 0.0 on the
        # symmetry-forbidden generators, and that dressing is too small
        m = len(acs.generators)
        dressed = dress_with_combination(h, acs.generators, sol.t, np.full(m, 1 / np.sqrt(m)))
        assert len(dressed) > 10 * len(h)
        for op in (h, dressed):
            ranked = gradients(ising_decompose(op), ref)
            masks, weights = reference_gradients(op, ref)
            assert list(ranked.masks) == masks
            assert [w.hex() for w in ranked.weights] == [w.hex() for w in weights]

    def test_qubit_count_mismatch(self):
        h = PauliSum.from_text("1.0 X0\n", 1)
        with pytest.raises(ValueError):
            gradients(ising_decompose(h), ReferenceState(2, 0))


class TestSectorValue:
    def test_matches_oracle(self, rng):
        # at(bits)[k] is <bits| h |bits ^ masks[k]> for the diagonal and every sector
        odd_seen = 0
        for _ in range(60):
            n = rng.randint(1, 6)
            h = random_sum(rng, n, 12)
            dec = ising_decompose(h)
            hm = oracle.to_dense(h)
            odd_seen += int(np.sum(dec.keys & 1))
            for _ in range(3):
                bits = rng.getrandbits(n)
                for mask, got in zip(dec.masks.tolist(), dec.at(bits).tolist()):
                    ket = oracle.apply_to_basis_state(PauliWord(n, mask, 0), bits)
                    want = hm[bits] @ ket
                    assert got.real == pytest.approx(want.real, abs=1e-12)
                    assert got.imag == pytest.approx(want.imag, abs=1e-12)
        assert odd_seen

    def test_identity_flip(self):
        h = PauliSum.from_text("2.0 Z0\n", 2)
        ref = ReferenceState(2, 1)
        dec = ising_decompose(h)
        occ = ref.occupied_mask
        assert dec.at(occ)[0] == ref.expectation(h) == -2.0
        assert dec.at(occ ^ 0b01)[0] == -ref.expectation(h)
        kets = np.array([occ, occ ^ 0b01, occ ^ 0b10], dtype=np.uint64)
        assert dec.row(occ, kets).tolist() == [-2.0, 0j, 0j]
