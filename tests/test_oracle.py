import math
import random
import tracemalloc

import numpy as np
import pytest

from qubitcc import fci, oracle
from qubitcc.chemio import jw_hamiltonian, load_fcidump
from qubitcc.pauli import PauliSum, PauliWord, ReferenceState

from conftest import DATA_DIR, random_even_sum, random_fcidump, random_sum, random_word

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def kron_word(letters):
    """letters[q] for qubit q; qubit 0 is the least significant factor."""
    out = np.eye(1, dtype=complex)
    for m in letters:
        out = np.kron(m, out)
    return out


class TestDense:
    def test_single_qubit_letters(self):
        assert np.allclose(oracle.to_dense(PauliWord(1, 1, 0)), X)
        assert np.allclose(oracle.to_dense(PauliWord(1, 1, 1)), Y)
        assert np.allclose(oracle.to_dense(PauliWord(1, 0, 1)), Z)

    def test_qubit_order_convention(self):
        # X on qubit 0, Z on qubit 1: basis index bit 0 belongs to qubit 0
        w = PauliWord(2, 0b01, 0b10)
        assert np.allclose(oracle.to_dense(w), kron_word([X, Z]))

    def test_three_qubit_word(self):
        w = PauliWord.from_factors(3, [("Y", 0), ("Z", 2)])
        assert np.allclose(oracle.to_dense(w), kron_word([Y, I2, Z]))

    def test_sum_linearity(self, rng):
        n = 3
        a = random_sum(rng, n, 5)
        b = random_sum(rng, n, 5)
        lhs = oracle.to_dense(a + b)
        assert np.allclose(lhs, oracle.to_dense(a) + oracle.to_dense(b), atol=1e-13)

    def test_cap(self):
        h = PauliSum(oracle.DENSE_QUBIT_CAP + 1, [(PauliWord(oracle.DENSE_QUBIT_CAP + 1, 1, 0), 1.0)])
        with pytest.raises(ValueError, match="capped"):
            oracle.to_dense(h)


class TestApply:
    def test_matches_dense_matvec(self, rng):
        for _ in range(40):
            n = rng.randint(1, 6)
            h = random_sum(rng, n, 10)
            vec = (np.random.default_rng(1).normal(size=2**n)
                   + 1j * np.random.default_rng(2).normal(size=2**n))
            want = oracle.to_dense(h) @ vec
            assert np.allclose(oracle.apply_sum(h, vec), want, atol=1e-11)

    def test_basis_state_application(self, rng):
        for _ in range(40):
            n = rng.randint(1, 6)
            w = random_word(rng, n)
            bits = rng.getrandbits(n)
            vec = np.zeros(2**n, dtype=complex)
            vec[bits] = 1.0
            want = oracle.to_dense(w) @ vec
            got = oracle.apply_to_basis_state(w, bits)
            assert np.allclose(got, want, atol=1e-13)

    def test_cap(self):
        n = oracle.APPLY_QUBIT_CAP + 1
        h = PauliSum(n, [(PauliWord(n, 1, 0), 1.0)])
        with pytest.raises(ValueError, match="capped"):
            oracle.apply_sum(h, np.zeros(2**n, dtype=complex))


class TestGroundState:
    def test_reference_vector(self):
        ref = ReferenceState(3, 2)
        vec = oracle.reference_vector(ref)
        assert vec[0b011] == 1.0
        assert np.sum(np.abs(vec)) == 1.0

    def test_expectation_consistency(self, rng):
        for _ in range(20):
            n = rng.randint(1, 5)
            h = random_sum(rng, n, 8)
            ref = ReferenceState(n, rng.randint(0, n))
            vec = oracle.reference_vector(ref)
            want = (vec.conj() @ oracle.to_dense(h) @ vec).real
            assert oracle.expectation(h, vec) == pytest.approx(want, abs=1e-12)

    def test_dense_ground_state(self, rng):
        for _ in range(10):
            n = rng.randint(1, 5)
            h = random_sum(rng, n, 10)
            energy, vec = oracle.ground_state(h)
            eigs = np.linalg.eigvalsh(oracle.to_dense(h))
            assert energy == pytest.approx(eigs[0], abs=1e-11)
            resid = oracle.apply_sum(h, vec) - energy * vec
            assert np.linalg.norm(resid) < 1e-9

    def test_davidson_on_apply_sum_agrees_with_dense(self, rng):
        # the package's iterative eigensolver on the matrix-free product
        # over the whole space, preconditioned by the dense diagonal
        h = random_even_sum(rng, 6, 20)
        dense = oracle.to_dense(h)
        e_dense = float(np.linalg.eigvalsh(dense)[0])
        e_iter = fci._davidson(lambda v: oracle.apply_sum(h, v), np.diag(dense).real, complex)[0]
        assert e_iter == pytest.approx(e_dense, abs=1e-8)
        assert oracle.ground_energy(h) == pytest.approx(e_dense, abs=1e-10)

    def test_whole_space_capped_at_the_dense_size(self):
        n = oracle.DENSE_QUBIT_CAP + 1
        h = PauliSum(n, [(PauliWord(n, 0, 1), 1.0)])
        with pytest.raises(ValueError, match="capped at 14 qubits and this Hamiltonian has 15; give an electron count"):
            oracle.ground_state(h)
        assert oracle.ground_energy(h, n_elec=1) == pytest.approx(-1.0, abs=1e-12)


class TestElectronSector:
    def sector_dense_minimum(self, h, n_elec):
        """Lowest eigenvalue of the dense matrix restricted to n_elec set bits."""
        keep = [b for b in range(2**h.n) if b.bit_count() == n_elec]
        return float(np.linalg.eigvalsh(oracle.to_dense(h)[np.ix_(keep, keep)])[0])

    @pytest.mark.parametrize("name", ["h2_r1", "h2_r1p2", "h2_r1p4", "h2_r1p8", "h2_r2p4"])
    def test_agrees_with_full_space_on_h2(self, name):
        # these H2 ground states have two electrons, so both solves agree
        h = jw_hamiltonian(load_fcidump(str(DATA_DIR / f"{name}.fcidump")))
        assert oracle.ground_energy(h, n_elec=2) == pytest.approx(
            oracle.ground_energy(h), abs=1e-10
        )

    def test_shifted_h2_picks_the_sector(self):
        # lowering each orbital energy by 1 Eh favours another electron count
        data = load_fcidump(str(DATA_DIR / "h2_r1p4.fcidump"))
        data.one_body[np.diag_indices(data.n_orb)] -= 1.0
        h = jw_hamiltonian(data)
        assert oracle.ground_energy(h, n_elec=2) == pytest.approx(-3.13727594, abs=1e-8)
        assert oracle.ground_energy(h) == pytest.approx(-3.44644656, abs=1e-8)

    @pytest.mark.parametrize("n_elec", [0, 1, 3, 6])
    def test_eigenpair_on_random_integrals(self, rng, n_elec):
        h = jw_hamiltonian(random_fcidump(rng, 3, n_elec, 0.3))
        energy, vec = oracle.ground_state(h, n_elec=n_elec)
        assert energy == pytest.approx(self.sector_dense_minimum(h, n_elec), abs=1e-10)
        assert vec.shape == (2**h.n,)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        outside = [b for b in range(2**h.n) if b.bit_count() != n_elec]
        assert not vec[outside].any()
        assert oracle.expectation(h, vec) == pytest.approx(energy, abs=1e-10)

    @pytest.mark.parametrize("case", ["real", "complex", "one-state"])
    def test_davidson_branch_agrees_with_dense(self, rng, monkeypatch, case):
        if case == "real":
            h, n_elec = jw_hamiltonian(random_fcidump(rng, 4, 4, 0.0)), 4
        elif case == "complex":
            # test_complex_hermitian_sum's odd-Y hopping along a chain, with distinct
            # on-site fields: 70 states, so the Davidson basis restarts
            n, n_elec = 8, 4
            terms = [(PauliWord(n, 0, 1 << j), 0.2 * (j + 1)) for j in range(n)]
            for j in range(n - 1):
                terms += [(PauliWord(n, 0b11 << j, 1 << j), 0.5),
                          (PauliWord(n, 0b11 << j, 0b10 << j), -0.5)]
            h = PauliSum(n, terms)
            assert math.comb(n, n_elec) > fci._SUBSPACE
            assert any(np.iscomplexobj(vals) for *_, vals in oracle._sector_matrix(h, n_elec)[1])
        else:
            h, n_elec = jw_hamiltonian(random_fcidump(rng, 3, 6, 0.3)), 6
        dense = oracle.ground_energy(h, n_elec=n_elec)
        monkeypatch.setattr(oracle, "_SECTOR_DENSE_STATES", 0)
        energy, vec = oracle.ground_state(h, n_elec=n_elec)
        assert energy == pytest.approx(dense, abs=1e-10)
        assert oracle.expectation(h, vec) == pytest.approx(energy, abs=1e-10)
        assert np.linalg.norm(oracle.apply_sum(h, vec) - energy * vec) < 1e-7

    def test_sector_build_holds_each_entry_once(self):
        # 3432 states, past the dense cutoff: the groups are kept as built, never joined
        h = jw_hamiltonian(random_fcidump(random.Random(7), 7, 7, 0.0))
        tracemalloc.start()
        try:
            basis, groups = oracle._sector_matrix(h, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(basis) == 3432 > oracle._SECTOR_DENSE_STATES
        kept = basis.nbytes + sum(part.nbytes for group in groups for part in group)
        assert peak < 2 * kept

    def test_complex_hermitian_sum(self):
        # a hopping with an odd Y count: purely imaginary off-diagonal
        h = PauliSum(2, [(PauliWord(2, 0b11, 0b01), 0.5), (PauliWord(2, 0b11, 0b10), -0.5),
                         (PauliWord(2, 0, 0b01), 0.2)])
        energy, vec = oracle.ground_state(h, n_elec=1)
        assert energy == pytest.approx(self.sector_dense_minimum(h, 1), abs=1e-12)
        # the spectrum is blind to conjugation; the eigenvector is not
        assert oracle.expectation(h, vec) == pytest.approx(energy, abs=1e-12)

    def test_rejects_non_conserving_sum(self):
        h = PauliSum(2, [(PauliWord(2, 0b01, 0), 0.3), (PauliWord(2, 0, 0b11), 1.0)])
        with pytest.raises(ValueError, match="does not conserve the electron count"):
            oracle.ground_state(h, n_elec=1)

    def test_rejects_n_elec_outside_the_register(self):
        h = PauliSum(3, [(PauliWord(3, 0, 0b001), 1.0)])
        for n_elec in (-1, 4):
            with pytest.raises(ValueError, match="n_elec must lie in 0..3"):
                oracle.ground_state(h, n_elec=n_elec)

    def test_sector_cap(self):
        n = oracle.APPLY_QUBIT_CAP
        h = PauliSum(n, [(PauliWord(n, 0, 1), 1.0)])
        with pytest.raises(ValueError, match="capped at 16384"):
            oracle.ground_state(h, n_elec=n // 2)
