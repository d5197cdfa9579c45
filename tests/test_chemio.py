import math

import numpy as np
import pytest

from qubitcc import oracle
from qubitcc.chemio import (
    JW_QUBIT_CAP,
    FcidumpData,
    add_spin_penalty,
    hf_reference,
    jw_hamiltonian,
    load_fcidump,
    parse_fcidump,
    spin_penalty,
)
from qubitcc.pauli import PauliSum, PauliWord, ReferenceState

from conftest import (
    DATA_DIR,
    random_fcidump,
    reference_jw_hamiltonian,
    reference_spin_penalty,
)


def bitwise_terms(h: PauliSum) -> list:
    return [(w, c.hex()) for w, c in h.items()]

MINIMAL = """&FCI NORB=2,NELEC=2,MS2=0,
 ORBSYM=1,1,
 ISYM=1,
&END
 0.5 1 1 1 1
-1.25 1 1 0 0
 0.7 0 0 0 0
"""


class TestParse:
    def test_minimal(self):
        data = parse_fcidump(MINIMAL)
        assert data.n_orb == 2 and data.n_elec == 2 and data.ms2 == 0
        assert data.e_core == pytest.approx(0.7)
        assert data.one_body[0, 0] == pytest.approx(-1.25)
        assert data.two_body[0, 0, 0, 0] == pytest.approx(0.5)
        assert data.metadata["ORBSYM"] == "1,1"

    def test_slash_terminator_and_d_exponents(self):
        text = "&FCI NORB=1,NELEC=1\n/\n-4.75D-01 1 1 0 0\n1.0 0 0 0 0\n"
        data = parse_fcidump(text)
        assert data.one_body[0, 0] == pytest.approx(-0.475)
        assert data.e_core == pytest.approx(1.0)

    def test_two_body_eightfold_symmetry(self):
        text = "&FCI NORB=2,NELEC=2 &END\n0.3 2 1 2 2\n"
        data = parse_fcidump(text)
        g = data.two_body
        val = g[1, 0, 1, 1]
        for p in [(1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 0), (1, 1, 0, 1)]:
            assert g[p] == pytest.approx(val)

    def test_one_body_symmetrized(self):
        text = "&FCI NORB=2,NELEC=2 &END\n0.25 2 1 0 0\n"
        data = parse_fcidump(text)
        assert data.one_body[1, 0] == pytest.approx(0.25)
        assert data.one_body[0, 1] == pytest.approx(0.25)

    def test_duplicate_warns_and_keeps_last(self):
        text = "&FCI NORB=1,NELEC=1 &END\n0.5 1 1 0 0\n0.6 1 1 0 0\n"
        with pytest.warns(UserWarning, match="repeated"):
            data = parse_fcidump(text)
        assert data.one_body[0, 0] == pytest.approx(0.6)

    def test_header_errors(self):
        with pytest.raises(ValueError, match="namelist"):
            parse_fcidump("NORB=2\n")
        with pytest.raises(ValueError, match="terminator"):
            parse_fcidump("&FCI NORB=2,NELEC=2\n0.5 1 1 0 0\n")
        with pytest.raises(ValueError, match="NORB"):
            parse_fcidump("&FCI NELEC=2 &END\n")
        with pytest.raises(ValueError, match="NELEC"):
            parse_fcidump("&FCI NORB=2 &END\n")

    def test_body_errors(self):
        with pytest.raises(ValueError, match="5 fields"):
            parse_fcidump("&FCI NORB=1,NELEC=1 &END\n0.5 1 1\n")
        with pytest.raises(ValueError, match="malformed"):
            parse_fcidump("&FCI NORB=1,NELEC=1 &END\nx 1 1 0 0\n")
        with pytest.raises(ValueError, match="index"):
            parse_fcidump("&FCI NORB=1,NELEC=1 &END\n0.5 2 1 0 0\n")
        with pytest.raises(ValueError, match="zero index"):
            parse_fcidump("&FCI NORB=2,NELEC=2 &END\n0.5 1 0 0 0\n")
        with pytest.raises(ValueError, match="zero index"):
            parse_fcidump("&FCI NORB=2,NELEC=2 &END\n0.5 1 1 2 0\n")
        with pytest.raises(ValueError, match="NELEC"):
            parse_fcidump("&FCI NORB=1,NELEC=5 &END\n")

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-Infinity", "1D999"])
    def test_non_finite_integral_rejected(self, value):
        # before the check a nan dropped every term it touched from the mapping
        with pytest.raises(ValueError, match=f"integral line 3: non-finite value '{value}'"):
            parse_fcidump(f"&FCI NORB=1,NELEC=1 &END\n0.5 1 1 0 0\n{value} 1 1 1 1\n")

    def test_fixture_round_trip(self, h2_fcidump):
        data = load_fcidump(str(h2_fcidump))
        assert data.n_orb == 2 and data.n_elec == 2
        assert data.e_core == pytest.approx(1.0 / 1.4)
        # symmetry blocks: the one-body gerade/ungerade cross term vanishes
        assert data.one_body[0, 1] == pytest.approx(0.0, abs=1e-14)


class TestJordanWigner:
    def test_h2_term_count_and_reality(self, h2_fcidump):
        h = jw_hamiltonian(load_fcidump(str(h2_fcidump)))
        assert h.n == 4
        assert len(h) == 15
        assert all(w.y_count() % 2 == 0 for w in h.words())

    def test_h2_hermitian_dense(self, h2_fcidump):
        h = jw_hamiltonian(load_fcidump(str(h2_fcidump)))
        hm = oracle.to_dense(h)
        assert np.allclose(hm, hm.conj().T, atol=1e-13)
        assert np.allclose(hm.imag, 0.0, atol=1e-13)

    def test_h2_hf_energy_anchor(self, h2_fcidump):
        data = load_fcidump(str(h2_fcidump))
        h = jw_hamiltonian(data)
        ref = hf_reference(data)
        assert ref.n_elec == 2
        # independently: E_HF = 2 h11 + (11|11) + E_core
        want = 2.0 * data.one_body[0, 0] + data.two_body[0, 0, 0, 0] + data.e_core
        assert ref.expectation(h) == pytest.approx(want, abs=1e-12)
        assert ref.expectation(h) == pytest.approx(-1.116714325063, abs=1e-10)

    def test_h2_fci_energy_anchor(self, h2_fcidump):
        h = jw_hamiltonian(load_fcidump(str(h2_fcidump)))
        assert oracle.ground_energy(h) == pytest.approx(-1.137275943617, abs=1e-10)

    def test_h2_fci_matches_secular_two_by_two(self, h2_fcidump):
        # the singlet sigma-g block couples |g g> and |u u> only
        data = load_fcidump(str(h2_fcidump))
        h11 = 2 * data.one_body[0, 0] + data.two_body[0, 0, 0, 0]
        h22 = 2 * data.one_body[1, 1] + data.two_body[1, 1, 1, 1]
        k12 = data.two_body[0, 1, 0, 1]
        avg = 0.5 * (h11 + h22)
        want = avg - math.hypot(0.5 * (h11 - h22), k12) + data.e_core
        h = jw_hamiltonian(data)
        assert oracle.ground_energy(h) == pytest.approx(want, abs=1e-10)

    def test_number_operator_commutes(self, h2_fcidump):
        # particle number is conserved by any molecular Hamiltonian
        h = jw_hamiltonian(load_fcidump(str(h2_fcidump)))
        nm = sum(
            0.5 * (np.eye(16) - oracle.to_dense(PauliSum(4, [(PauliWord(4, 0, 1 << q), 1.0)])))
            for q in range(4)
        )
        hm = oracle.to_dense(h)
        assert np.allclose(hm @ nm, nm @ hm, atol=1e-12)

    def test_drop_threshold(self, h2_fcidump):
        data = load_fcidump(str(h2_fcidump))
        loose = jw_hamiltonian(data, drop_threshold=0.05)
        tight = jw_hamiltonian(data)
        assert len(loose) < len(tight)
        assert all(abs(c) > 0.05 for _, c in loose.items())


class TestSpinPenalty:
    def test_closed_shell_reference_is_annihilated(self, h2_fcidump):
        data = load_fcidump(str(h2_fcidump))
        w = spin_penalty(data.n_orb)
        assert hf_reference(data).expectation(w) == pytest.approx(0.0, abs=1e-12)

    def test_single_alpha_doublet_value(self):
        # one unpaired alpha spin: S(S+1) - Sz = 3/4 - 1/2
        w = spin_penalty(1)
        ref = ReferenceState(2, 1)
        assert ref.expectation(w) == pytest.approx(0.25, abs=1e-12)

    def test_penalty_spectrum_nonnegative(self):
        for n_orb in (1, 2):
            w = spin_penalty(n_orb)
            eigs = np.linalg.eigvalsh(oracle.to_dense(w))
            assert eigs.min() > -1e-10

    def test_matches_dense_operator_algebra(self):
        # build S^2 - S_z from dense ladder matrices and compare
        n_orb = 2
        n_q = 2 * n_orb
        dim = 2**n_q

        def ladder_minus(q):
            # |0><1| on qubit q with the Z chain below (annihilation)
            out = np.zeros((dim, dim), dtype=complex)
            for b in range(dim):
                if (b >> q) & 1:
                    sign = (-1) ** bin(b & ((1 << q) - 1)).count("1")
                    out[b ^ (1 << q), b] = sign
            return out

        sp = sum(ladder_minus(2 * p).conj().T @ ladder_minus(2 * p + 1) for p in range(n_orb))
        sm = sp.conj().T
        sz = sum(
            0.5 * (ladder_minus(2 * p).conj().T @ ladder_minus(2 * p)
                   - ladder_minus(2 * p + 1).conj().T @ ladder_minus(2 * p + 1))
            for p in range(n_orb)
        )
        want = sm @ sp + sz @ sz
        got = oracle.to_dense(spin_penalty(n_orb))
        assert np.allclose(got, want, atol=1e-12)

    def test_add_spin_penalty_shifts_open_shell_states(self, h2_fcidump):
        data = load_fcidump(str(h2_fcidump))
        h = jw_hamiltonian(data)
        hp = add_spin_penalty(h, data.n_orb, 2.0)
        # singlet ground state is untouched
        assert oracle.ground_energy(hp) == pytest.approx(oracle.ground_energy(h), abs=1e-10)
        # but the penalized operator differs
        assert hp != h

    def test_zero_mu_is_identity(self, h2_fcidump):
        data = load_fcidump(str(h2_fcidump))
        h = jw_hamiltonian(data)
        assert add_spin_penalty(h, data.n_orb, 0.0) == h


class TestMaskArrayExpansion:
    """The array expansion against the term-by-term reference, bit for bit."""

    @pytest.mark.parametrize("n_orb", [1, 3, 4])
    @pytest.mark.parametrize("e_core", [0.0, 0.7131])
    def test_jw_bit_identical(self, rng, n_orb, e_core):
        data = random_fcidump(rng, n_orb, n_orb, e_core)
        assert n_orb == 1 or np.count_nonzero(data.two_body == 0.0) > 0
        got = jw_hamiltonian(data)
        want = reference_jw_hamiltonian(data)
        assert got.n == want.n == 2 * n_orb
        assert bitwise_terms(got) == bitwise_terms(want)

    def test_jw_bit_identical_with_drop_threshold(self, rng):
        data = random_fcidump(rng, 3, 2, -1.5)
        got = jw_hamiltonian(data, drop_threshold=0.05)
        assert bitwise_terms(got) == bitwise_terms(reference_jw_hamiltonian(data, drop_threshold=0.05))
        assert len(got) < len(jw_hamiltonian(data))

    @pytest.mark.parametrize("n_orb", [1, 2, 4])
    def test_spin_penalty_bit_identical(self, n_orb):
        assert bitwise_terms(spin_penalty(n_orb)) == bitwise_terms(reference_spin_penalty(n_orb))

    def test_non_symmetric_one_body_raises(self, rng):
        data = random_fcidump(rng, 3, 2, 0.0)
        data.one_body[0, 1] += 0.25
        with pytest.raises(ValueError, match="imaginary coefficients"):
            jw_hamiltonian(data)

    def test_qubit_cap(self):
        # placeholder integrals: the cap must trip before they are read
        n_orb = JW_QUBIT_CAP // 2 + 1
        data = FcidumpData(n_orb, 2, 0, 0.0, np.zeros((1, 1)), np.zeros((1, 1, 1, 1)))
        with pytest.raises(ValueError, match="capped at 64 qubits"):
            jw_hamiltonian(data)
        with pytest.raises(ValueError, match="capped at 64 qubits"):
            spin_penalty(n_orb)
