import math
import random

import numpy as np
import pytest

from qubitcc import chemio, fci, oracle
from qubitcc.chemio import add_spin_penalty, jw_hamiltonian, load_fcidump, parse_fcidump
from qubitcc.fci import fci_ground_energy

from conftest import DATA_DIR, HUND_FCIDUMP, clear_shape_caches, fresh_interpreter, random_fcidump

FIXTURES = sorted(p.name for p in DATA_DIR.glob("*.fcidump"))


def sector_energy(data):
    """The Pauli-sector oracle on the Jordan-Wigner image: the independent check."""
    return oracle.ground_energy(jw_hamiltonian(data), n_elec=data.n_elec)


def triplet_ground_fcidump(n_orb: int) -> str:
    """Two electrons whose ground state is a triplet, though the lowest determinant is closed-shell.

    Orbital 1 doubly occupied has the lowest diagonal (-1.0 against -0.95
    for one electron in each of orbitals 1 and 2), but the exchange
    integral (12|12) = 0.4 puts the triplet at -1.35, below every singlet.
    Orbitals 3 and up lie at +1 and couple weakly to the rest.
    """
    rng = random.Random(5)
    lines = [f"&FCI NORB={n_orb},NELEC=2,MS2=0,", "&END"]
    pairs = [(i, j) for i in range(1, n_orb + 1) for j in range(1, i + 1)]
    for a, (i, j) in enumerate(pairs):
        for k, l in pairs[: a + 1]:
            if (i, j) == (k, l) == (i, i):
                value = 1.0  # (ii|ii)
            elif i == j and k == l:
                value = 0.95 if (i, k) == (2, 1) else 0.5  # (ii|kk)
            elif (i, j) == (k, l):
                value = 0.4 if (i, j) == (2, 1) else 0.1  # (ij|ij)
            else:
                value = rng.uniform(-0.02, 0.02)
            lines.append(f"{value!r} {i} {j} {k} {l}")
    for i, j in pairs:
        value = {1: -1.0, 2: -0.9}.get(i, 1.0) if i == j else rng.uniform(-0.02, 0.02)
        lines.append(f"{value!r} {i} {j} 0 0")
    return "\n".join(lines)


def slater_condon_diagonal(data):
    """<I|H|I> for each (alpha, beta) pair of strings, one determinant at a time."""
    n_orb, h, g = data.n_orb, data.one_body, data.two_body
    n_alpha, n_beta = (data.n_elec + 1) // 2, data.n_elec // 2
    out = []
    for a in fci._strings(n_orb, n_alpha).tolist():
        for b in fci._strings(n_orb, n_beta).tolist():
            spin_orbitals = [(p, s) for s, bits in enumerate((a, b))
                             for p in range(n_orb) if bits >> p & 1]
            e = data.e_core + sum(h[p, p] for p, _ in spin_orbitals)
            for i, (p, s) in enumerate(spin_orbitals):
                for q, t in spin_orbitals[:i]:
                    e += g[p, p, q, q] - (g[p, q, q, p] if s == t else 0.0)
            out.append(e)
    return np.array(out)


class TestAgreesWithTheSectorOracle:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, name):
        data = load_fcidump(str(DATA_DIR / name))
        assert fci_ground_energy(data) == pytest.approx(sector_energy(data), abs=1e-10)

    @pytest.mark.parametrize("n_orb", [1, 2, 3, 4, 5])
    def test_random_integrals_at_every_electron_count(self, n_orb):
        # N = 0 and N = 2 n_orb are single determinants; odd N takes the M_s = 1/2 block
        rng = random.Random(n_orb)
        for n_elec in range(2 * n_orb + 1):
            data = random_fcidump(rng, n_orb, n_elec, rng.uniform(-1.0, 1.0))
            assert fci_ground_energy(data) == pytest.approx(sector_energy(data), abs=1e-10)

    def test_high_spin_ground_state(self):
        # the triplet's M_s = 0 member is in the block
        data = parse_fcidump(HUND_FCIDUMP)
        assert fci_ground_energy(data) == pytest.approx(0.55, abs=1e-12)
        assert sector_energy(data) == pytest.approx(0.55, abs=1e-12)


class TestSolver:
    def test_davidson_branch_agrees_with_dense(self, monkeypatch):
        rng = random.Random(7)
        cases = [load_fcidump(str(DATA_DIR / "h4_r2p0.fcidump")), random_fcidump(rng, 4, 3, 0.2)]
        dense = [fci_ground_energy(data) for data in cases]
        monkeypatch.setattr(fci, "_DENSE_WORK", 0)
        for data, want in zip(cases, dense):
            assert fci_ground_energy(data) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("n_orb", [1, 2, 3, 4])
    def test_davidson_on_blocks_smaller_than_its_subspace(self, monkeypatch, n_orb):
        # down to one determinant, where the random start adds nothing to the basis
        monkeypatch.setattr(fci, "_DENSE_WORK", 0)
        rng = random.Random(10 + n_orb)
        for n_elec in range(2 * n_orb + 1):
            data = random_fcidump(rng, n_orb, n_elec, rng.uniform(-1.0, 1.0))
            assert fci_ground_energy(data) == pytest.approx(sector_energy(data), abs=1e-10)

    @pytest.mark.parametrize("n_orb", [2, 6])
    def test_davidson_finds_a_triplet_ground_state(self, monkeypatch, n_orb):
        # H and the diagonal are even under the alpha/beta swap, so from the closed-shell
        # lowest determinant alone Davidson would stay among the singlets
        data = parse_fcidump(triplet_ground_fcidump(n_orb))
        want = sector_energy(data)
        singlet = oracle.ground_energy(
            add_spin_penalty(jw_hamiltonian(data), n_orb, 1.0), n_elec=2)
        assert want < singlet - 0.01
        diag = fci._diagonal(n_orb, 1, 1, data.one_body, data.two_body, data.e_core)
        assert np.argmin(diag) == 0  # orbital 1 in both strings
        monkeypatch.setattr(fci, "_DENSE_WORK", 0)
        assert fci_ground_energy(data) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("n_orb, n_elec", [(1, 1), (3, 2), (4, 5), (5, 6), (6, 3)])
    def test_diagonal_is_slater_condon(self, n_orb, n_elec):
        data = random_fcidump(random.Random(n_orb * 10 + n_elec), n_orb, n_elec, 0.3)
        n_alpha, n_beta = (n_elec + 1) // 2, n_elec // 2
        got = fci._diagonal(n_orb, n_alpha, n_beta, data.one_body, data.two_body, data.e_core)
        assert got.shape == (math.comb(n_orb, n_alpha), math.comb(n_orb, n_beta))
        assert np.allclose(got.ravel(), slater_condon_diagonal(data), rtol=0, atol=1e-13)

    def test_uses_neither_the_mapping_nor_the_oracle(self, monkeypatch):
        data = load_fcidump(str(DATA_DIR / "h4_r2p0.fcidump"))
        want = sector_energy(data)

        def broken(*args, **kwargs):
            raise AssertionError("the direct CI must not call this")

        for module, name in ((chemio, "jw_hamiltonian"), (oracle, "ground_state"),
                             (oracle, "ground_energy")):
            monkeypatch.setattr(module, name, broken)
        assert fci_ground_energy(data) == pytest.approx(want, abs=1e-10)

    def test_davidson_blocks_leave_out_scipy(self):
        fcidump = DATA_DIR / "h6_r1p805.fcidump"  # 400 determinants: past the dense cutoff
        check = (
            "import sys; "
            "from qubitcc import fci, fci_ground_energy, load_fcidump; "
            f"data = load_fcidump({str(fcidump)!r}); "
            "assert 36 * 400 * 400 > fci._DENSE_WORK; "
            "fci_ground_energy(data); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert fresh_interpreter(check) == "[]"

    def test_dense_blocks_leave_out_scipy(self):
        fcidump = DATA_DIR / "h4_r2p0.fcidump"
        check = (
            "import sys; "
            "from qubitcc import fci_ground_energy, load_fcidump; "
            f"fci_ground_energy(load_fcidump({str(fcidump)!r})); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert fresh_interpreter(check) == "[]"

    def test_work_cap(self, monkeypatch):
        # H4: 36 determinants on 4 orbitals
        data = load_fcidump(str(DATA_DIR / "h4_r2p0.fcidump"))
        monkeypatch.setattr(fci, "WORK_CAP", 16 * 36 - 1)
        with pytest.raises(ValueError, match="36 determinants on 4 orbitals; direct CI is capped"):
            fci_ground_energy(data)
        monkeypatch.setattr(fci, "WORK_CAP", 16 * 36)
        assert fci_ground_energy(data) == pytest.approx(sector_energy(data), abs=1e-10)

    def test_rejects_electron_counts_outside_the_orbitals(self):
        data = random_fcidump(random.Random(3), 2, 2, 0.0)
        for n_elec in (-1, 5):
            data.n_elec = n_elec
            with pytest.raises(ValueError, match=r"n_elec must lie in 0\.\.4"):
                fci_ground_energy(data)

    def test_rejects_integrals_unequal_to_their_adjoint(self):
        data = random_fcidump(random.Random(3), 2, 2, 0.0)
        data.one_body[0, 1] += 0.1
        with pytest.raises(ValueError, match="differ from their adjoint's"):
            fci_ground_energy(data)

    def test_rejects_non_finite_integrals(self):
        for name, index in (("one_body", (0, 1)), ("two_body", (1, 1, 0, 1))):
            data = random_fcidump(random.Random(3), 2, 2, 0.0)
            getattr(data, name)[index] = np.nan
            with pytest.raises(ValueError, match=rf"{name}\[{', '.join(map(str, index))}\] is nan"):
                fci_ground_energy(data)


class TestKeptTables:
    """Replacement lists and the dense branch's identity images, built once per shape."""

    @staticmethod
    def cases():
        rng = random.Random(30)
        fixtures = [load_fcidump(str(DATA_DIR / f"{name}.fcidump")) for name in ("h2_r1p4", "h4_r2p0")]
        # odd N: n_alpha = n_beta + 1
        return fixtures + [random_fcidump(rng, n_orb, n_elec, rng.uniform(-1.0, 1.0))
                           for n_orb, n_elec in ((3, 3), (4, 4), (4, 3), (5, 5))]

    @pytest.mark.parametrize("dense", [True, False])
    def test_cold_and_warm_agree_bit_for_bit(self, monkeypatch, dense):
        if not dense:
            monkeypatch.setattr(fci, "_DENSE_WORK", 0)
        cases = self.cases()
        cold = []
        for data in cases:
            clear_shape_caches()
            cold.append(fci_ground_energy(data).hex())
        assert fci._identity_images.cache_info().currsize == (1 if dense else 0)
        for _ in range(2):
            assert [fci_ground_energy(data).hex() for data in cases] == cold
        assert fci._replacements.cache_info().currsize <= fci._CACHED_SHAPES
        assert fci._identity_images.cache_info().currsize <= fci._CACHED_SHAPES
        clear_shape_caches()

    def test_tables_are_read_only(self):
        data = load_fcidump(str(DATA_DIR / "h4_r2p0.fcidump"))
        fci_ground_energy(data)
        for a in (*fci._replacements(4, 2), *fci._identity_images(4, 2, 2)):
            assert not a.flags.writeable


class TestReplacementLists:
    @pytest.mark.parametrize("n_orb, n_occ", [(1, 0), (1, 1), (3, 1), (4, 2), (5, 3)])
    def test_match_ladder_operators(self, n_orb, n_occ):
        # E_pq |I> = a+_p a_q |I>, with the string's electrons created in ascending order
        def apply(p, q, occ):
            if q not in occ or (p in occ and p != q):
                return 0, None
            sign = (-1) ** sum(o < q for o in occ)
            rest = [o for o in occ if o != q]
            sign *= (-1) ** sum(o < p for o in rest)
            return sign, tuple(sorted(rest + [p]))

        strings = fci._strings(n_orb, n_occ)
        occs = [tuple(p for p in range(n_orb) if int(s) >> p & 1) for s in strings]
        pair, target, sign = fci._replacements(n_orb, n_occ)
        for i, occ in enumerate(occs):
            got = {}
            for e in range(pair.shape[1]):
                q, p = divmod(int(pair[i, e]), n_orb)  # stored transposed
                got[p, q] = (sign[i, e], occs[target[i, e]])
            want = {}
            for p in range(n_orb):
                for q in range(n_orb):
                    s, new = apply(p, q, occ)
                    if s:
                        want[p, q] = (s, new)
            assert got == want
        assert pair.dtype == target.dtype == np.uint32
