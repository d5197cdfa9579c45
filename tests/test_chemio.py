import dataclasses
import math
import random
import warnings

import numpy as np
import pytest

from qubitcc import chemio, oracle
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
    clear_shape_caches,
    random_fcidump,
    reference_jw_hamiltonian,
    reference_jw_orbits,
    reference_parse_fcidump,
    reference_spin_penalty,
)

FIXTURES = sorted(p.name for p in DATA_DIR.glob("*.fcidump"))


def bitwise_terms(h: PauliSum) -> list:
    return [(w, c.hex()) for w, c in h.items()]


def assert_close_terms(got: PauliSum, want: PauliSum, tol: float = 1e-12) -> None:
    """Same words in the same order, coefficients within tol."""
    assert got.n == want.n
    assert list(got.words()) == list(want.words())
    assert np.max(np.abs(got.c - want.c), initial=0.0) <= tol


def coincidences(data: FcidumpData) -> set[str]:
    """Which coincident-index patterns carry a nonzero two-body integral."""
    found = set()
    for p, q, r, s in zip(*np.nonzero(data.two_body)):
        found |= {name for name, hit in (("p=q", p == q), ("r=s", r == s), ("p=r", p == r),
                                         ("pq=rs", (p, q) == (r, s))) if hit}
    return found


def random_fcidump_text(rng: random.Random, n_orb: int) -> str:
    """FCIDUMP text in the forms real files take.

    Each integral is written as a random member of its 8-fold orbit
    (a one-body one as (i,j) or (j,i)), with E, e, D or d exponents, in
    random order, among blank lines; some are written twice with new
    values, the core energy among them.
    """
    entries = []
    pairs = [(i, j) for i in range(1, n_orb + 1) for j in range(1, i + 1)]
    for a, (i, j) in enumerate(pairs):
        for k, l in pairs[: a + 1]:
            members = [(i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
                       (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i)]
            entries.append(rng.choice(members))
    entries += [rng.choice([(i, j, 0, 0), (j, i, 0, 0)]) for i, j in pairs]
    entries = [e for e in entries if rng.random() < 0.8] + [(0, 0, 0, 0)]
    entries += [rng.choice(entries) for _ in range(rng.randint(0, 3))]
    rng.shuffle(entries)
    lines = [f"&FCI NORB={n_orb},NELEC={n_orb},MS2=0,", "  ORBSYM=" + "1," * n_orb, "&END"]
    for entry in entries:
        value = f"{rng.uniform(-1.0, 1.0):.16e}".replace("e", rng.choice("EeDd"))
        lines.append(" ".join([value, *map(str, entry)]))
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "   ", "\t"]))
    return "\n".join(lines) + "\n"


def parse_with_warnings(parse, text: str):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data = parse(text)
    return data, [(w.category, str(w.message)) for w in caught]


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

    @pytest.mark.parametrize("norb", [33, 1000, 10**9])
    def test_norb_above_the_cap_raises_before_allocating(self, monkeypatch, norb):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the NORB check")

        monkeypatch.setattr(np, "zeros", refuse)
        with pytest.raises(ValueError, match=f"NORB={norb} is above the cap of 32 orbitals"):
            parse_fcidump(f"&FCI NORB={norb},NELEC=2 &END\n0.5 1 1 0 0\n")

    def test_norb_at_the_cap_parses(self):
        data = parse_fcidump(f"&FCI NORB={JW_QUBIT_CAP // 2},NELEC=2 &END\n0.5 32 32 0 0\n")
        assert data.one_body[31, 31] == 0.5

    @pytest.mark.parametrize("seed", range(40))
    def test_array_reader_matches_line_reader(self, seed):
        rng = random.Random(seed)
        text = random_fcidump_text(rng, rng.randint(1, 5))
        got, got_warnings = parse_with_warnings(parse_fcidump, text)
        want, want_warnings = parse_with_warnings(reference_parse_fcidump, text)
        assert (got.n_orb, got.n_elec, got.ms2, got.metadata) == (want.n_orb, want.n_elec, want.ms2, want.metadata)
        assert got.e_core == want.e_core
        assert np.array_equal(got.one_body, want.one_body)
        assert np.array_equal(got.two_body, want.two_body)
        assert got_warnings == want_warnings

    @pytest.mark.parametrize("seed", range(40))
    def test_array_reader_rejects_the_first_bad_line_as_the_line_reader(self, seed):
        # the line reader warns of repeats it met before the bad line; the
        # array reader checks every line before it warns, so only the error is compared
        rng = random.Random(seed)
        n_orb = rng.randint(1, 4)
        lines = random_fcidump_text(rng, n_orb).splitlines()
        defects = [
            lambda f: f[:4], lambda f: f + ["1"], lambda f: ["x"] + f[1:],
            lambda f: [rng.choice(["nan", "-inf", "1D999"])] + f[1:],
            lambda f: f[:1] + [str(n_orb + 1)] + f[2:], lambda f: f[:1] + ["-1"] + f[2:],
            lambda f: f[:1] + ["1.5"] + f[2:], lambda f: f[:1] + ["1", "0", "0", "1"],
            lambda f: f[:1] + ["0", "1", "0", "0"], lambda f: f[:1] + ["1", "1", "1", "0"],
            lambda f: f[:1] + ["9" * 30] + f[2:],
        ]
        body = [i for i, line in enumerate(lines) if len(line.split()) == 5]
        for at in rng.sample(body, min(len(body), rng.randint(1, 3))):
            lines[at] = " ".join(rng.choice(defects)(lines[at].split()))
        text = "\n".join(lines)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError) as want:
                reference_parse_fcidump(text)
            with pytest.raises(ValueError) as got:
                parse_fcidump(text)
        assert str(got.value) == str(want.value)

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

    def test_drop_threshold_keeps_a_term_at_it(self, h2_fcidump):
        # the drop is PauliSum.truncate's, which keeps a magnitude equal to the threshold
        data = load_fcidump(str(h2_fcidump))
        for word, c in jw_hamiltonian(data).items():
            assert jw_hamiltonian(data, drop_threshold=abs(c)).coefficient(word) == c


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


# five two-body orbits and two one-body pairs on 34 qubits
SPARSE_17 = (
    "&FCI NORB=17,NELEC=2 &END\n0.6745 1 1 1 1\n0.1813 17 1 17 1\n0.6636 17 17 1 1\n"
    "0.6975 17 17 17 17\n-1.2528 1 1 0 0\n-0.4756 17 17 0 0\n"
)


class TestMaskArrayExpansion:
    """The array expansion against the term-by-term references."""

    # the full 8-fold expansion checks the orbit-representative mapping; its
    # order of additions differs, so the two agree to 1e-12, not bit for bit
    @pytest.mark.parametrize("n_orb", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("e_core", [0.0, 0.7131])
    def test_jw_bit_identical(self, rng, n_orb, e_core):
        data = random_fcidump(rng, n_orb, n_orb, e_core)
        assert n_orb == 1 or np.count_nonzero(data.two_body == 0.0) > 0
        if n_orb > 1:
            assert coincidences(data) == {"p=q", "r=s", "p=r", "pq=rs"}
        got = jw_hamiltonian(data)
        assert got.n == 2 * n_orb
        assert_close_terms(got, reference_jw_hamiltonian(data))

    def test_jw_bit_identical_with_drop_threshold(self, rng):
        data = random_fcidump(rng, 3, 2, -1.5)
        got = jw_hamiltonian(data, drop_threshold=0.05)
        assert_close_terms(got, reference_jw_hamiltonian(data, drop_threshold=0.05))
        assert len(got) < len(jw_hamiltonian(data))

    @pytest.mark.parametrize("name", FIXTURES)
    def test_jw_matches_full_expansion_on_fixtures(self, name):
        data = load_fcidump(str(DATA_DIR / name))
        assert_close_terms(jw_hamiltonian(data), reference_jw_hamiltonian(data))

    @pytest.mark.parametrize("n_orb", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("e_core", [0.0, 0.7131])
    def test_jw_orbit_order_bit_identical(self, rng, n_orb, e_core):
        data = random_fcidump(rng, n_orb, n_orb, e_core)
        assert bitwise_terms(jw_hamiltonian(data)) == bitwise_terms(reference_jw_orbits(data))
        got = jw_hamiltonian(data, drop_threshold=0.05)
        assert bitwise_terms(got) == bitwise_terms(reference_jw_orbits(data, drop_threshold=0.05))

    @pytest.mark.parametrize("name", FIXTURES)
    def test_jw_orbit_order_bit_identical_on_fixtures(self, name):
        data = load_fcidump(str(DATA_DIR / name))
        assert bitwise_terms(jw_hamiltonian(data)) == bitwise_terms(reference_jw_orbits(data))

    def test_broken_adjoint_symmetry_raises(self, rng):
        # (pq|rs) and its pair swap (rs|pq) move together, the adjoint (qp|sr) does not
        data = random_fcidump(rng, 3, 2, 0.0)
        data.two_body[0, 1, 2, 2] += 0.25
        data.two_body[2, 2, 0, 1] += 0.25
        with pytest.raises(ValueError, match="imaginary coefficients"):
            jw_hamiltonian(data)

    def test_broken_pair_swap_symmetry_maps_like_the_full_expansion(self, rng):
        # O(pqrs) = O(rspq) for any integrals, so only the orbit sum counts
        data = random_fcidump(rng, 3, 2, 0.0)
        data.two_body[0, 1, 2, 2] += 0.25
        data.two_body[1, 0, 2, 2] += 0.25
        assert data.two_body[0, 1, 2, 2] != data.two_body[2, 2, 0, 1]
        got = jw_hamiltonian(data)
        assert_close_terms(got, reference_jw_hamiltonian(data))
        assert bitwise_terms(got) == bitwise_terms(reference_jw_orbits(data))

    @pytest.mark.parametrize("n_orb", [1, 2, 4])
    def test_spin_penalty_bit_identical(self, n_orb):
        assert bitwise_terms(spin_penalty(n_orb)) == bitwise_terms(reference_spin_penalty(n_orb))

    # 34 qubits: the masks are too wide for a packed key, so every join of
    # the terms so far groups them on the two-mask lexsort path
    def test_spin_penalty_bit_identical_above_32_qubits(self):
        assert bitwise_terms(spin_penalty(17)) == bitwise_terms(reference_spin_penalty(17))

    def test_jw_orbit_order_bit_identical_above_32_qubits(self):
        data = parse_fcidump(SPARSE_17)
        got = jw_hamiltonian(data)
        assert int(np.max(got.z)).bit_length() == 34
        assert bitwise_terms(got) == bitwise_terms(reference_jw_orbits(data))

    def test_non_symmetric_one_body_raises(self, rng):
        data = random_fcidump(rng, 3, 2, 0.0)
        data.one_body[0, 1] += 0.25
        with pytest.raises(ValueError, match="imaginary coefficients"):
            jw_hamiltonian(data)

    def test_non_finite_integral_raises(self, rng):
        # nan passes a tolerance test, and truncate would drop its terms
        for name, index, value in (("one_body", (1, 1), np.nan), ("two_body", (0, 2, 1, 1), np.inf)):
            data = random_fcidump(rng, 3, 2, 0.0)
            getattr(data, name)[index] = value
            with pytest.raises(ValueError, match=rf"{name}\[{', '.join(map(str, index))}\] is {value}"):
                jw_hamiltonian(data)

    def test_qubit_cap(self):
        # placeholder integrals: the cap must trip before they are read
        n_orb = JW_QUBIT_CAP // 2 + 1
        data = FcidumpData(n_orb, 2, 0, 0.0, np.zeros((1, 1)), np.zeros((1, 1, 1, 1)))
        with pytest.raises(ValueError, match="capped at 64 qubits"):
            jw_hamiltonian(data)
        with pytest.raises(ValueError, match="capped at 64 qubits"):
            spin_penalty(n_orb)


class TestShapePlans:
    """The integral-free half of the map, built once per shape and kept."""

    @pytest.fixture(autouse=True)
    def cold(self):
        clear_shape_caches()
        yield
        clear_shape_caches()

    @staticmethod
    def rescaled(data, scale):
        # every orbit's members are equal, so scaling keeps each weight's zero or nonzero
        return dataclasses.replace(data, one_body=scale * data.one_body,
                                   two_body=scale * data.two_body, e_core=data.e_core - scale)

    def test_same_shape_reuses_the_plan(self, rng):
        a = random_fcidump(rng, 4, 4, 0.7131)
        b = self.rescaled(a, 0.37)
        for data in (a, b, a):
            assert bitwise_terms(jw_hamiltonian(data)) == bitwise_terms(reference_jw_orbits(data))
        assert chemio._jw_plan.cache_info()[:2] == (2, 1)  # hits, misses

    def test_a_zeroed_integral_is_a_new_shape(self, rng):
        a = random_fcidump(rng, 4, 4, 0.7131)
        b = self.rescaled(a, 0.37)
        p, q, r, s = (int(i[0]) for i in np.nonzero(b.two_body))
        for perm in ((p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                     (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p)):
            b.two_body[perm] = 0.0
        for data in (a, b):
            assert bitwise_terms(jw_hamiltonian(data)) == bitwise_terms(reference_jw_orbits(data))
        assert chemio._jw_plan.cache_info()[:2] == (0, 2)

    def test_cache_holds_at_most_its_bound(self, rng):
        for n_orb in range(1, chemio._CACHED_SHAPES + 3):
            data = random_fcidump(rng, n_orb, n_orb, 0.0)
            assert bitwise_terms(jw_hamiltonian(data)) == bitwise_terms(reference_jw_orbits(data))
        for kept in (chemio._jw_plan, chemio._orbits):
            assert kept.cache_info().currsize == chemio._CACHED_SHAPES

    def test_returned_terms_are_read_only(self, rng):
        data = random_fcidump(rng, 3, 2, -1.5)
        h = jw_hamiltonian(data)
        want = bitwise_terms(h)
        for a in (h.x, h.z, h.c):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        assert bitwise_terms(jw_hamiltonian(data)) == want

    def test_sparse_input_plans_only_its_nonzero_orbits(self, monkeypatch):
        plans = []
        build = chemio._jw_plan

        def recorded(*shape):
            plans.append(build(*shape))
            return plans[-1]

        monkeypatch.setattr(chemio, "_jw_plan", recorded)
        data = parse_fcidump(SPARSE_17)
        assert bitwise_terms(jw_hamiltonian(data)) == bitwise_terms(reference_jw_orbits(data))
        (ux, uz, inverse, source), = plans
        # the core energy, 2 one-body and 5 two-body weights ((17 1|17 1) and
        # (1 17|17 1) are two orbits), and their negatives
        assert int(source.max()) == 2 * (1 + 2 + 5) - 1
        # a pair has 2 spins x 4 products, an orbit 4 spin pairs x 16, before the real ones are kept
        assert len(source) <= 1 + 2 * 8 + 5 * 64
        assert all(not a.flags.writeable for a in (ux, uz, inverse, source))
        assert inverse.dtype == source.dtype == np.int32
