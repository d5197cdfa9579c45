import math
import warnings

import numpy as np
import pytest

from qubitcc import oracle, pauli, pipeline
from qubitcc.acset import build_anticommuting_set, canonical_generator
from qubitcc.chemio import hf_reference, jw_hamiltonian, load_fcidump
from qubitcc.ilcap import (
    build_h_matrix,
    bw_correct,
    dress_with_combination,
    en_correct,
    solve_ilcap,
)
from qubitcc.pauli import (
    I_POWERS,
    PauliSum,
    PauliWord,
    ReferenceState,
    basis_image,
    commutes,
    half_commutator,
    multiply,
)
from qubitcc.pipeline import RunConfig, run_scheme
from qubitcc.qcc import optimize_amplitudes, qcc_energy_and_gradient
from qubitcc.screen import gradients, ising_decompose

from qubitcc import ilcap
from conftest import (
    DATA_DIR,
    assert_same_sum,
    random_even_sum,
    random_sum,
    random_word,
    reference_diagonal_at,
    reference_en_correct,
    reference_half_commutator,
    reference_sector_value,
    reference_terms,
    walsh_calls,
)


def random_generators(rng, n, count):
    pool = list(range(1, 1 << n))
    rng.shuffle(pool)
    acs = build_anticommuting_set(n, pool[: count * 2], max_generators=count)
    return list(acs.generators)


def _dress_reference(h, generators, t, alphas, *, truncation_threshold=0.0):
    """dress_with_combination term by term, the check for the array version.

    Each product goes through ``multiply`` and the sums through dicts, in
    the order the array version must reproduce bit for bit: every word's
    own row c ((1 - A) + A cos t), the half-commutator rows generator by
    generator, then the real T_k w T_j rows (k < j), each standing for
    itself and its (j, k) mirror.
    """
    alphas = np.asarray(alphas, dtype=float)
    if t == 0.0 or len(generators) == 0 or not np.any(alphas):
        return h.truncate(truncation_threshold) if truncation_threshold > 0 else h
    st, ct = math.sin(t), math.cos(t)
    active = [(a, g) for a, g in zip(alphas, generators) if a != 0.0]
    terms = []
    for w, c in h.items():
        anti = 0.0
        for a, g in active:
            if not commutes(g, w):
                anti += a * a
        terms.append((w, c * ((1.0 - anti) + anti * ct)))
    for a, g in active:
        for w, c in reference_half_commutator(g, h).items():
            terms.append((w, st * a * c))
    for k, (a_k, gk) in enumerate(active):
        for a_j, gj in active[k + 1 :]:
            for w, c in h.items():
                v1, k1 = multiply(gk, w)
                v2, k2 = multiply(v1, gj)
                phase = I_POWERS[(k1 + k2) % 4]
                u1, m1 = multiply(gj, w)
                u2, m2 = multiply(u1, gk)  # the (j, k) mirror is the adjoint
                assert u2 == v2 and I_POWERS[(m1 + m2) % 4] == phase.conjugate()
                if phase.imag == 0.0:
                    terms.append((v2, (1.0 - ct) * a_k * a_j * c * phase.real))
    out = PauliSum(h.n, reference_terms(h.n, terms))
    return out.truncate(truncation_threshold) if truncation_threshold > 0 else out


def gapped_sum(rng, n, ref, strength=3.0):
    """Random even-Y sum plus a diagonal bias that pins the reference.

    Each flipped qubit costs about 2 * strength, so excitation gaps are
    positive for nearly every draw; callers still filter to be sure.
    """
    h = random_even_sum(rng, n, 10)
    occ = ref.occupied_mask
    bias = [
        (PauliWord(n, 0, 1 << j), strength if (occ >> j) & 1 else -strength)
        for j in range(n)
    ]
    return h + PauliSum(n, bias)


class TestBuildMatrix:
    def test_two_level_example(self):
        # H = z0 + 0.3 x0 on one occupied qubit: the ansatz space is the
        # whole Hilbert space, so the matrix is the full Hamiltonian
        h = PauliSum.from_text("1.0 Z0\n0.3 X0\n", 1)
        ref = ReferenceState(1, 1)
        g = canonical_generator(1, 1)
        mat = build_h_matrix(h, [g], ref)
        assert mat[0, 0] == pytest.approx(-1.0)
        assert mat[1, 1] == pytest.approx(1.0)
        assert abs(mat[0, 1]) == pytest.approx(0.3)
        assert mat[0, 1] == mat[1, 0]

    def test_matches_dense_projection(self, rng):
        for _ in range(30):
            n = rng.randint(3, 6)
            h = random_even_sum(rng, n, 12)
            ref = ReferenceState(n, rng.randint(0, n))
            gens = random_generators(rng, n, rng.randint(1, 5))
            mat = build_h_matrix(h, gens, ref)
            hm = oracle.to_dense(h)
            v0 = oracle.reference_vector(ref)
            basis = [v0]
            for g in gens:
                gm = oracle.to_dense(PauliSum(n, [(g, 1.0)]))
                basis.append(-1j * (gm @ v0))
            want = np.zeros_like(mat)
            for i, bi in enumerate(basis):
                for j, bj in enumerate(basis):
                    val = bi.conj() @ hm @ bj
                    assert abs(val.imag) < 1e-10
                    want[i, j] = val.real
            assert np.allclose(mat, want, atol=1e-9)

    def test_basis_is_orthonormal(self, rng):
        # distinct X masks guarantee it; checked through the dense oracle
        n = 5
        ref = ReferenceState(n, 2)
        gens = random_generators(rng, n, 4)
        v0 = oracle.reference_vector(ref)
        basis = [v0]
        for g in gens:
            gm = oracle.to_dense(PauliSum(n, [(g, 1.0)]))
            basis.append(-1j * (gm @ v0))
        gram = np.array([[bi.conj() @ bj for bj in basis] for bi in basis])
        assert np.allclose(gram, np.eye(len(basis)), atol=1e-12)

    def test_bracket_table_matches_dense_states(self, rng):
        # every entry of the table, the coupling block to the X_f|0>
        # included, is <v_i|h|w_j> with v = (|0>, -i T_k|0>) and w = v
        # followed by X_f|0>; random sums with odd-Y terms give complex
        # entries, so the phase of each state shows in both parts
        for _ in range(30):
            n = rng.randint(2, 6)
            h = random_sum(rng, n, 14)
            ref = ReferenceState(n, rng.randint(0, n))
            gens = random_generators(rng, n, rng.randint(0, 4))
            flips = rng.sample(range(1, 1 << n), rng.randint(0, min(6, (1 << n) - 1)))
            table = ilcap._brackets(ising_decompose(h), gens, ref, flips)
            hm = oracle.to_dense(h)
            v0 = oracle.reference_vector(ref)
            bras = [v0] + [-1j * (oracle.to_dense(PauliSum(n, [(g, 1.0)])) @ v0) for g in gens]
            kets = bras + [oracle.to_dense(PauliSum(n, [(PauliWord(n, m, 0), 1.0)])) @ v0
                           for m in flips]
            want = np.array([[bi.conj() @ hm @ kj for kj in kets] for bi in bras])
            assert table.shape == want.shape
            assert np.max(np.abs(table - want), initial=0.0) < 1e-12

    def test_rejects_even_y_generator(self, rng):
        h = random_even_sum(rng, 3, 6)
        bad = PauliWord(3, 0b11, 0b11)  # two Y factors
        with pytest.raises(ValueError):
            build_h_matrix(h, [bad], ReferenceState(3, 1))

    def test_rejects_commuting_pair(self, rng):
        h = random_even_sum(rng, 4, 6)
        a = PauliWord(4, 0b0001, 0b0001)
        b = PauliWord(4, 0b1000, 0b1000)  # disjoint supports commute
        with pytest.raises(ValueError):
            build_h_matrix(h, [a, b], ReferenceState(4, 2))

    def test_names_the_first_commuting_pair(self, rng):
        # Y0 and Z0 Y1 anti-commute; Y2 and Y3 commute with every other
        # word here, so four pairs commute and (0, 2) comes first
        n = 4
        y0, z0y1, y2, y3 = (PauliWord(n, 1, 1), PauliWord(n, 2, 3), PauliWord(n, 4, 4),
                            PauliWord(n, 8, 8))
        h = random_even_sum(rng, n, 6)
        ref = ReferenceState(n, 2)
        for gens, pair in (([y0, z0y1, y2, y3], (0, 2)), ([y2, y0, z0y1, y3], (0, 1)),
                           ([y0, z0y1, y3], (0, 2)), ([z0y1, y0, y2], (0, 2))):
            with pytest.raises(ValueError, match=f"^generators {pair[0]} and {pair[1]} commute"):
                build_h_matrix(h, gens, ref)
        # random odd-Y words: the pair named is the first in (i, j) order
        for _ in range(100):
            gens = []
            while len(gens) < 5:
                w = random_word(rng, n)
                if w.y_count() % 2:
                    gens.append(w)
            first = next(((i, j) for i in range(5) for j in range(i + 1, 5)
                          if commutes(gens[i], gens[j])), None)
            if first is None:
                continue
            with pytest.raises(ValueError, match=f"^generators {first[0]} and {first[1]} commute"):
                dress_with_combination(h, gens, 0.3, unit([1.0] * 5))

    def test_rejects_odd_y_hamiltonian(self):
        h = PauliSum.from_text("0.5 Y0\n1.0 Z0\n", 1)
        g = canonical_generator(1, 1)
        with pytest.raises(ValueError, match="parity"):
            build_h_matrix(h, [g], ReferenceState(1, 0))


class TestSolve:
    def test_two_level_closed_form(self):
        # eigenvalues of [[-1, b],[b, 1]] are -+ sqrt(1 + b^2)
        h = PauliSum.from_text("1.0 Z0\n0.3 X0\n", 1)
        ref = ReferenceState(1, 1)
        sol = solve_ilcap(h, [canonical_generator(1, 1)], ref)
        assert sol.energy == pytest.approx(-math.sqrt(1.09), abs=1e-12)
        assert sol.coefficients[0] >= 0.0
        assert np.sum(sol.coefficients**2) == pytest.approx(1.0, abs=1e-12)

    def test_energy_equals_parametrized_ansatz(self, rng):
        # the recovered (t, alpha) must reproduce the eigenvalue through
        # the actual unitary, not just the matrix algebra
        for _ in range(20):
            n = rng.randint(3, 5)
            h = random_even_sum(rng, n, 10)
            ref = ReferenceState(n, rng.randint(0, n))
            gens = random_generators(rng, n, rng.randint(1, 4))
            sol = solve_ilcap(h, gens, ref)
            hd = dress_with_combination(h, gens, sol.t, sol.alphas)
            assert ref.expectation(hd) == pytest.approx(sol.energy, abs=1e-9)

    def test_variational_bound(self, rng):
        for _ in range(25):
            n = rng.randint(3, 6)
            h = random_even_sum(rng, n, 10)
            ref = ReferenceState(n, rng.randint(0, n))
            gens = random_generators(rng, n, rng.randint(1, 5))
            sol = solve_ilcap(h, gens, ref)
            assert sol.energy >= oracle.ground_energy(h) - 1e-9
            assert sol.energy <= ref.expectation(h) + 1e-9

    def test_beats_single_generator_sequential(self, rng):
        # the combination contains each single rotation as a special case
        for _ in range(15):
            n = rng.randint(3, 5)
            h = random_even_sum(rng, n, 10)
            ref = ReferenceState(n, rng.randint(0, n))
            gens = random_generators(rng, n, 3)
            sol = solve_ilcap(h, gens, ref)
            for g in gens:
                single = solve_ilcap(h, [g], ref)
                assert sol.energy <= single.energy + 1e-10

    def test_no_generators(self, rng):
        h = random_even_sum(rng, 3, 6)
        ref = ReferenceState(3, 1)
        sol = solve_ilcap(h, [], ref)
        assert sol.energy == pytest.approx(ref.expectation(h))
        assert sol.t == pytest.approx(0.0)

    def test_alpha_norm(self, rng):
        for _ in range(10):
            n = 4
            h = random_even_sum(rng, n, 10)
            ref = ReferenceState(n, 2)
            gens = random_generators(rng, n, 3)
            sol = solve_ilcap(h, gens, ref)
            if sol.t > 1e-6:
                assert float(np.sum(sol.alphas**2)) == pytest.approx(1.0, abs=1e-10)


ALPHA_BITS = int("01" * 32, 2)  # even qubits hold the alpha spin orbitals


def _n_and_sz(bits):
    """(electron count, 2 S_z) of a determinant in the interleaved JW order."""
    n_alpha = bin(bits & ALPHA_BITS).count("1")
    n_beta = bin(bits & ~ALPHA_BITS).count("1")
    return n_alpha + n_beta, n_alpha - n_beta


class TestWeightFloor:
    @staticmethod
    def _chain(name):
        data = load_fcidump(str(DATA_DIR / name))
        h, ref = jw_hamiltonian(data), hf_reference(data)
        ranked = gradients(ising_decompose(h), ref)
        return h, ref, build_anticommuting_set(h.n, list(ranked.masks)).generators

    @pytest.mark.parametrize("name", ["h4_r2p0.fcidump", "h6_r1p805.fcidump"])
    def test_symmetry_forbidden_generators_get_zero(self, name):
        # a generator whose image of the reference has another N or S_z
        # reaches the ansatz states only through roundoff
        h, ref, gens = self._chain(name)
        sol = solve_ilcap(h, gens, ref)
        want = _n_and_sz(ref.occupied_mask)
        forbidden = [_n_and_sz(basis_image(g, ref.occupied_mask)[0]) != want for g in gens]
        assert 0 < sum(forbidden) < len(gens)
        for a, f in zip(sol.alphas.tolist(), forbidden):
            assert (a == 0.0) if f else (a != 0.0)
        assert float(np.sum(sol.alphas**2)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["h4_r2p0.fcidump", "h6_r1p805.fcidump"])
    def test_floor_does_not_depend_on_energy_scale(self, name):
        h, ref, gens = self._chain(name)
        zeros = np.flatnonzero(solve_ilcap(h, gens, ref).alphas == 0.0)
        small = np.flatnonzero(solve_ilcap(h * 1e-12, gens, ref).alphas == 0.0)
        assert zeros.size and zeros.tolist() == small.tolist()

    def test_small_real_weight_is_kept(self):
        # the second generator couples to the reference 1e-6 times as
        # strongly as the first, and the two images do not couple
        n = 4
        gens = build_anticommuting_set(n, [0b0101, 0b1010]).generators
        diag = "1.0 Z0\n0.7 Z1\n0.4 Z2\n0.2 Z3\n"
        h = PauliSum.from_text(diag + "0.3 X0 X2\n3e-7 X1 X3\n", n)
        sol = solve_ilcap(h, gens, ReferenceState(n, 2))
        small = sol.coefficients[2] / math.sin(sol.t / 2.0)
        assert 1e-7 < abs(small) < 1e-5
        assert sol.alphas[1] == small


class TestDressWithCombination:
    def test_matches_sequential_for_single_generator(self, rng):
        # with one generator the combination reduces to a plain rotation
        for _ in range(20):
            n = rng.randint(2, 5)
            h = random_even_sum(rng, n, 10)
            ref = ReferenceState(n, rng.randint(0, n))
            gens = random_generators(rng, n, 1)
            t = rng.uniform(-2.0, 2.0)
            hd = dress_with_combination(h, gens, t, [1.0])
            assert ref.expectation(hd) == pytest.approx(
                qcc_energy_and_gradient(h, gens, [t], ref)[0], abs=1e-10
            )

    def test_spectrum_preserved(self, rng):
        n = 4
        h = random_even_sum(rng, n, 10)
        gens = random_generators(rng, n, 3)
        alphas = np.array([0.6, -0.48, 0.64])
        alphas /= math.sqrt(float(np.sum(alphas**2)))
        hd = dress_with_combination(h, gens, 0.8, alphas)
        want = np.linalg.eigvalsh(oracle.to_dense(h))
        got = np.linalg.eigvalsh(oracle.to_dense(hd))
        assert np.allclose(want, got, atol=1e-9)

    def test_matches_dense_exponential(self, rng):
        from scipy.linalg import expm

        for _ in range(10):
            n = rng.randint(3, 5)
            h = random_even_sum(rng, n, 8)
            gens = random_generators(rng, n, 2)
            alphas = np.array([rng.uniform(-1, 1) for _ in gens])
            alphas /= math.sqrt(float(np.sum(alphas**2)))
            t = rng.uniform(-2, 2)
            tm = sum(
                a * oracle.to_dense(PauliSum(n, [(g, 1.0)]))
                for a, g in zip(alphas, gens)
            )
            u = expm(-0.5j * t * tm)
            want = u.conj().T @ oracle.to_dense(h) @ u
            hd = dress_with_combination(h, gens, t, alphas)
            assert np.allclose(oracle.to_dense(hd), want, atol=1e-9)

    def test_zero_angle_is_identity(self, rng):
        h = random_even_sum(rng, 3, 8)
        gens = random_generators(rng, 3, 2)
        assert dress_with_combination(h, gens, 0.0, [1.0, 0.0]) == h

    def test_generators_checked_before_the_identity_shortcut(self):
        # t = 0 or all-zero weights return h itself, but only for a valid set
        h = PauliSum(2, [(PauliWord(2, 1, 0), 0.5), (PauliWord(2, 0, 3), -0.25)])
        with pytest.raises(ValueError, match="qubit count"):
            dress_with_combination(h, [PauliWord(5, 1, 1)], 0.0, [1.0])
        with pytest.raises(ValueError, match="even Y"):
            dress_with_combination(h, [PauliWord(2, 3, 3)], 0.0, [1.0])
        with pytest.raises(ValueError, match="commute"):  # Y_0 and Y_1
            dress_with_combination(h, [PauliWord(2, 1, 1), PauliWord(2, 2, 2)], 0.7, [0.0, 0.0])
        # solve_ilcap's answer at t = 0 has zero weights, which pass the norm check
        assert dress_with_combination(h, [PauliWord(2, 1, 1)], 0.0, [0.0]) is h

    @pytest.mark.parametrize("n", [*range(2, 10), 33, 40])
    def test_one_generator_is_conjugate_by_word(self, rng, n):
        # T = s g with s = +-1 is the rotation exp(+i s t g/2) h exp(-i s t g/2),
        # to the bit: each word's own row c cos t (or c), then its
        # half-commutator row, as conjugate_by_word adds them
        for _ in range(25):
            g = random_word(rng, n)
            while g.y_count() % 2 == 0:
                g = random_word(rng, n)
            words = [random_word(rng, n) for _ in range(rng.randint(1, 3 * n))]
            words += [multiply(g, w)[0] for w in words[: len(words) // 2]]
            h = PauliSum(n, [(w, rng.uniform(-1.0, 1.0)) for w in words])
            s, t = rng.choice([1.0, -1.0]), rng.uniform(-3.0, 3.0)
            want = pauli.conjugate_by_word(h, g, s * t)
            assert_same_sum(dress_with_combination(h, [g], t, [s]), want)

    def test_commuting_words_keep_their_coefficients(self, rng):
        # a word that commutes with every active generator has A = 0.0, so
        # its own row is c (1.0 + 0.0 cos t) = c, and no other row reaches
        # it when every word of h commutes with them; an inactive generator
        # may anti-commute with it
        checked = 0
        while checked < 30:
            n = rng.randint(3, 9)
            gens = random_generators(rng, n, rng.randint(2, n + 1))
            if len(gens) < 2:
                continue
            weights = [rng.uniform(-1.0, 1.0) for _ in gens]
            weights[rng.randrange(len(gens))] = 0.0
            alphas = unit(weights)
            active = [g for g, a in zip(gens, alphas) if a]
            words = [w for w in (random_word(rng, n) for _ in range(60))
                     if all(commutes(w, g) for g in active)]
            if not words:
                continue
            h = PauliSum(n, [(w, rng.uniform(-1.0, 1.0)) for w in words])
            assert_same_sum(dress_with_combination(h, gens, rng.uniform(-3.0, 3.0), alphas), h)
            checked += 1

    def test_norm_validation(self, rng):
        h = random_even_sum(rng, 3, 8)
        gens = random_generators(rng, 3, 2)
        with pytest.raises(ValueError, match="norm"):
            dress_with_combination(h, gens, 0.5, [1.0, 1.0])
        with pytest.raises(ValueError):
            dress_with_combination(h, gens, 0.5, [1.0])

    def test_matches_reference_on_random_weights(self, rng):
        checked = 0
        for n in range(1, 11):
            for _ in range(10):
                h = random_even_sum(rng, n, rng.randint(1, 4 * n + 4))
                gens = random_generators(rng, n, rng.randint(1, n + 2))
                alphas = np.array([rng.uniform(-1.0, 1.0) for _ in gens])
                if len(gens) > 1 and rng.random() < 0.5:
                    alphas[rng.randrange(len(gens))] = 0.0
                alphas /= math.sqrt(float(np.sum(alphas**2)))
                t = rng.uniform(-3.0, 3.0)
                cut = rng.choice([0.0, 0.0, 1e-3, 0.1])
                got = dress_with_combination(h, gens, t, alphas).truncate(cut)
                assert_same_sum(got, _dress_reference(h, gens, t, alphas, truncation_threshold=cut))
                checked += 1
        assert checked == 100

    def test_matches_reference_on_solved_weights(self, rng):
        # the ILCAP solution, as the pipeline dresses with it: weights
        # that should vanish come out as exact zeros
        for n in range(2, 11):
            for _ in range(4):
                h = random_even_sum(rng, n, 3 * n)
                ref = ReferenceState(n, rng.randint(0, n))
                gens = random_generators(rng, n, rng.randint(1, n + 1))
                sol = solve_ilcap(h, gens, ref)
                got = dress_with_combination(h, gens, sol.t, sol.alphas)
                assert_same_sum(got, _dress_reference(h, gens, sol.t, sol.alphas))

    def test_matches_reference_on_edge_weights(self, rng):
        n = 5
        h = random_even_sum(rng, n, 14)
        gens = random_generators(rng, n, 3)
        assert len(gens) == 3
        cases = [
            ([gens[0]], -1.3, [1.0]),  # one generator, negative angle
            (gens, -0.4, [0.0, -1.0, 0.0]),  # exact-zero weights
            (gens, 2.5, [0.6, 0.0, -0.8]),
            (gens, 0.0, [0.6, 0.0, -0.8]),
        ]
        for generators, t, alphas in cases:
            for cut in (0.0, 0.05):
                got = dress_with_combination(h, generators, t, alphas).truncate(cut)
                want = _dress_reference(h, generators, t, alphas, truncation_threshold=cut)
                assert_same_sum(got, want)

    @pytest.mark.parametrize("n", [33, 40])
    def test_matches_reference_above_32_qubits(self, rng, n):
        # masks wider than 32 bits do not fit a packed key, so the
        # dressing's words group through the two-key lexsort
        masks = [rng.getrandbits(n) | 1 << (n - 1) for _ in range(8)]
        gens = list(build_anticommuting_set(n, masks, max_generators=4).generators)
        assert len(gens) >= 2
        h = pair_linked_sum(rng, n, gens) + random_even_sum(rng, n, 8)
        for _ in range(3):
            alphas = unit([rng.uniform(-1.0, 1.0) for _ in gens])
            t = rng.uniform(-3.0, 3.0)
            got = dress_with_combination(h, gens, t, alphas)
            assert int((got.x | got.z).max()).bit_length() > 32
            assert_same_sum(got, _dress_reference(h, gens, t, alphas))

    def test_register_width_cap(self, rng):
        # 64 qubits fill the uint64 masks; one more is refused
        masks = [rng.getrandbits(64) | 1 << 63 for _ in range(8)]
        gens = list(build_anticommuting_set(64, masks, max_generators=3).generators)
        assert len(gens) >= 2
        h = random_even_sum(rng, 64, 12) + PauliSum(64, [(PauliWord(64, (1 << 64) - 1, 1 << 63), 0.7)])
        alphas = np.array([rng.uniform(-1.0, 1.0) for _ in gens])
        alphas /= math.sqrt(float(np.sum(alphas**2)))
        got = dress_with_combination(h, gens, 0.9, alphas)
        assert_same_sum(got, _dress_reference(h, gens, 0.9, alphas))

        with pytest.raises(ValueError, match="64 qubits"):
            wide = PauliSum(65, [(PauliWord(65, 1 << 64, 0), 1.0)])
            dress_with_combination(wide, [PauliWord(65, 1, 1)], 0.5, [1.0])

    def test_non_finite_inputs_rejected(self, rng):
        h = random_even_sum(rng, 3, 8)
        gens = random_generators(rng, 3, 2)
        with pytest.raises(ValueError, match="nan"):
            dress_with_combination(h, gens[:1], 0.5, [math.nan])
        with pytest.raises(ValueError, match="inf"):
            dress_with_combination(h, gens, 0.5, [math.inf, 0.0])
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=repr(t)):
                dress_with_combination(h, gens[:1], t, [1.0])


# 1 next to 1e-17 makes every sum depend on the order of its terms
MIXED_VALUES = [1.0, -1.0, 0.5, 1e-17, -1e-17, 3e-17]


def _shifted(word, *gens):
    """The word whose mask is word's XOR every generator's."""
    x, z = word.x, word.z
    for g in gens:
        x, z = x ^ g.x, z ^ g.z
    return PauliWord(word.n, x, z)


def pair_linked_sum(rng, n, gens):
    """h holding words w and w ^ g_k ^ g_j for several pairs (k, j).

    T_k (w ^ g_k ^ g_j) T_j lands on w, next to w's own row, so w
    collects rows from several pair blocks.
    """
    terms = []
    for _ in range(rng.randint(2, 6)):
        w = random_word(rng, n)
        terms.append((w, rng.choice(MIXED_VALUES)))
        for _ in range(rng.randint(1, 4)):
            k, j = rng.sample(range(len(gens)), 2)
            terms.append((_shifted(w, gens[k], gens[j]), rng.choice(MIXED_VALUES)))
    return PauliSum(n, terms)


def unit(weights):
    alphas = np.array(weights, dtype=float)
    return alphas / math.sqrt(float(np.sum(alphas**2)))


class TestDressAdditionOrder:
    """The paired dressing adds every word's rows in the reference's order."""

    def _generators(self, rng, n, low, high):
        while True:
            gens = random_generators(rng, n, rng.randint(low, high))
            if len(gens) >= low:
                return gens

    def test_words_shared_across_pair_blocks(self, rng):
        for _ in range(40):
            n = rng.randint(4, 9)
            gens = self._generators(rng, n, 2, 5)
            h = pair_linked_sum(rng, n, gens)
            if rng.random() < 0.5:
                alphas = unit([rng.uniform(-1.0, 1.0) for _ in gens])
            else:  # equal weights, so pair contributions cancel exactly
                alphas = unit([rng.choice([1.0, -1.0]) for _ in gens])
            t = rng.uniform(-3.0, 3.0)
            assert_same_sum(
                dress_with_combination(h, gens, t, alphas), _dress_reference(h, gens, t, alphas)
            )

    def test_roundoff_weights(self, rng):
        # weights at roundoff, 1e-68 or 1e-18, as eigh leaves them on the
        # H8 workload before solve_ilcap's floor; a caller may pass them
        for _ in range(20):
            n = rng.randint(4, 9)
            gens = self._generators(rng, n, 3, 6)
            h = pair_linked_sum(rng, n, gens) + random_even_sum(rng, n, 3)
            alphas = np.array([rng.choice([1e-68, -1e-68, 1e-18, -1e-18]) for _ in gens])
            big = rng.sample(range(len(gens)), 2)
            alphas[big] = [0.6, -0.8]
            t = rng.uniform(-3.0, 3.0)
            assert_same_sum(
                dress_with_combination(h, gens, t, alphas), _dress_reference(h, gens, t, alphas)
            )

    def test_tht_part_cancels_exactly(self, rng):
        # w commutes with g0 and anti-commutes with g1: T_0 w T_0 = w and
        # T_1 w T_1 = -w, so with equal weights the k = j half of T h T on
        # w cancels.  That half is never formed: w's own row is
        # c ((1 - A) + A cos t), with A summed over g1 alone
        n = 4
        gens = self._generators(rng, n, 2, 2)
        g0, g1 = gens[:2]
        w = next(
            cand for cand in (PauliWord(n, x, z) for x in range(16) for z in range(16))
            if commutes(cand, g0) and not commutes(cand, g1)
        )
        h = PauliSum(n, [(w, 0.7)])
        t = 1.1
        for alphas in ([math.sqrt(0.5), math.sqrt(0.5)], [0.6, -0.8], [0.8, 0.6]):
            got = dress_with_combination(h, [g0, g1], t, alphas)
            assert_same_sum(got, _dress_reference(h, [g0, g1], t, alphas))
            anti = alphas[1] * alphas[1]
            assert got.coefficient(w).hex() == (0.7 * ((1.0 - anti) + anti * math.cos(t))).hex()

    def test_linear_part_cancels_exactly(self, rng):
        # v = g u: v's own row c_v cos t and u's half-commutator row land
        # on v and cancel to 0.0, so v drops out, as conjugate_by_word
        # drops it
        n, t = 4, 0.9
        g = self._generators(rng, n, 1, 1)[0]
        u = next(
            cand for cand in (PauliWord(n, x, z) for x in range(1, 16) for z in range(16))
            if not commutes(cand, g)
        )
        v, _ = multiply(g, u)
        sign = half_commutator(g, PauliSum(n, [(u, 1.0)])).coefficient(v)
        st = math.sin(t)
        c_v = 0.3
        target = -c_v * math.cos(t)
        q = target / st
        while st * q != target:  # a neighbour of the quotient hits it
            q = np.nextafter(q, math.inf if st * q < target else -math.inf)
        h = PauliSum(n, [(v, c_v), (u, sign * float(q))])
        got = dress_with_combination(h, [g], t, [1.0])
        assert_same_sum(got, _dress_reference(h, [g], t, [1.0]))
        assert_same_sum(got, pauli.conjugate_by_word(h, g, t))
        assert v not in got

    def test_groups_only_even_phase_pair_rows(self, rng, monkeypatch):
        # an odd-phase T_k w T_j (k < j) is imaginary and cancels its
        # (j, k) mirror, so one grouping sees h's rows, the half-commutator
        # parts and the even-phase k < j rows, and nothing else
        group_masks, calls = ilcap._group_masks, []

        def counting(x, z):
            calls.append(len(x))
            return group_masks(x, z)

        monkeypatch.setattr(ilcap, "_group_masks", counting)
        checked = 0
        while checked < 10:
            n = rng.randint(4, 8)
            gens = self._generators(rng, n, 3, 5)
            h = random_even_sum(rng, n, rng.randint(4, 20))
            parities = []
            for k, gk in enumerate(gens):
                for gj in gens[k + 1 :]:
                    for w in h.words():
                        v1, k1 = multiply(gk, w)
                        parities.append((k1 + multiply(v1, gj)[1]) % 2)
            if len(set(parities)) < 2:
                continue
            alphas = unit([rng.choice([1.0, -1.0]) * rng.uniform(0.1, 1.0) for _ in gens])
            t = rng.uniform(-3.0, 3.0)
            calls.clear()
            got = dress_with_combination(h, gens, t, alphas)
            linear = len(h) + sum(len(half_commutator(g, h)) for g in gens)
            assert calls == [linear + parities.count(0)]
            assert_same_sum(got, _dress_reference(h, gens, t, alphas))
            checked += 1

    def test_single_generator(self, rng):
        for _ in range(20):
            n = rng.randint(2, 9)
            gens = self._generators(rng, n, 1, 3)
            h = pair_linked_sum(rng, n, gens) if len(gens) > 1 else random_even_sum(rng, n, 12)
            alphas = np.zeros(len(gens))
            alphas[rng.randrange(len(gens))] = rng.choice([1.0, -1.0])
            t = rng.uniform(-3.0, 3.0)
            assert_same_sum(
                dress_with_combination(h, gens, t, alphas), _dress_reference(h, gens, t, alphas)
            )

    def test_real_phase_rule(self, rng):
        # the rule the dressing picks its k < j rows by: the phase of
        # T_k w T_j is even exactly when w anti-commutes with one of them
        seen = set()
        for _ in range(400):
            n = rng.randint(2, 9)
            gk, gj = rng.sample(self._generators(rng, n, 2, 4), 2)
            assert not commutes(gk, gj) and gk.y_count() % 2 == gj.y_count() % 2 == 1
            w = random_word(rng, n)
            v, k1 = multiply(gk, w)
            even = (k1 + multiply(v, gj)[1]) % 2 == 0
            assert even == (commutes(gk, w) != commutes(gj, w))
            seen.add(even)
        assert seen == {True, False}

    def test_pair_block_without_real_rows(self, rng):
        # every word of h commutes with both of T_0 and T_1 or with
        # neither, so their block forms no rows, while another block does
        checked = 0
        while checked < 10:
            n = rng.randint(4, 8)
            gens = self._generators(rng, n, 3, 5)
            words = [w for w in (random_word(rng, n) for _ in range(60))
                     if commutes(w, gens[0]) == commutes(w, gens[1])]
            if not any(commutes(w, gens[0]) != commutes(w, gens[2]) for w in words):
                continue
            h = PauliSum(n, [(w, rng.choice(MIXED_VALUES)) for w in words])
            alphas = unit([rng.choice([1.0, -1.0]) * rng.uniform(0.1, 1.0) for _ in gens])
            t = rng.uniform(-3.0, 3.0)
            assert_same_sum(
                dress_with_combination(h, gens, t, alphas), _dress_reference(h, gens, t, alphas)
            )
            # and with T_0 the one active generator
            one = np.zeros(len(gens))
            one[0] = -1.0
            assert_same_sum(
                dress_with_combination(h, gens, t, one), _dress_reference(h, gens, t, one)
            )
            checked += 1


def sector_sum(rng, n, n_sectors, n_diag, *, even_y=True):
    """A few terms in each of several X sectors, one on the top qubit, plus a diagonal."""
    masks = {(1 << (n - 1)) | rng.getrandbits(n - 1)}
    masks |= {rng.randrange(1, 1 << n) for _ in range(n_sectors - 1)}
    terms = [(PauliWord(n, 0, rng.getrandbits(n)), rng.uniform(-1.0, 1.0)) for _ in range(n_diag)]
    for x in sorted(masks):
        for _ in range(rng.randint(1, 6)):
            z = rng.getrandbits(n)
            if even_y and (x & z).bit_count() % 2:
                z ^= x & -x  # the lowest X/Y factor swaps, so the Y count turns even
            terms.append((PauliWord(n, x, z), rng.uniform(-1.0, 1.0)))
    return PauliSum(n, terms)


def outcome(correct, *args):
    """A correction's result with every float by ``.hex()``, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = correct(*args)
    messages = [str(w.message) for w in caught]
    if isinstance(res, ilcap.BwResult):
        assert type(res.energy) is float and type(res.uncorrected_energy) is float
        return (res.energy.hex(), res.uncorrected_energy.hex(), res.converged,
                res.iterations, res.skipped_sectors, messages)
    values = [res.energy, res.reference_energy, *res.contributions.values()]
    assert all(type(v) is float for v in values)
    assert all(type(m) is int for m in res.contributions)
    return (
        res.energy.hex(),
        res.reference_energy.hex(),
        [(m, v.hex()) for m, v in res.contributions.items()],
        res.skipped_sectors,
        messages,
    )


class TestBw:
    def test_denominators_match_per_mask_values(self, rng, monkeypatch):
        # 64 qubits, an excluded mask on bit 63, and one zero-coupling
        # column at a flip the diagonal cannot see, whose denominator
        # equals the uncorrected energy: skipped with its warning
        n, ref = 64, ReferenceState(64, 5)
        hidden = sum(1 << j for j in range(40, 52))  # no diagonal Z on these bits
        diag = [(PauliWord(n, 0, 1 << j), 1.0 if j < 5 else -1.0)
                for j in range(n) if not hidden >> j & 1]
        diag += [(PauliWord(n, 0, rng.getrandbits(n) & ~hidden), rng.uniform(-0.05, 0.05))
                 for _ in range(20)]
        # generators on qubits 50 and 51, uncoupled to the reference and
        # about 10 above it, so lambda_min of the ansatz matrix is <0|h|0>
        diag.append((PauliWord(n, 0, 1 << 50), -5.0))
        gens = [PauliWord(n, 1 << 50, 1 << 50), PauliWord(n, 3 << 50, 1 << 51)]
        h = PauliSum(n, diag) + 0.1 * sector_sum(rng, n, 12, 0)
        used = {g.x for g in gens}
        excluded = [m for m in ising_decompose(h).sectors if m not in used]
        assert any(m >> 63 for m in excluded)
        singular = 1 << 45
        excluded.append(singular)

        states = np.uint64(ref.occupied_mask) ^ np.array(sorted(excluded), dtype=np.uint64)
        got = ilcap._diagonal_at(h, states)
        want = reference_diagonal_at(h, states)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]

        res = outcome(bw_correct, h, gens, excluded, ref)
        monkeypatch.setattr(ilcap, "_diagonal_at", reference_diagonal_at)
        assert res == outcome(bw_correct, h, gens, excluded, ref)
        assert res[2] and res[4] == (singular,)
        assert res[5] == [
            f"sector {singular:#x} skipped: denominator within 1e-08 of the current energy"
        ]

    def test_state_blocks_keep_every_bit(self, monkeypatch):
        # one bra per _signed_sums block: each (state, key) bin still gets
        # only its own state's terms, in the same order
        data = load_fcidump(str(DATA_DIR / "h4_r2p0.fcidump"))
        h, ref = jw_hamiltonian(data), hf_reference(data)
        dec = ising_decompose(h)
        gens = build_anticommuting_set(h.n, gradients(dec, ref).masks).generators
        excluded = [m for m in dec.sectors if m not in {g.x for g in gens}]
        states = np.array([[ref.occupied_mask ^ m for m in dec.sectors[:3]], [0, 1, 2]], np.uint64)

        def both():
            at = dec.at(states)
            return [v.hex() for v in at.view(float).ravel().tolist()], outcome(
                bw_correct, h, gens, excluded, ref)

        want = both()
        monkeypatch.setattr(pauli, "_SIGNED_CELLS", 1)
        assert both() == want
        assert len(gens) >= 2 and want[1][2]

    def test_no_excluded_sectors_is_plain_eigenvalue(self, rng):
        n = 4
        h = random_even_sum(rng, n, 10)
        ref = ReferenceState(n, 2)
        gens = random_generators(rng, n, 2)
        res = bw_correct(h, gens, [], ref)
        want = float(np.linalg.eigh(build_h_matrix(h, gens, ref))[0][0])
        assert res.energy == pytest.approx(want, abs=1e-12)
        assert res.converged

    def test_scalar_case_solves_secular_equation(self, rng):
        # no generators, one excluded sector: E = h00 + w^2/(E - d) has
        # the downfolded 2x2 lower root as its solution
        from qubitcc.screen import gradients, ising_decompose

        found = 0
        for _ in range(200):
            if found >= 50:
                break
            n = rng.randint(2, 5)
            ref = ReferenceState(n, rng.randint(0, n))
            h = gapped_sum(rng, n, ref)
            dec = ising_decompose(h)
            ranked = gradients(dec, ref, drop_zero=True)
            if len(ranked) == 0:
                continue
            m = ranked.masks[0]
            e00 = ref.expectation(h)
            w = reference_sector_value(h, m, ref.occupied_mask).real  # even part couples
            dm = reference_sector_value(h, 0, ref.occupied_mask ^ m).real
            if dm <= e00 + 1e-3:
                # the fixed point tracks the root adjacent to the
                # reference; only a positive gap selects the lower one
                continue
            disc = 0.25 * (e00 - dm) ** 2 + w * w
            lower = 0.5 * (e00 + dm) - math.sqrt(disc)
            try:
                res = bw_correct(h, [], [m], ref)
            except RuntimeError:
                continue
            if not res.converged or res.skipped_sectors:
                continue
            found += 1
            assert res.energy == pytest.approx(lower, abs=1e-10)
        assert found >= 50

    def test_corrections_lower_energy_for_positive_gaps(self, rng):
        from qubitcc.screen import gradients, ising_decompose

        found = 0
        for _ in range(400):
            if found >= 30:
                break
            n = rng.randint(3, 5)
            ref = ReferenceState(n, rng.randint(0, n))
            h = gapped_sum(rng, n, ref)
            dec = ising_decompose(h)
            ranked = gradients(dec, ref, drop_zero=True)
            if len(ranked) < 2:
                continue
            e0 = ref.expectation(h)
            if any(
                reference_sector_value(h, 0, ref.occupied_mask ^ m).real <= e0 + 1e-6
                for m in dec.sectors
            ):
                continue
            gens = [canonical_generator(n, ranked.masks[0])]
            excluded = [m for m in dec.sectors if m != ranked.masks[0]]
            try:
                res = bw_correct(h, gens, excluded, ref)
            except RuntimeError:
                continue
            if not res.converged:
                continue
            found += 1
            assert res.energy <= res.uncorrected_energy + 1e-12
            assert res.uncorrected_energy <= e0 + 1e-12
        assert found >= 30

    def test_iteration_cap_leaves_result_unconverged(self, rng, monkeypatch):
        # a case whose fixed point needs several steps, stopped after one
        for _ in range(200):
            n = rng.randint(3, 5)
            ref = ReferenceState(n, rng.randint(0, n))
            h = gapped_sum(rng, n, ref)
            dec = ising_decompose(h)
            ranked = gradients(dec, ref, drop_zero=True)
            if len(ranked) < 2:
                continue
            gens = [canonical_generator(n, ranked.masks[0])]
            excluded = [m for m in dec.sectors if m != ranked.masks[0]]
            full = bw_correct(h, gens, excluded, ref)
            if full.converged and full.iterations > 2:
                break
        else:
            pytest.fail("no case needing more than two BW steps")
        monkeypatch.setattr(ilcap, "_BW_MAX_ITERATIONS", 1)
        capped = bw_correct(h, gens, excluded, ref)
        assert capped.converged is False and capped.iterations == 1
        assert capped.uncorrected_energy == full.uncorrected_energy
        assert capped.energy != full.energy

    @pytest.mark.parametrize("source", ["h4_r2p0.fcidump", "h6_r1p805.fcidump", "random"])
    def test_returns_the_ansatz_solution(self, rng, source):
        # the solution that starts BW is solve_ilcap's on the same generators, bit for bit
        cases = []
        if source == "random":
            for _ in range(20):
                n = rng.randint(3, 6)
                cases.append((random_even_sum(rng, n, 30), ReferenceState(n, rng.randint(0, n))))
        else:
            data = load_fcidump(str(DATA_DIR / source))
            cases.append((jw_hamiltonian(data), hf_reference(data)))
        for h, ref in cases:
            dec = ising_decompose(h)
            gens = build_anticommuting_set(h.n, gradients(dec, ref).masks).generators
            excluded = [m for m in dec.sectors if m not in {g.x for g in gens}]
            bw, sol = ilcap._bw_correct(dec, gens, excluded, ref)
            want = solve_ilcap(h, gens, ref)
            assert type(sol.energy) is float and type(sol.t) is float
            assert [sol.energy.hex(), sol.t.hex()] == [want.energy.hex(), want.t.hex()]
            for got, exp in [(sol.coefficients, want.coefficients), (sol.alphas, want.alphas),
                             (sol.matrix, want.matrix)]:
                assert got.dtype == exp.dtype and got.shape == exp.shape
                assert got.tobytes() == exp.tobytes()
            assert bw.uncorrected_energy.hex() == sol.energy.hex()
            assert bw == bw_correct(h, gens, excluded, ref)

    def test_excluded_mask_validation(self, rng):
        h = random_even_sum(rng, 3, 8)
        ref = ReferenceState(3, 1)
        gens = random_generators(rng, 3, 1)
        with pytest.raises(ValueError):
            bw_correct(h, gens, [0], ref)
        with pytest.raises(ValueError):
            bw_correct(h, gens, [1 << 3], ref)
        with pytest.raises(ValueError):
            bw_correct(h, gens, [gens[0].x], ref)

    def test_singular_sector_skipped_with_warning(self):
        # degenerate diagonal: the excluded sector's denominator is zero
        h = PauliSum.from_text("0.2 X0\n1.0 Z1\n", 2)
        ref = ReferenceState(2, 0)
        with pytest.warns(UserWarning, match="skipped"):
            res = bw_correct(h, [], [0b01], ref)
        assert res.skipped_sectors == (0b01,)
        assert res.energy == pytest.approx(res.uncorrected_energy)


class TestWithoutDiagonal:
    """A sum with no diagonal (x = 0) run, and the empty sum.

    The hop 0.3 X0 X1 + 0.2 Y0 Y1 couples |01> and |10> by 0.5 and has
    no diagonal: the reference energy is 0.0 and the one-electron
    ground energy -0.5.
    """

    @pytest.mark.parametrize("text, sectors, weights", [
        ("0.3 X0 X1\n0.2 Y0 Y1\n", (0b11,), (0.5,)),
        ("", (), ()),
    ])
    def test_estimators_match_oracle(self, text, sectors, weights):
        h = PauliSum.from_text(text, 2)
        ref = ReferenceState(2, 1)
        e_ref = float(oracle.expectation(h, oracle.reference_vector(ref)))
        exact = oracle.ground_energy(h, n_elec=1)
        assert e_ref == 0.0 and exact == pytest.approx(-sum(weights), abs=1e-12)
        dec = ising_decompose(h)
        assert dec.sectors == sectors
        ranked = gradients(dec, ref)
        assert ranked.masks == sectors and ranked.weights == weights

        gens = [canonical_generator(2, 0b11)]
        assert build_h_matrix(h, [], ref).tolist() == [[0.0]]
        mat = build_h_matrix(h, gens, ref)
        assert mat.tolist() == [[0.0, -sum(weights)], [-sum(weights), 0.0]]
        assert solve_ilcap(h, gens, ref).energy == pytest.approx(exact, abs=1e-12)
        bw = bw_correct(h, gens, [], ref)
        assert bw.converged and bw.energy == pytest.approx(exact, abs=1e-12)
        assert optimize_amplitudes(h, gens, ref).energy == pytest.approx(exact, abs=1e-12)

        # the diagonal gap of the hop is 0.0 - 0.0, so EN skips it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            en = en_correct(h, ref)
        assert en.reference_energy == en.energy == e_ref
        assert en.contributions == {} and en.skipped_sectors == sectors
        assert len(caught) == len(sectors)


class TestEn:
    def test_two_level_upper_reference(self):
        # reference sits on the upper state: E = 1 + 0.09 / (1 - (-1))
        h = PauliSum.from_text("1.0 Z0\n0.3 X0\n", 1)
        ref = ReferenceState(1, 0)
        res = en_correct(h, ref)
        assert res.reference_energy == pytest.approx(1.0)
        assert res.energy == pytest.approx(1.045, abs=1e-12)

    def test_matches_manual_sum(self, rng):
        from qubitcc.screen import ising_decompose

        for _ in range(30):
            n = rng.randint(2, 5)
            h = random_even_sum(rng, n, 10)
            ref = ReferenceState(n, rng.randint(0, n))
            dec = ising_decompose(h)
            values = dec.at(ref.occupied_mask)
            e0 = values[0].real
            want = e0
            skip = False
            for m, value in zip(dec.sectors, values[1:]):
                gap = e0 - reference_sector_value(h, 0, ref.occupied_mask ^ m).real
                if abs(gap) < 1e-8:
                    skip = True
                    break
                want += abs(value) ** 2 / gap
            if skip:
                continue
            res = en_correct(h, ref)
            assert res.energy == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 7, 63, 64])
    def test_matches_reference_on_random_sums(self, rng, n):
        top = 0
        for trial in range(12):
            h = sector_sum(rng, n, rng.randint(1, 12), rng.randint(0, 8), even_y=trial % 4 != 3)
            if trial % 4 == 2:
                h = h + random_even_sum(rng, n, 10)
            ref = ReferenceState(n, rng.randint(0, n))
            res = outcome(en_correct, h, ref)
            assert res == outcome(reference_en_correct, h, ref)
            top += sum(m >> (n - 1) for m, _ in res[2]) + sum(m >> (n - 1) for m in res[3])
        assert top > 0

    def test_odd_y_sums_match_reference(self, rng):
        for _ in range(20):
            n = rng.randint(1, 6)
            h = random_sum(rng, n, 15)
            ref = ReferenceState(n, rng.randint(0, n))
            assert outcome(en_correct, h, ref) == outcome(reference_en_correct, h, ref)

    @pytest.mark.parametrize("n", [4, 64])
    def test_degenerate_gap_matches_reference(self, n):
        # X0 and the top X flip bits no diagonal term reads: both gaps are exactly 0
        top = n - 1
        h = PauliSum.from_text(
            f"0.2 X0\n-0.7 X0 Z{top}\n1.0 Z1\n0.4 Z1 Z2\n0.3 X1\n0.6 X2 Z{top}\n0.5 X{top}\n", n
        )
        ref = ReferenceState(n, 2)
        res = outcome(en_correct, h, ref)
        assert res == outcome(reference_en_correct, h, ref)
        assert res[3] == (0b1, 1 << top)
        assert res[4] == [
            "sector 0x1 skipped: degenerate diagonal gap 0.000e+00",
            f"sector {1 << top:#x} skipped: degenerate diagonal gap 0.000e+00",
        ]

    def test_edge_sums_match_reference(self, rng):
        no_diagonal = sector_sum(rng, 9, 6, 0)
        diagonal_only = PauliSum.from_text("0.3 I\n-1.0 Z0\n0.25 Z1 Z4\n", 5)
        empty = PauliSum(5)
        for h, e0 in ((no_diagonal, "0x0.0p+0"), (diagonal_only, (0.3 + 1.0 + 0.25).hex()),
                      (empty, "0x0.0p+0")):
            ref = ReferenceState(h.n, 1)
            res = outcome(en_correct, h, ref)
            assert res == outcome(reference_en_correct, h, ref)
            assert res[1] == e0
            if h is not no_diagonal:
                assert res[0] == res[1] and res[2] == [] and res[3] == ()

    def test_cancelling_and_signed_zero_coefficients(self):
        # the Z2 pair cancels and the -0.0 term drops out; the X1 pair
        # cancels at the reference, and a negative gap leaves -0.0
        words = [(0, 0b100), (0, 1), (0, 0b100), (1, 1), (0, 0b010), (0b010, 0), (0b010, 0b100),
                 (0b101, 0)]
        coeffs = [0.75, 1.0, -0.75, -0.0, -0.5, 0.4, -0.4, 0.2]
        h = PauliSum.from_masks(3, *zip(*words), coeffs)
        assert len(h) == 5
        ref = ReferenceState(3, 1)
        res = outcome(en_correct, h, ref)
        assert res == outcome(reference_en_correct, h, ref)
        assert res[1] == (-1.5).hex()
        assert dict(res[2])[0b010] == "-0x0.0p+0"

    @pytest.mark.parametrize("name", ["h4_r2p0", "h6_r1p805"])
    def test_walsh_denominators_match_the_fold(self, monkeypatch, name):
        # ilcap-pre's EN takes the transform on these fixtures, its BW the fold
        data = load_fcidump(str(DATA_DIR / f"{name}.fcidump"))
        h, ref = jw_hamiltonian(data), hf_reference(data)
        calls = walsh_calls(monkeypatch)
        cfg = RunConfig(scheme="ilcap-pre")
        got = [run_scheme(h, ref, cfg)["E_ILCAP+EN"] for _ in range(2)]
        assert calls == [2**h.n] * 2 and got[0].hex() == got[1].hex()
        monkeypatch.setattr(pauli, "_WALSH_QUBIT_CAP", 0)
        assert abs(run_scheme(h, ref, cfg)["E_ILCAP+EN"] - got[0]) <= 1e-12
        assert len(calls) == 2

    def test_zero_weight_degenerate_sector_is_silent(self):
        # X1's two terms cancel at the reference, and no diagonal word reads bit 1
        h = PauliSum.from_text("1.0 Z0\n0.2 X1\n-0.2 Z0 X1\n", 2)
        ref = ReferenceState(2, 0)
        res = outcome(en_correct, h, ref)
        assert res == outcome(reference_en_correct, h, ref)
        assert res[2] == [] and res[3] == () and res[4] == []

    def test_degenerate_sector_skipped(self):
        h = PauliSum.from_text("0.2 X0\n1.0 Z1\n", 2)
        ref = ReferenceState(2, 0)
        with pytest.warns(UserWarning) as caught:
            res = en_correct(h, ref)
        assert caught[0].filename == __file__  # the warning names the caller
        assert res.skipped_sectors == (0b01,)
        assert res.energy == pytest.approx(res.reference_energy)

    def test_second_order_limit(self, rng):
        # weak coupling: EN and the exact ground energy agree to O(c^4)
        h0 = PauliSum.from_text("-1.0 Z0\n-0.7 Z1\n", 2)
        coupling = PauliSum.from_text("1.0 X0\n1.0 X0 X1\n", 2)
        ref = ReferenceState(2, 0)
        for c in (1e-2, 1e-3):
            h = h0 + coupling * c
            res = en_correct(h, ref)
            exact = oracle.ground_energy(h)
            assert abs(res.energy - exact) < 50 * c**4 + 1e-12


class TestEnFromState:
    """ilcap-pre's EN from the state U|0> against EN on the dressed sum."""

    def test_matches_dressed_route_on_random_sums(self, rng):
        checked = 0
        for n in range(2, 10):
            for _ in range(26):
                h = random_even_sum(rng, n, rng.randint(1, 5 * n))
                ref = ReferenceState(n, rng.randint(0, n))
                gens = random_generators(rng, n, rng.randint(1, n + 1))
                alphas = np.array([rng.uniform(-1.0, 1.0) for _ in gens])
                alphas[[rng.random() < 0.3 for _ in gens]] = 0.0
                alphas[rng.randrange(len(gens))] = rng.choice([-1.0, 1.0])
                alphas /= math.sqrt(float(np.sum(alphas**2)))
                t = rng.uniform(-3.0, 3.0)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    want = en_correct(dress_with_combination(h, gens, t, alphas), ref)
                    got = ilcap._en_from_state(ising_decompose(h), gens, t, alphas, ref)
                assert got.reference_energy == want.reference_energy
                assert abs(got.energy - want.energy) <= 1e-12 * max(1.0, abs(want.energy))
                assert got.skipped_sectors == want.skipped_sectors
                checked += 1
        assert checked == 208

    def test_identity_rotations_are_en_correct(self, rng):
        # t = 0, all-zero weights and no generators leave h: en_correct's
        # result and warnings, bit for bit
        degenerate = PauliSum.from_text(
            "0.2 X0\n-0.7 X0 Z3\n1.0 Z1\n0.4 Z1 Z2\n0.3 X1\n0.6 X2 Z3\n0.5 X3\n", 4
        )
        cases = [(degenerate, ReferenceState(4, 2))]
        cases += [(random_even_sum(rng, n, 4 * n), ReferenceState(n, rng.randint(0, n)))
                  for n in range(2, 9)]
        for h, ref in cases:
            gens = random_generators(rng, h.n, 3)
            alphas = unit([rng.uniform(-1.0, 1.0) for _ in gens])
            want = outcome(en_correct, h, ref)
            dec = ising_decompose(h)
            for args in ((gens, 0.0, alphas), (gens, 0.7, np.zeros(len(gens))),
                         ((), 0.7, np.zeros(0))):
                assert outcome(ilcap._en_from_state, dec, *args, ref) == want
        assert len(outcome(en_correct, *cases[0])[4]) == 2

    @pytest.mark.parametrize("path", sorted(DATA_DIR.glob("*.fcidump")), ids=lambda p: p.stem)
    def test_run_scheme_matches_dressed_route_on_fixtures(self, path):
        data = load_fcidump(str(path))
        h, ref = jw_hamiltonian(data), hf_reference(data)
        gens = build_anticommuting_set(h.n, gradients(ising_decompose(h), ref).masks).generators
        sol = solve_ilcap(h, gens, ref)
        want = en_correct(dress_with_combination(h, gens, sol.t, sol.alphas), ref)
        row = run_scheme(h, ref, RunConfig(scheme="ilcap-pre"))
        assert row["E_ILCAP+EN"].hex() == want.energy.hex()

    def test_ilcap_pre_dresses_only_the_generator_sectors(self, monkeypatch):
        data = load_fcidump(str(DATA_DIR / "h4_r2p0.fcidump"))
        h, ref = jw_hamiltonian(data), hf_reference(data)
        want = run_scheme(h, ref, RunConfig(scheme="ilcap-pre"))

        def refused(*args):
            raise AssertionError("ilcap-pre called en_correct")

        dressed = []
        real = ilcap.dress_with_combination

        def recorded(op, gens, t, alphas):
            dressed.append((op, gens, alphas))
            return real(op, gens, t, alphas)

        for module in (pipeline, ilcap):
            monkeypatch.setattr(module, "en_correct", refused)
        monkeypatch.setattr(ilcap, "dress_with_combination", recorded)
        got = run_scheme(h, ref, RunConfig(scheme="ilcap-pre"))
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}
        [(op, gens, alphas)] = dressed
        g = [0, *(g.x for g, a in zip(gens, alphas) if a != 0.0)]
        assert len(g) > 2
        near = {a ^ b for a in g for b in g}
        assert_same_sum(op, PauliSum(h.n, [(w, c) for w, c in h.items() if w.x in near]))
        assert 0 < len(op) < len(h)

    def test_degenerate_sector_warning_names_the_caller(self):
        # X2 flips a bit that no diagonal word reads, before or after the
        # Y0 rotation, and couples to the reference through both states;
        # with one generator, ilcap-pre's set is Y0 and leaves X2 to EN
        h = PauliSum.from_text("1.0 Z0\n0.5 X0\n0.3 X2\n", 3)
        ref = ReferenceState(3, 0)
        gen = PauliWord.from_factors(3, [("Y", 0)])
        with pytest.warns(UserWarning) as caught:
            res = ilcap._en_from_state(ising_decompose(h), [gen], 0.8, np.array([1.0]), ref)
        assert [str(w.message) for w in caught] == [
            "sector 0x4 skipped: degenerate diagonal gap 0.000e+00"]
        assert caught[0].filename == __file__
        assert res.skipped_sectors == (0b100,) and 0b100 not in res.contributions
        with pytest.warns(UserWarning) as caught:
            run_scheme(h, ref, RunConfig(scheme="ilcap-pre", max_generators=1))
        assert [str(w.message) for w in caught] == [
            "sector 0x4 skipped: degenerate diagonal gap 0.000e+00"]
        assert caught[0].filename == pipeline.__file__
