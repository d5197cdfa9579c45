import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize

from qubitcc import oracle, qcc
from qubitcc.acset import canonical_generator
from qubitcc.pauli import PauliSum, PauliWord, ReferenceState, commutes, half_commutator
from qubitcc.screen import ising_decompose
from qubitcc.qcc import (
    dress,
    optimize_amplitudes,
    qcc_energy_and_gradient,
    run_iqcc,
)

from conftest import (
    assert_same_sum,
    conjugation_energy_and_gradient,
    fresh_interpreter,
    random_sum,
    random_word,
    reference_conjugate_by_word,
    word_expectation,
)


def qcc_energy(h, generators, amplitudes, ref):
    """<0| U^dag h U |0> from the untruncated dressed Hamiltonian."""
    return ref.expectation(dress(h, generators, amplitudes))


def energy_curve_coefficients(h, generator, ref):
    """(a, b, c) with E(t) = a + b sin t + c (1 - cos t) for one generator."""
    a = ref.expectation(h)
    b = ref.expectation(half_commutator(generator, h))
    # <0| G h G |0>: G keeps each commuting term and flips the sign of the rest
    ghg = sum(
        (c if commutes(w, generator) else -c) * word_expectation(ref, w) for w, c in h.items()
    )
    return a, b, 0.5 * (ghg - a)


def unitary(generators, amplitudes):
    """Ordered product: the first generator's exponential acts first."""
    n = generators[0].n
    u = np.eye(2**n, dtype=complex)
    for g, t in zip(generators, amplitudes):
        gm = oracle.to_dense(PauliSum(n, [(g, 1.0)]))
        u = u @ expm(-0.5j * t * gm)
    return u


class TestEnergy:
    def test_matches_dense_unitary(self, rng):
        for _ in range(30):
            n = rng.randint(2, 5)
            h = random_sum(rng, n, 10)
            gens = [random_word(rng, n) for _ in range(3)]
            ts = [rng.uniform(-1.5, 1.5) for _ in range(3)]
            ref = ReferenceState(n, rng.randint(0, n))
            vec = unitary(gens, ts) @ oracle.reference_vector(ref)
            want = oracle.expectation(h, vec)
            energy, _ = qcc_energy_and_gradient(h, gens, ts, ref)
            assert energy == pytest.approx(want, abs=1e-10)

    def test_zero_amplitudes_reproduce_reference(self, rng):
        n = 4
        h = random_sum(rng, n, 10)
        ref = ReferenceState(n, 2)
        gens = [random_word(rng, n) for _ in range(2)]
        energy, _ = qcc_energy_and_gradient(h, gens, [0.0, 0.0], ref)
        assert energy == pytest.approx(ref.expectation(h))

    def test_length_mismatch(self, rng):
        h = random_sum(rng, 3, 5)
        with pytest.raises(ValueError):
            qcc_energy_and_gradient(h, [random_word(rng, 3)], [0.1, 0.2], ReferenceState(3, 1))


class TestGradient:
    def test_against_central_differences(self, rng):
        eps = 1e-6
        for _ in range(25):
            n = rng.randint(2, 5)
            h = random_sum(rng, n, 10)
            L = rng.randint(1, 4)
            gens = [random_word(rng, n) for _ in range(L)]
            ts = [rng.uniform(-1.0, 1.0) for _ in range(L)]
            ref = ReferenceState(n, rng.randint(0, n))
            energy, grad = qcc_energy_and_gradient(h, gens, ts, ref)
            assert energy == pytest.approx(qcc_energy(h, gens, ts, ref), abs=1e-12)
            for j in range(L):
                up = list(ts)
                dn = list(ts)
                up[j] += eps
                dn[j] -= eps
                fd = (qcc_energy(h, gens, up, ref) - qcc_energy(h, gens, dn, ref)) / (2 * eps)
                assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_gradient_at_zero_matches_screening(self, rng):
        for _ in range(20):
            n = rng.randint(2, 5)
            h = random_sum(rng, n, 8)
            g = random_word(rng, n)
            ref = ReferenceState(n, rng.randint(0, n))
            _, grad = qcc_energy_and_gradient(h, [g], [0.0], ref)
            assert grad[0] == pytest.approx(ref.expectation(half_commutator(g, h)), abs=1e-12)


def assert_matches_conjugation(h, gens, ts, ref):
    energy, grad = qcc_energy_and_gradient(h, gens, ts, ref)
    want_energy, want_grad = conjugation_energy_and_gradient(h, gens, ts, ref)
    assert abs(energy - want_energy) <= 1e-12
    assert grad.shape == want_grad.shape
    assert np.all(np.abs(grad - want_grad) <= 1e-12)


class TestSubspaceMatchesConjugation:
    @pytest.mark.parametrize("L", [0, 1, 2, 3, 4])
    def test_random_sums_with_odd_y(self, rng, L):
        for _ in range(15):
            n = rng.randint(2, 6)
            h = random_sum(rng, n, 14)
            assert any(w.y_count() % 2 for w in h.words())
            gens = [random_word(rng, n) for _ in range(L)]
            ts = [rng.uniform(-2.0, 2.0) for _ in range(L)]
            assert_matches_conjugation(h, gens, ts, ReferenceState(n, rng.randint(0, n)))

    def test_linearly_dependent_masks(self, rng):
        for _ in range(20):
            n = rng.randint(3, 6)
            h = random_sum(rng, n, 14)
            g1, g2 = random_word(rng, n), random_word(rng, n)
            g3 = PauliWord(n, g1.x ^ g2.x, rng.getrandbits(n))
            ref = ReferenceState(n, rng.randint(0, n))
            for gens in ([g1, g2, g3], [g1, g2, g1], [g1, g1], [g3, g1, g2, g3]):
                ts = [rng.uniform(-2.0, 2.0) for _ in gens]
                assert_matches_conjugation(h, gens, ts, ref)

    @pytest.mark.parametrize("filled", [False, True])
    def test_empty_and_full_references(self, rng, filled):
        for _ in range(15):
            n = rng.randint(1, 5)
            h = random_sum(rng, n, 10)
            L = rng.randint(1, 3)
            gens = [random_word(rng, n) for _ in range(L)]
            ts = [rng.uniform(-2.0, 2.0) for _ in range(L)]
            assert_matches_conjugation(h, gens, ts, ReferenceState(n, n if filled else 0))

    def test_matrix_equals_whole_decomposition(self, rng):
        # only the reachable sectors' terms are decomposed, and their sums keep every bit
        for _ in range(30):
            n = rng.randint(2, 6)
            h = random_sum(rng, n, 30)
            gens = [random_word(rng, n) for _ in range(rng.randint(1, 3))]
            ref = ReferenceState(n, rng.randint(0, n))
            index = {ref.occupied_mask: 0}
            for g in gens:
                for b in list(index):
                    index.setdefault(b ^ g.x, len(index))
            states = np.array(list(index), dtype=np.uint64)
            dec = ising_decompose(h)
            want = np.array([dec.row(b, states) for b in index])
            assert qcc._Subspace(h, gens, ref).h.tobytes() == want.tobytes()

    def test_qubit_count_mismatch(self, rng):
        h = random_sum(rng, 3, 6)
        with pytest.raises(ValueError, match="qubit counts differ"):
            qcc_energy_and_gradient(h, [random_word(rng, 4)], [0.1], ReferenceState(3, 1))
        with pytest.raises(ValueError, match="qubit counts differ"):
            qcc_energy_and_gradient(h, [random_word(rng, 3)], [0.1], ReferenceState(4, 1))
        with pytest.raises(ValueError, match="qubit counts differ"):
            qcc_energy_and_gradient(h, [], [], ReferenceState(4, 1))
        with pytest.raises(ValueError, match="qubit counts differ"):
            optimize_amplitudes(h, [random_word(rng, 4)], ReferenceState(3, 1))
        with pytest.raises(ValueError, match="qubit counts differ"):
            optimize_amplitudes(h, [random_word(rng, 3)], ReferenceState(4, 1))


class TestEnergyCurve:
    def test_reproduces_energy_everywhere(self, rng):
        for _ in range(30):
            n = rng.randint(2, 5)
            h = random_sum(rng, n, 8)
            g = random_word(rng, n)
            ref = ReferenceState(n, rng.randint(0, n))
            a, b, c = energy_curve_coefficients(h, g, ref)
            for t in (-2.0, -0.3, 0.0, 0.7, 1.9, math.pi):
                want = qcc_energy(h, [g], [t], ref)
                got = a + b * math.sin(t) + c * (1.0 - math.cos(t))
                assert got == pytest.approx(want, abs=1e-10)


class TestOptimize:
    def test_single_generator_hits_analytic_minimum(self, rng):
        for _ in range(20):
            n = rng.randint(2, 4)
            h = random_sum(rng, n, 8)
            g = random_word(rng, n)
            ref = ReferenceState(n, rng.randint(0, n))
            a, b, c = energy_curve_coefficients(h, g, ref)
            # E(t) = a + c + b sin t - c cos t has minimum a + c - hypot(b, c)
            want = a + c - math.hypot(b, c)
            opt = optimize_amplitudes(h, [g], ref)
            assert opt.energy == pytest.approx(want, abs=1e-8)

    def test_never_worse_than_start(self, rng):
        for _ in range(15):
            n = 4
            h = random_sum(rng, n, 10)
            gens = [random_word(rng, n) for _ in range(3)]
            ref = ReferenceState(n, rng.randint(0, n))
            opt = optimize_amplitudes(h, gens, ref)
            assert opt.energy <= ref.expectation(h) + 1e-12

    def test_empty_generator_list(self, rng):
        h = random_sum(rng, 3, 5)
        ref = ReferenceState(3, 1)
        opt = optimize_amplitudes(h, [], ref)
        assert opt.energy == pytest.approx(ref.expectation(h))
        assert opt.amplitudes.shape == (0,)

    def test_deterministic(self, rng):
        for _ in range(10):
            h = random_sum(rng, 4, 10)
            gens = [random_word(rng, 4) for _ in range(3)]
            ref = ReferenceState(4, 2)
            a = optimize_amplitudes(h, gens, ref)
            b = optimize_amplitudes(h, gens, ref)
            assert a.energy.hex() == b.energy.hex()
            assert [t.hex() for t in a.amplitudes] == [t.hex() for t in b.amplitudes]
            assert (a.iterations, a.restarts_used) == (b.iterations, b.restarts_used)


# optimize_amplitudes on acceptance criterion 4's 50 instances, as the optimizer
# the sweeps replaced left them: scipy's BFGS from zero, then up to four seeded
# random restarts; the energies were written with float.hex()
BFGS_ENERGIES = [
    '0x0.0p+0', '-0x1.e81625f87770ep+0', '-0x1.6628e868baf06p-1',
    '-0x1.184b224492f24p-2', '0x0.0p+0', '-0x1.669ea6c3053a8p-3',
    '-0x1.40346dc218b10p-4', '0x0.0p+0', '-0x1.5f19eb733d272p-1',
    '-0x1.6ea1fd3b12795p-2', '0x0.0p+0', '0x0.0p+0',
    '-0x1.b90e48ac664fap-2', '-0x1.adfa34670b160p-4', '-0x1.1b86ca294b5c2p+0',
    '0x0.0p+0', '-0x1.0100000000000p-61', '-0x1.6267aa8825313p+0',
    '-0x1.682b01a8c6c96p-1', '0x0.0p+0', '0x0.0p+0',
    '-0x1.0000000000000p-60', '-0x1.94db6c289bef9p-2', '-0x1.0000000000000p-60',
    '-0x1.4073d7d6a8bdep-1', '0x0.0p+0', '-0x1.5349603dba540p-2',
    '0x0.0p+0', '-0x1.47aab3fecf6bcp-1', '0x0.0p+0',
    '-0x1.d89bc1a43a880p-7', '-0x1.7b70e0cf1f15ep-1', '-0x1.7aecfa16e00a8p-2',
    '-0x1.3bb1720e067ecp-1', '0x0.0p+0', '-0x1.4400000000000p-64',
    '0x0.0p+0', '0x0.0p+0', '-0x1.0000000000000p-60',
    '-0x1.0f3e32680f15dp-1', '-0x1.c8966c835a8b0p-3', '-0x1.8359044bfe389p-3',
    '0x0.0p+0', '-0x1.41b9bba72ec38p-1', '-0x1.0400000000000p-60',
    '0x0.0p+0', '0x0.0p+0', '-0x1.fce2129cbf2a2p-3',
    '0x0.0p+0', '-0x1.e16a66c295938p-3',
]


def criterion_4_instances():
    """(h, generators, ref) of tests/test_acceptance.py::test_dressing_identity."""
    rng = random.Random(93)
    for _ in range(50):
        n = 6
        h = random_sum(rng, n, 12)
        ref = ReferenceState(n, rng.randint(0, n))
        pool = list(range(1, 1 << n))
        rng.shuffle(pool)
        yield h, [canonical_generator(n, m) for m in pool[:3]], ref


class TestSweeps:
    """Three or more generators: cyclic exact coordinate steps, no BFGS."""

    def test_never_above_bfgs(self):
        for (h, gens, ref), want in zip(criterion_4_instances(), BFGS_ENERGIES, strict=True):
            opt = optimize_amplitudes(h, gens, ref)
            assert opt.energy <= float.fromhex(want) + 1e-10
            assert opt.converged
            energy, grad = qcc_energy_and_gradient(h, gens, opt.amplitudes, ref)
            assert energy == opt.energy
            assert np.max(np.abs(grad)) <= 1e-9

    def test_saddle_at_zero_is_escaped(self, monkeypatch):
        # the third instance: every gradient vanishes at the zero start, and one
        # sweep stays there, at a saddle
        h, gens, ref = list(criterion_4_instances())[2]
        monkeypatch.setattr(qcc, "_MAX_ESCAPES", 0)
        stalled = optimize_amplitudes(h, gens, ref)
        assert not stalled.converged and stalled.restarts_used == 0
        assert stalled.iterations == 1 and not np.any(stalled.amplitudes)
        assert not np.any(qcc_energy_and_gradient(h, gens, [0.0] * 3, ref)[1])
        monkeypatch.undo()
        opt = optimize_amplitudes(h, gens, ref)
        assert opt.converged and opt.restarts_used >= 1
        assert opt.energy < stalled.energy - 0.1

    def test_dependent_masks_converge_in_few_sweeps(self):
        # X masks 1, 7 and 6 are dependent: the amplitudes couple so strongly that
        # coordinate steps alone take over 1000 sweeps here; the Newton steps take 20
        gens = [PauliWord.from_factors(3, f) for f in
                ([("Y", 0)], [("Y", 0), ("X", 1), ("X", 2)], [("Y", 1), ("X", 2)])]
        rng = random.Random(3)
        h = random_sum(rng, 3, 12)
        ref = ReferenceState(3, rng.randint(0, 3))
        opt = optimize_amplitudes(h, gens, ref)
        assert opt.converged and opt.iterations < 100
        _, grad = conjugation_energy_and_gradient(h, gens, opt.amplitudes, ref)
        assert np.max(np.abs(grad)) <= 1e-8

    def test_four_generators_reach_a_stationary_point(self, rng):
        for _ in range(20):
            n = rng.randint(4, 6)
            h = random_sum(rng, n, 16)
            pool = list(range(1, 1 << n))
            rng.shuffle(pool)
            gens = [canonical_generator(n, m) for m in pool[:4]]
            ref = ReferenceState(n, rng.randint(0, n))
            opt = optimize_amplitudes(h, gens, ref)
            assert opt.converged
            assert opt.energy <= ref.expectation(h) + 1e-12
            _, grad = conjugation_energy_and_gradient(h, gens, opt.amplitudes, ref)
            assert np.max(np.abs(grad)) <= 1e-8

    def test_three_generators_load_no_scipy_optimize(self, tmp_path):
        fcidump = Path(__file__).parent / "data" / "h4_r2p0.fcidump"
        text, ckdir = tmp_path / "h4.txt", tmp_path / "ck"
        h, gens, ref = next(criterion_4_instances())
        check = (
            "import sys, numpy as np; "
            "from qubitcc import qcc; "
            "from qubitcc.pauli import PauliSum, PauliWord, ReferenceState; "
            "print('scipy.optimize' in sys.modules); "
            f"h = PauliSum.from_text({h.to_text()!r}, 6); "
            f"gens = [PauliWord(6, x, z) for x, z in {[(g.x, g.z) for g in gens]!r}]; "
            f"print(qcc.optimize_amplitudes(h, gens, ReferenceState(6, {ref.n_elec})).converged); "
            "print('scipy.optimize' in sys.modules); "
            "from qubitcc.cli import main; "
            f"main(['transform', {str(fcidump)!r}, '-o', {str(text)!r}], standalone_mode=False); "
            f"main(['iqcc', {str(text)!r}, '--n-elec', '4', '--gens', '3', '--iterations', '2', "
            f"'--checkpoint-dir', {str(ckdir)!r}], standalone_mode=False); "
            "print('scipy.optimize' in sys.modules)"
        )
        lines = fresh_interpreter(check).splitlines()
        assert lines[:3] == ["False", "True", "False"] and lines[-1] == "False"
        checkpoints = sorted(ckdir.iterdir())
        assert len(checkpoints) == 2
        for path in checkpoints:
            generators = next(line for line in path.read_text().splitlines()
                              if line.startswith("# generators: "))
            assert generators.count("|") == 2


class TestClosedFormStep:
    """One generator: the minimum of E(t) = A + B cos t + C sin t, no BFGS."""

    def test_matches_analytic_minimum(self, rng):
        for _ in range(40):
            n = rng.randint(2, 5)
            h = random_sum(rng, n, 12)
            assert {w.y_count() % 2 for w in h.words()} == {0, 1}
            g = random_word(rng, n)
            ref = ReferenceState(n, rng.randint(0, n))
            a, b, c = energy_curve_coefficients(h, g, ref)
            # E(t) = a + c + b sin t - c cos t: at its minimum r (sin t, cos t) = (-b, c)
            r = math.hypot(b, c)
            opt = optimize_amplitudes(h, [g], ref)
            assert opt.amplitudes.shape == (1,) and abs(opt.amplitudes[0]) <= math.pi
            t = float(opt.amplitudes[0])
            assert abs(r * math.sin(t) + b) <= 1e-12 and abs(r * math.cos(t) - c) <= 1e-12
            assert abs(opt.energy - (a + c - r)) <= 1e-12
            assert abs(qcc_energy(h, [g], opt.amplitudes, ref) - (a + c - r)) <= 1e-12
            assert (opt.converged, opt.iterations, opt.restarts_used) == (True, 0, 0)

    def test_maximum_at_zero_turns_by_pi(self):
        # E(t) = cos t on the empty reference: c = 0 and b = 1
        h = PauliSum.from_text("1.0 Z0\n0.25 Z1\n", 2)
        ref = ReferenceState(2, 0)
        opt = optimize_amplitudes(h, [PauliWord.from_factors(2, [("X", 0)])], ref)
        assert abs(opt.amplitudes[0]) == pytest.approx(math.pi, abs=1e-15)
        assert opt.energy == pytest.approx(-0.75, abs=1e-15)

    def test_flat_curve_stays_at_zero(self, rng):
        for _ in range(10):
            n = rng.randint(2, 5)
            h = random_sum(rng, n, 12)
            ref = ReferenceState(n, rng.randint(0, n))
            g = PauliWord(n, 0, rng.getrandbits(n) or 1)  # Z only: G|0> = +-|0>
            opt = optimize_amplitudes(h, [g], ref)
            assert opt.amplitudes.tolist() == [0.0]
            assert opt.energy == qcc_energy_and_gradient(h, [g], [0.0], ref)[0]
            assert opt.energy == pytest.approx(ref.expectation(h), abs=1e-12)


def pair_form(h, generators, ref):
    """M = Re(V^dag H V), V = [|0>, -i T2|0>, -i T1|0>, -T1 T2|0>], from dense matrices.

    E(t1, t2) = w^T M w with w = (c1 c2, c1 s2, s1 c2, s1 s2), c_k and s_k
    the cosine and sine of t_k / 2.
    """
    t1, t2 = (oracle.to_dense(g) for g in generators)
    ket = oracle.reference_vector(ref)
    v = np.stack([ket, -1j * t2 @ ket, -1j * t1 @ ket, -t1 @ t2 @ ket], axis=1)
    return (v.conj().T @ oracle.to_dense(h) @ v).real


Y_PAIR = [PauliWord.from_factors(2, [("Y", 0)]), PauliWord.from_factors(2, [("Y", 1)])]


def pair_hamiltonian(a, b, c):
    """h on two qubits whose pair energy on Y0, Y1 and |00> has rows A, B, C.

    The rows are coefficients on (1, cos t2, sin t2) of E(t1, t2) =
    A + B cos t1 + C sin t1.  With T1 = Y0, T2 = Y1 and the empty
    reference, V's columns are |00>, |10>, |01>, |11> (bit k is qubit k),
    so M is h's matrix on those states, and h is its Pauli expansion.
    """

    def block(x0, x1, x2):  # (c2, s2) X (c2, s2)^T = x0 + x1 cos t2 + x2 sin t2
        return np.array([[x0 + x1, x2], [x2, x0 - x1]])

    r = block(*c)
    m = np.block([[block(*np.add(a, b)), r], [r, block(*np.subtract(a, b))]])
    states = [0b00, 0b10, 0b01, 0b11]
    dense = np.zeros((4, 4))
    dense[np.ix_(states, states)] = m
    terms = []
    for factors in itertools.product("IXYZ", repeat=2):
        w = PauliWord.from_factors(2, [(f, k) for k, f in enumerate(factors) if f != "I"])
        terms.append((w, float(np.trace(oracle.to_dense(w).conj().T @ dense).real) / 4.0))
    h = PauliSum(2, [(w, x) for w, x in terms if x])
    assert np.allclose(pair_form(h, Y_PAIR, ReferenceState(2, 0)), m, rtol=0.0, atol=1e-15)
    return h


# rows A, B, C of pair energies where a companion-matrix root search is weakest
EDGE_PAIRS = {
    # E symmetric about t2 = acos 0.6, its minimum: A' = r' = 0 there, a double root of g
    "double_root": ((0.0, 0.15, 0.2), (0.625, 0.6, 0.8), (0.125, 0.0, 0.0)),
    # the same about t2 = pi, while argmin A = 0
    "double_root_at_pi": ((0.0, -0.25, 0.0), (0.625, -1.0, 0.0), (0.125, 0.0, 0.0)),
    # a simple root of g at t2 = pi, the minimum
    "root_at_pi": ((0.0, 0.25, 0.5), (1.0, 0.125, 0.5), (0.0, 0.0, 0.25)),
    # B = 1/8 + cos t2 and C = sin t2: r^2 is first-harmonic, so g's k = +-4 terms are 0
    "zero_leading_harmonic": ((0.25, 0.375, -0.5), (0.125, 1.0, 0.0), (0.0, 0.0, 1.0)),
    # B = C = 0: no t1 dependence, g = 0
    "flat_in_t1": ((0.25, 0.5, -0.75), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    # A = B = cos t2, C = 0: A' = r' wherever B > 0, so g = 0, minimum at argmin A
    "g_zero": ((0.0, 1.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0)),
}


def brute_force_minimum(h, generators, ref):
    """Best point of a 721 x 721 grid on [-pi, pi)^2, refined by BFGS."""
    m = pair_form(h, generators, ref)
    grid = np.arange(721) * (2.0 * math.pi / 721) - math.pi
    half = np.stack([np.cos(0.5 * grid), np.sin(0.5 * grid)])
    over_t1 = np.einsum("ai,ci,abcd->ibd", half, half, m.reshape(2, 2, 2, 2))
    energies = np.einsum("ibd,bj,dj->ij", over_t1, half, half)
    i, j = np.unravel_index(np.argmin(energies), energies.shape)

    def energy_and_gradient(ts):
        v = [np.array([math.cos(0.5 * t), math.sin(0.5 * t)]) for t in ts]
        dv = [0.5 * np.array([-x[1], x[0]]) for x in v]
        w = np.kron(*v)
        mw = m @ w
        return w @ mw, np.array([2.0 * np.kron(dv[0], v[1]) @ mw, 2.0 * np.kron(v[0], dv[1]) @ mw])

    res = minimize(energy_and_gradient, [grid[i], grid[j]], jac=True, method="BFGS",
                   options={"gtol": 1e-12})
    return min(float(res.fun), float(energies[i, j]))


def wrap(t):
    return math.remainder(t, 2.0 * math.pi) or 0.0


def partner(rng, g, kind):
    """A second generator for g: random, same X mask, commuting or anti-commuting."""
    if kind == "same_x":
        return PauliWord(g.n, g.x, rng.getrandbits(g.n))
    while True:
        w = random_word(rng, g.n)
        if kind == "random" or commutes(w, g) == (kind == "commuting"):
            return w


class TestPairStep:
    """Two generators: every minimum of E(t1, t2) is found without BFGS."""

    @staticmethod
    def cases(rng, kind):
        if kind == "edge":
            for rows in EDGE_PAIRS.values():
                yield pair_hamiltonian(*rows), Y_PAIR, ReferenceState(2, 0)
            return
        for case in range(50):
            n = rng.randint(1, 5)
            gens = [random_word(rng, n)]
            gens.append(partner(rng, gens[0], kind))
            yield random_sum(rng, n, 12), gens, ReferenceState(n, (0, n, rng.randint(0, n))[case % 3])

    @pytest.mark.parametrize("kind", ["random", "same_x", "commuting", "anticommuting", "edge"])
    def test_matches_brute_force(self, rng, kind):
        for h, gens, ref in self.cases(rng, kind):
            ts = [rng.uniform(-math.pi, math.pi) for _ in range(2)]
            w = np.kron(*([math.cos(0.5 * t), math.sin(0.5 * t)] for t in ts))
            assert abs(w @ pair_form(h, gens, ref) @ w
                       - qcc_energy_and_gradient(h, gens, ts, ref)[0]) <= 1e-12
            opt = optimize_amplitudes(h, gens, ref)
            assert opt.energy <= brute_force_minimum(h, gens, ref) + 1e-12
            energy, grad = qcc_energy_and_gradient(h, gens, opt.amplitudes, ref)
            assert energy == opt.energy
            assert np.max(np.abs(grad)) <= 1e-9
            assert (opt.converged, opt.iterations, opt.restarts_used) == (True, 0, 0)
            assert opt.amplitudes.shape == (2,)
            assert all(-math.pi < t <= math.pi for t in opt.amplitudes)

    def test_edge_pairs_are_what_they_claim(self):
        ref = ReferenceState(2, 0)

        def harmonics(name):
            space = qcc._Subspace(pair_hamiltonian(*EDGE_PAIRS[name]), Y_PAIR, ref)
            return qcc._stationary_harmonics(qcc._pair_curves(space))

        def g(name, t2):  # z^-4 times z^4 g at z = exp(i t2)
            return np.polyval(harmonics(name)[::-1], np.exp(1j * t2)) * np.exp(-4j * t2)

        for name, t2 in [("double_root", math.acos(0.6)), ("double_root_at_pi", math.pi)]:
            dg = (g(name, t2 + 1e-4) - g(name, t2 - 1e-4)) / 2e-4
            assert abs(g(name, t2)) < 1e-15 and abs(dg) < 1e-12
        assert abs(g("root_at_pi", math.pi)) < 1e-15
        assert harmonics("zero_leading_harmonic")[[0, -1]].tolist() == [0.0, 0.0]
        for name in ("flat_in_t1", "g_zero"):
            assert not harmonics(name).any()

    def test_flat_energy_stays_at_zero(self, rng):
        # H commutes with both generators, so U leaves every energy at the reference's
        for _ in range(20):
            n = rng.randint(2, 5)
            gens = [random_word(rng, n) for _ in range(2)]
            terms = {PauliWord(n, 0, 0): rng.uniform(-1.0, 1.0)}
            for _ in range(30):
                w = random_word(rng, n)
                if all(commutes(w, g) for g in gens):
                    terms[w] = rng.uniform(-1.0, 1.0)
            h = PauliSum(n, list(terms.items()))
            ref = ReferenceState(n, rng.randint(0, n))
            opt = optimize_amplitudes(h, gens, ref)
            assert opt.amplitudes.tolist() == [0.0, 0.0]
            assert opt.energy == qcc_energy_and_gradient(h, gens, [0.0, 0.0], ref)[0]
            assert opt.energy == pytest.approx(ref.expectation(h), abs=1e-12)
            assert (opt.converged, opt.iterations, opt.restarts_used) == (True, 0, 0)

    @pytest.mark.parametrize("grad", [1e-7, -1e-7, 3e-7])
    def test_small_gradients_still_move_the_amplitudes(self, grad):
        # on the empty reference, Y0 and Y1 rotate each qubit; the minimum lies
        # about grad/0.8 from zero and only ~grad^2 below E(0, 0), well inside
        # the 1e-12 tie tolerance, yet (0, 0) is not stationary and must not win
        h = PauliSum.from_text(f"-1.0 Z0\n-1.0 Z1\n0.2 Z0 Z1\n{grad} X0\n{grad} X1\n", 2)
        ref = ReferenceState(2, 0)
        gens = [PauliWord.from_factors(2, [("Y", 0)]), PauliWord.from_factors(2, [("Y", 1)])]
        e_zero, g_zero = qcc_energy_and_gradient(h, gens, [0.0, 0.0], ref)
        assert np.allclose(np.abs(g_zero), abs(grad), rtol=1e-6)
        opt = optimize_amplitudes(h, gens, ref)
        assert all(0.5 * abs(grad) < abs(t) < 2.0 * abs(grad) for t in opt.amplitudes)
        assert opt.energy < e_zero
        assert opt.energy <= brute_force_minimum(h, gens, ref) + 1e-12
        _, g = qcc_energy_and_gradient(h, gens, opt.amplitudes, ref)
        assert np.max(np.abs(g)) <= 1e-9
        assert (opt.converged, opt.iterations, opt.restarts_used) == (True, 0, 0)

    @pytest.mark.parametrize("signs", list(itertools.product((1.0, -1.0), repeat=3)))
    def test_mirror_minima_take_the_one_nearest_zero(self, signs):
        # on the empty reference, Y0 and Y1 rotate each qubit, so
        # E = b cos t2 + c sin t1 + d cos t1 sin t2, which (t1, t2) -> (pi - t1, -t2) keeps
        b, c, d = (s * v for s, v in zip(signs, (1.0, 0.5, 0.8)))
        h = PauliSum.from_text(f"{b} Z1\n{c} X0\n{d} Z0 X1\n", 2)
        ref = ReferenceState(2, 0)
        gens = [PauliWord.from_factors(2, [("Y", 0)]), PauliWord.from_factors(2, [("Y", 1)])]
        opt = optimize_amplitudes(h, gens, ref)
        t1, t2 = opt.amplitudes
        mirror = [wrap(math.pi - t1), wrap(-t2)]
        assert opt.energy <= brute_force_minimum(h, gens, ref) + 1e-12
        assert abs(qcc_energy_and_gradient(h, gens, mirror, ref)[0] - opt.energy) <= 1e-12
        assert t1 * t1 + t2 * t2 < mirror[0] ** 2 + mirror[1] ** 2 - 0.1


class TestDress:
    def test_expectation_identity(self, rng):
        for _ in range(40):
            n = rng.randint(2, 6)
            h = random_sum(rng, n, 12)
            L = rng.randint(1, 3)
            gens = [random_word(rng, n) for _ in range(L)]
            ts = [rng.uniform(-1.5, 1.5) for _ in range(L)]
            ref = ReferenceState(n, rng.randint(0, n))
            hd = dress(h, gens, ts)
            assert ref.expectation(hd) == pytest.approx(
                qcc_energy_and_gradient(h, gens, ts, ref)[0], abs=1e-10
            )

    def test_spectrum_is_preserved(self, rng):
        h = random_sum(rng, 4, 10)
        gens = [random_word(rng, 4) for _ in range(2)]
        hd = dress(h, gens, [0.4, -0.9])
        want = np.linalg.eigvalsh(oracle.to_dense(h))
        got = np.linalg.eigvalsh(oracle.to_dense(hd))
        assert np.allclose(want, got, atol=1e-10)

    def test_truncation_bounds_term_count(self, rng):
        h = random_sum(rng, 5, 20)
        gens = [random_word(rng, 5) for _ in range(3)]
        full = dress(h, gens, [0.3, 0.3, 0.3])
        pruned = dress(h, gens, [0.3, 0.3, 0.3], truncation_threshold=1e-2)
        assert len(pruned) <= len(full)
        assert all(abs(c) >= 1e-2 for _, c in pruned.items())

    @pytest.mark.parametrize("n", [10, 11, 12])
    def test_truncated_chain_matches_term_by_term(self, rng, n):
        # X masks from a span of three, so each step's products land among
        # and between the words of the steps before; magnitudes from 1e-9
        # to 1, so truncation drops words that later steps make again
        basis = [rng.getrandbits(n) for _ in range(3)]
        span = sorted({a ^ b ^ c for a in (0, basis[0]) for b in (0, basis[1]) for c in (0, basis[2])})
        h = PauliSum(n, [(PauliWord(n, rng.choice(span), rng.getrandbits(n)),
                          rng.choice((-1, 1)) * 10 ** rng.uniform(-9, 0)) for _ in range(40)])
        sectors = sorted({w.x for w in h.words()} - {0})
        gens = [canonical_generator(n, rng.choice(sectors)) for _ in range(10)]
        ts = [rng.choice((-1, 1)) * 10 ** rng.uniform(-4, 0.2) for _ in range(10)]
        want = h
        for g, t in zip(gens, ts):
            want = reference_conjugate_by_word(want, g, t).truncate(1e-8)
        assert_same_sum(dress(h, gens, ts, truncation_threshold=1e-8), want)
        assert 2 * len(h) < len(want) < len(dress(h, gens, ts))

    @pytest.mark.parametrize("threshold", [math.nan, -1.0])
    def test_bad_threshold_raises(self, threshold):
        # every step prunes through PauliSum.truncate, which refuses the threshold
        h = PauliSum.from_text("1.0 Z0 Z1\n1e-12 X0 X1\n")
        gen = PauliWord.from_factors(2, [("Y", 0), ("X", 1)])
        with pytest.raises(ValueError, match="threshold"):
            dress(h, [gen], [0.3], truncation_threshold=threshold)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude_raises(self, t):
        h = PauliSum.from_text("1.0 Z0 Z1\n0.5 X0 X1\n")
        gen = PauliWord.from_factors(2, [("Y", 0), ("X", 1)])
        with pytest.raises(ValueError, match="finite"):
            dress(h, [gen], [t], truncation_threshold=1e-8)


class TestRunIqcc:
    def test_energy_history_non_increasing(self, rng):
        for _ in range(10):
            n = 4
            h = random_sum(rng, n, 12)
            ref = ReferenceState(n, rng.randint(0, n))
            state = run_iqcc(h, ref, generators_per_iteration=1, max_iterations=6)
            hist = state.energy_history
            assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))

    def test_converges_on_trivial_hamiltonian(self):
        h = PauliSum.from_text("1.0 Z0\n0.5 Z1\n", 2)
        state = run_iqcc(h, ReferenceState(2, 2), generators_per_iteration=1, max_iterations=3)
        assert state.converged
        assert state.records == []
        assert state.energy == pytest.approx(-1.5)

    def test_two_generators_per_iteration_converge_at_small_gradients(self):
        # both gradients start at 1e-6, above the default tolerance of 1e-7, and one
        # exact pair step leaves none above it
        h = PauliSum.from_text("-1.0 Z0\n-1.0 Z1\n0.2 Z0 Z1\n1e-6 X0\n1e-6 X1\n", 2)
        state = run_iqcc(h, ReferenceState(2, 0), generators_per_iteration=2, max_iterations=5)
        assert state.converged
        assert len(state.records) == 1
        (record,) = state.records
        assert len(record.generators) == 2
        assert all(abs(t) > 1e-7 for t in record.amplitudes)
        assert state.energy < state.energy_history[0]

    def test_unconverged_zero_step_stops_the_loop(self, monkeypatch):
        # an optimizer that gives up at the zero start leaves H as it was, so
        # every later iteration would pick the same generators again
        def stuck(h, generators, ref):
            return qcc.AmplitudeOptimization(np.zeros(len(generators)), ref.expectation(h),
                                             False, 200, 4)

        monkeypatch.setattr(qcc, "optimize_amplitudes", stuck)
        h = PauliSum.from_text("-1.0 Z0\n-1.0 Z1\n0.2 Z0 Z1\n0.1 X0\n0.1 X1\n0.05 X0 X1\n", 2)
        ref = ReferenceState(2, 0)
        state = run_iqcc(h, ref, generators_per_iteration=3, max_iterations=5)
        assert not state.converged
        (record,) = state.records
        assert record.amplitudes == (0.0, 0.0, 0.0)
        assert state.energy == pytest.approx(ref.expectation(h))

    def test_checkpoints_written_and_parseable(self, rng, tmp_path):
        h = random_sum(rng, 4, 10)
        ref = ReferenceState(4, 2)
        state = run_iqcc(
            h,
            ref,
            generators_per_iteration=1,
            max_iterations=3,
            checkpoint_dir=str(tmp_path),
        )
        files = sorted(tmp_path.glob("iteration_*.txt"))
        assert len(files) == len(state.records)
        if files:
            text = files[-1].read_text()
            reread = PauliSum.from_text(text, 4)
            assert reread == state.hamiltonian
            assert f"# energy: {state.records[-1].energy:.17g}" in text

    def test_zero_iterations(self, rng):
        h = random_sum(rng, 3, 6)
        ref = ReferenceState(3, 1)
        state = run_iqcc(h, ref, generators_per_iteration=1, max_iterations=0)
        assert state.energy == pytest.approx(ref.expectation(h))
        assert not state.converged

    def test_parameter_validation(self, rng):
        h = random_sum(rng, 3, 6)
        ref = ReferenceState(3, 1)
        with pytest.raises(ValueError):
            run_iqcc(h, ref, generators_per_iteration=0, max_iterations=1)
        with pytest.raises(ValueError):
            run_iqcc(h, ref, generators_per_iteration=1, max_iterations=-1)

    @pytest.mark.parametrize("option", ["gradient_tol", "truncation_threshold"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1e-9])
    def test_tolerances_must_be_finite_and_non_negative(self, rng, option, value):
        h = random_sum(rng, 3, 6)
        ref = ReferenceState(3, 1)
        with pytest.raises(ValueError, match=option):
            run_iqcc(h, ref, generators_per_iteration=1, max_iterations=1, **{option: value})
