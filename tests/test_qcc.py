import math

import numpy as np
import pytest
from scipy.linalg import expm

from qubitcc import oracle, qcc
from qubitcc.pauli import PauliSum, PauliWord, ReferenceState, commutes, half_commutator
from qubitcc.screen import ising_decompose
from qubitcc.qcc import (
    dress,
    optimize_amplitudes,
    qcc_energy_and_gradient,
    run_iqcc,
)

from conftest import (
    conjugation_energy_and_gradient,
    random_sum,
    random_word,
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

    def test_deterministic_for_fixed_seed(self, rng):
        h = random_sum(rng, 4, 10)
        gens = [random_word(rng, 4) for _ in range(2)]
        ref = ReferenceState(4, 2)
        a = optimize_amplitudes(h, gens, ref, seed=7)
        b = optimize_amplitudes(h, gens, ref, seed=7)
        assert a.energy == b.energy
        assert np.array_equal(a.amplitudes, b.amplitudes)


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
