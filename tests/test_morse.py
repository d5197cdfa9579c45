import math

import numpy as np
import pytest

from qubitcc import morse, qcc
from qubitcc.morse import (
    AMU_TO_ELECTRON_MASS,
    HARTREE_TO_INVCM,
    MorseFit,
    fit_morse,
    morse_energy,
    spectroscopic_constants,
)


def noisy_well():
    rng = np.random.default_rng(7)
    r = np.linspace(0.9, 3.5, 20)
    return r, morse_energy(r, 0.17, 1.0, 1.4, -1.1) + rng.normal(scale=2e-5, size=r.shape)


# E_exact of the H4 chain over the twelve bond lengths of the bench's h4-scan
H4_R = [1.291667, 1.475, 1.658333, 1.841667, 2.025, 2.208333, 2.391667, 2.575,
        2.758333, 2.941667, 3.125, 3.308333]
H4_E = [-2.09013676435, -2.16040398797, -2.18034404306, -2.17168354441, -2.14701996816,
        -2.11412273623, -2.07807850597, -2.04228879979, -2.00895700555, -1.97937985006,
        -1.9541587734, -1.93337397123]


def jacobian(r, fit):
    """d E / d (D_e, a, r_e, E_min) of the Morse curve at the fitted parameters."""
    dr = r - fit.r_e
    u = np.exp(-fit.a * dr)
    return np.column_stack((
        (1.0 - u) ** 2,
        2.0 * fit.d_e * (1.0 - u) * dr * u,
        -2.0 * fit.d_e * (1.0 - u) * fit.a * u,
        np.ones_like(r),
    ))


class TestMorseEnergy:
    def test_minimum_value(self):
        assert morse_energy(1.4, 0.2, 1.0, 1.4, -1.1) == pytest.approx(-1.1)

    def test_dissociation_plateau(self):
        # far from the well the curve approaches e_min + d_e
        assert morse_energy(60.0, 0.2, 1.0, 1.4, -1.1) == pytest.approx(-0.9, abs=1e-12)

    def test_broadcasts(self):
        r = np.linspace(0.8, 3.0, 7)
        e = morse_energy(r, 0.2, 1.0, 1.4, -1.1)
        assert e.shape == r.shape
        assert np.argmin(e) == np.argmin(np.abs(r - 1.4))

    def test_curvature_at_bottom(self):
        # E''(r_e) = 2 D_e a^2
        d_e, a, r_e = 0.17, 1.2, 1.5
        h = 1e-4
        second = (morse_energy(r_e + h, d_e, a, r_e, 0.0)
                  - 2 * morse_energy(r_e, d_e, a, r_e, 0.0)
                  + morse_energy(r_e - h, d_e, a, r_e, 0.0)) / h**2
        assert second == pytest.approx(2 * d_e * a**2, rel=1e-5)


class TestSpectroscopicConstants:
    def test_formulas(self):
        d_e, a, mu_amu = 0.25, 1.1, 3.0
        mu = mu_amu * AMU_TO_ELECTRON_MASS
        omega_au = a * math.sqrt(2 * d_e / mu)
        omega_e, omega_e_x_e = spectroscopic_constants(d_e, a, mu_amu)
        assert omega_e == pytest.approx(omega_au * HARTREE_TO_INVCM, rel=1e-14)
        assert omega_e_x_e == pytest.approx(
            omega_au**2 / (4 * d_e) * HARTREE_TO_INVCM, rel=1e-14
        )

    def test_lif_anchor(self):
        # pinned reference values for a LiF-type curve: D_e = 0.4022 Ha,
        # a = 1.335 / bohr, reduced mass 7.00155 amu.
        omega_e, omega_e_x_e = spectroscopic_constants(0.4022, 1.335, 7.00155)
        assert omega_e == pytest.approx(2326.08, abs=2.0)
        assert omega_e_x_e == pytest.approx(15.32, abs=0.2)

    def test_rejects_nonphysical(self):
        with pytest.raises(ValueError):
            spectroscopic_constants(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            spectroscopic_constants(0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            spectroscopic_constants(0.1, 1.0, -2.0)


class TestFit:
    def test_recovers_synthetic_well(self):
        d_e, a, r_e, e_min = 0.17, 1.03, 1.42, -1.137
        r = np.linspace(0.9, 3.2, 15)
        e = morse_energy(r, d_e, a, r_e, e_min)
        fit = fit_morse(r, e, mu_amu=0.5)
        assert isinstance(fit, MorseFit)
        assert fit.d_e == pytest.approx(d_e, rel=1e-8)
        assert fit.a == pytest.approx(a, rel=1e-8)
        assert fit.r_e == pytest.approx(r_e, rel=1e-8)
        assert fit.e_min == pytest.approx(e_min, abs=1e-10)
        assert fit.residual_rms < 1e-10

    def test_constants_consistent_with_parameters(self):
        r = np.linspace(1.0, 3.0, 9)
        e = morse_energy(r, 0.2, 1.1, 1.5, -1.0)
        fit = fit_morse(r, e, mu_amu=2.5)
        want = spectroscopic_constants(fit.d_e, fit.a, 2.5)
        assert (fit.omega_e, fit.omega_e_x_e) == pytest.approx(want, rel=1e-13)

    def test_noisy_points_still_close(self):
        r, e = noisy_well()
        fit = fit_morse(r, e, mu_amu=0.5)
        assert fit.d_e == pytest.approx(0.17, rel=2e-2)
        assert fit.r_e == pytest.approx(1.4, abs=5e-3)
        assert fit.residual_rms < 1e-4

    def test_unsorted_input_allowed(self):
        r = np.array([2.0, 1.0, 1.4, 2.6, 1.2, 3.0])
        e = morse_energy(r, 0.2, 1.0, 1.4, -1.0)
        fit = fit_morse(r, e, mu_amu=1.0)
        assert fit.r_e == pytest.approx(1.4, rel=1e-6)

    def test_too_few_points(self):
        r = np.array([1.0, 1.4, 2.0])
        with pytest.raises(ValueError, match="four"):
            fit_morse(r, morse_energy(r, 0.2, 1.0, 1.4, 0.0), mu_amu=1.0)

    def test_duplicate_radii(self):
        r = np.array([1.0, 1.4, 1.4, 2.0])
        with pytest.raises(ValueError, match="distinct"):
            fit_morse(r, morse_energy(r, 0.2, 1.0, 1.4, 0.0), mu_amu=1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            fit_morse([1.0, 1.4, 1.8, 2.2], [0.0, 1.0, 2.0], mu_amu=1.0)

    @pytest.mark.parametrize("which", ["r", "e"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected_before_any_solve(self, monkeypatch, capfd, which,
                                                         value):
        r, e = noisy_well()
        (r if which == "r" else e)[5] = value

        def no_solve(*args, **kwargs):
            raise AssertionError("lstsq reached")

        monkeypatch.setattr(np.linalg, "lstsq", no_solve)
        with pytest.raises(ValueError, match="must be finite"):
            fit_morse(r, e, mu_amu=0.5)
        assert capfd.readouterr().err == ""

    def test_fields_are_floats(self):
        fit = fit_morse(np.array(H4_R), np.array(H4_E), mu_amu=0.5)
        assert [type(v) for v in (fit.d_e, fit.a, fit.r_e, fit.e_min, fit.omega_e,
                                  fit.omega_e_x_e, fit.residual_rms)] == [float] * 7

    def test_nonphysical_data_raises(self):
        # a repulsive line has no well; the fit either fails to converge
        # or lands on a non-physical parameter set
        r = np.linspace(1.0, 3.0, 8)
        e = 2.0 - 0.5 * r
        with pytest.raises(RuntimeError):
            fit_morse(r, e, mu_amu=1.0)

    def test_root_step_cap_raises(self, monkeypatch):
        # the root in a comes from qcc's false position, under its step cap
        monkeypatch.setattr(qcc, "_ROOT_STEPS", 1)
        with pytest.raises(RuntimeError, match="did not converge in 1 steps"):
            fit_morse(*noisy_well(), mu_amu=0.5)

    @pytest.mark.parametrize("r, e", [
        (np.linspace(1.0, 3.0, 8), 2.0 - 0.5 * np.linspace(1.0, 3.0, 8)),  # repulsive line
        # a dip 1e-3 bohr wide, 8 bohr from the first point: the parabola's range
        # parameter would overflow exp there, so the search starts at its cap
        ([1.0, 9.0, 9.001, 9.002], [2.0, 1.0, 0.0, 1.0]),
    ])
    def test_no_well_is_named(self, r, e):
        with pytest.raises(RuntimeError, match="^Morse fit landed on a non-physical well$"):
            fit_morse(r, e, mu_amu=1.0)


class TestLeastSquares:
    """The fit is a stationary point of the four-parameter least-squares problem."""

    @pytest.mark.parametrize("case", ["noisy", "h4"])
    def test_gradient_vanishes(self, case):
        r, e = noisy_well() if case == "noisy" else (np.array(H4_R), np.array(H4_E))
        fit = fit_morse(r, e, mu_amu=0.5)
        res = morse_energy(r, fit.d_e, fit.a, fit.r_e, fit.e_min) - e
        jac = jacobian(r, fit)
        # each column of J^T r, relative to |J_k| |r|
        rel = np.abs(jac.T @ res) / (np.linalg.norm(jac, axis=0) * np.linalg.norm(res))
        assert np.all(rel < 1e-8), rel
        assert fit.residual_rms == pytest.approx(np.sqrt(np.mean(res**2)), rel=1e-12)

    @pytest.mark.parametrize("case", ["noisy", "h4", "exact"])
    def test_agrees_with_scipy_least_squares(self, case):
        # an independent solver: scipy's Levenberg-Marquardt on the analytic Jacobian
        from scipy.optimize import least_squares

        if case == "noisy":
            r, e = noisy_well()
        elif case == "h4":
            r, e = np.array(H4_R), np.array(H4_E)
        else:
            r = np.linspace(0.9, 3.2, 15)
            e = morse_energy(r, 0.17, 1.03, 1.42, -1.137)
        fit = fit_morse(r, e, mu_amu=0.5)
        start = [0.5 * fit.d_e, 0.8 * fit.a, fit.r_e + 0.1, fit.e_min + 0.01]
        lm = least_squares(lambda p: morse_energy(r, *p) - e, start, method="lm",
                           jac=lambda p: jacobian(r, MorseFit(*p, 0.0, 0.0, 0.0)),
                           xtol=1e-15, ftol=1e-15, gtol=1e-15)
        assert lm.success
        got = [fit.d_e, fit.a, fit.r_e, fit.e_min]
        assert got == pytest.approx(lm.x.tolist(), rel=1e-7)

    def test_few_projections(self, monkeypatch):
        # the root find in a takes a handful of linear solves, not a grid of them
        calls = []
        real = morse._projection

        def counted(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(morse, "_projection", counted)
        for r, e in (noisy_well(), (np.array(H4_R), np.array(H4_E))):
            calls.clear()
            fit_morse(r, e, mu_amu=0.5)
            assert len(calls) <= 20, calls

    def test_h4_constants(self):
        # omega_e of the bench's h4-scan E_exact column; Levenberg-Marquardt stopped
        # at 6546.959464515, within its tolerance of this stationary point
        fit = fit_morse(H4_R, H4_E, mu_amu=0.503913)
        assert fit.omega_e == pytest.approx(6546.9594979, abs=1e-5)

    def test_noisy_well_constants(self):
        # pinned: a change of root finder moves omega_e by rounding only
        fit = fit_morse(*noisy_well(), mu_amu=0.5)
        assert fit.omega_e == pytest.approx(4239.786216163004, rel=1e-12)
