"""Morse potential fit of a bond scan and its spectroscopic constants.

E(r) = D_e (1 - exp(-a (r - r_e)))^2 + E_min, fit with
Levenberg-Marquardt using the analytic Jacobian.  The harmonic
frequency and anharmonicity follow from the fitted parameters:
omega = a sqrt(2 D_e / mu) in atomic units, omega x = omega^2 / (4 D_e),
both reported as wavenumbers.  scipy.optimize is imported at the first
fit, so importing this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import AMU_TO_ELECTRON_MASS, HARTREE_TO_INVCM

__all__ = ["MorseFit", "morse_energy", "spectroscopic_constants", "fit_morse"]


@dataclass(frozen=True, slots=True)
class MorseFit:
    """Fitted well parameters (atomic units) and derived constants (cm^-1)."""

    d_e: float
    a: float
    r_e: float
    e_min: float
    omega_e: float
    omega_e_x_e: float
    residual_rms: float


def morse_energy(r, d_e: float, a: float, r_e: float, e_min: float):
    """Morse curve, broadcasting over r."""
    u = np.exp(-a * (np.asarray(r, dtype=float) - r_e))
    return d_e * (1.0 - u) ** 2 + e_min


def spectroscopic_constants(d_e: float, a: float, mu_amu: float) -> tuple[float, float]:
    """(omega_e, omega_e x_e) in cm^-1 from well parameters in atomic units."""
    if d_e <= 0 or a <= 0 or mu_amu <= 0:
        raise ValueError("well depth, range parameter, and mass must be positive")
    mu = mu_amu * AMU_TO_ELECTRON_MASS
    omega_au = a * math.sqrt(2.0 * d_e / mu)
    omega_e = omega_au * HARTREE_TO_INVCM
    omega_e_x_e = omega_au * omega_au / (4.0 * d_e) * HARTREE_TO_INVCM
    return omega_e, omega_e_x_e


def _initial_guess(r: np.ndarray, e: np.ndarray) -> np.ndarray:
    i_min = int(np.argmin(e))
    e_min0 = float(e[i_min])
    r_e0 = float(r[i_min])
    d_e0 = max(float(np.max(e) - e_min0), 1e-3)
    a0 = 1.0
    if 0 < i_min < len(r) - 1:
        # parabola through the three points around the minimum
        r3, e3 = r[i_min - 1: i_min + 2], e[i_min - 1: i_min + 2]
        coeffs = np.polyfit(r3, e3, 2)
        if coeffs[0] > 0:
            r_e0 = float(-coeffs[1] / (2 * coeffs[0]))
            e_min0 = float(np.polyval(coeffs, r_e0))
            # curvature 2 c2 = 2 D a^2 at the bottom of the well
            a0 = math.sqrt(max(coeffs[0] / d_e0, 1e-6))
    return np.array([d_e0, a0, r_e0, e_min0])


def fit_morse(r, e, mu_amu: float) -> MorseFit:
    """Least-squares Morse fit of points (r, e) in atomic units.

    Needs at least four points (the model has four parameters) and an
    interior minimum to anchor the initial guess.
    """
    r = np.asarray(r, dtype=float)
    e = np.asarray(e, dtype=float)
    if r.shape != e.shape or r.ndim != 1:
        raise ValueError("r and e must be 1-d arrays of equal length")
    if len(r) < 4:
        raise ValueError("a four-parameter fit needs at least four points")
    if len(np.unique(r)) != len(r):
        raise ValueError("bond lengths must be distinct")
    order = np.argsort(r)
    r, e = r[order], e[order]

    def residuals(p):
        return morse_energy(r, *p) - e

    def jacobian(p):
        d_e, a, r_e, _ = p
        dr = r - r_e
        u = np.exp(-a * dr)
        one_m_u = 1.0 - u
        jac = np.empty((len(r), 4))
        jac[:, 0] = one_m_u**2
        jac[:, 1] = 2.0 * d_e * one_m_u * dr * u
        jac[:, 2] = -2.0 * d_e * one_m_u * a * u
        jac[:, 3] = 1.0
        return jac

    # imported here: scipy.optimize costs ~0.3 s of start-up that only the fit needs
    from scipy.optimize import least_squares

    res = least_squares(residuals, _initial_guess(r, e), jac=jacobian, method="lm")
    if not res.success:
        raise RuntimeError(f"Morse fit did not converge: {res.message}")
    d_e, a, r_e, e_min = (float(v) for v in res.x)
    if d_e <= 0 or a <= 0:
        raise RuntimeError("Morse fit landed on a non-physical well")
    omega_e, omega_e_x_e = spectroscopic_constants(d_e, a, mu_amu)
    rms = float(np.sqrt(np.mean(res.fun**2)))
    return MorseFit(d_e, a, r_e, e_min, omega_e, omega_e_x_e, rms)
