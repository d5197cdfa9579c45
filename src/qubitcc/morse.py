"""Morse potential fit of a bond scan and its spectroscopic constants.

E(r) = D_e (1 - exp(-a (r - r_e)))^2 + E_min equals c0 + c1 u + c2 u^2
with u = exp(-a (r - r0)) for any fixed r0, so at a fixed range
parameter a the best well is one linear least-squares solve.  The
four-parameter fit is then a root find in a alone, on the slope of the
projected residual (variable projection: Golub and Pereyra, SIAM J.
Numer. Anal. 10, 413 (1973)), by the false position that also solves
the iQCC pair step (``qcc._false_position``).  D_e = c1^2 / (4 c2),
r_e = r0 + ln(-2 c2 / c1) / a and E_min = c0 - D_e follow from c.  The
harmonic frequency and anharmonicity follow from the well parameters:
omega = a sqrt(2 D_e / mu) in atomic units, omega x = omega^2 / (4 D_e),
both reported as wavenumbers.  No scipy is loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcc import _false_position

__all__ = ["MorseFit", "morse_energy", "spectroscopic_constants", "fit_morse"]

# CODATA 2018: the hartree as a wavenumber, E_h / (h c), in cm^-1, and
# the atomic mass constant over the electron mass, m_u / m_e
HARTREE_TO_INVCM = 2.1947463136320e5
AMU_TO_ELECTRON_MASS = 1822.888486209

_NONPHYSICAL = "Morse fit landed on a non-physical well"
_BRACKET_STEPS = 12  # times a may be doubled or halved in search of a sign change
_SPAN_MAX = 300.0  # largest a (r_max - r_min): u^2 stays finite


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


def _initial_range(r: np.ndarray, e: np.ndarray) -> float:
    """a from the parabola through the lowest point and its neighbours, else 1."""
    i_min = int(np.argmin(e))
    if 0 < i_min < len(r) - 1:
        coeffs = np.polyfit(r[i_min - 1: i_min + 2], e[i_min - 1: i_min + 2], 2)
        if coeffs[0] > 0:
            # curvature 2 c2 = 2 D a^2 at the bottom of the well
            d_e = max(float(np.max(e) - e[i_min]), 1e-3)
            return math.sqrt(max(coeffs[0] / d_e, 1e-6))
    return 1.0


def _projection(dr: np.ndarray, e: np.ndarray, a: float):
    """Best c of c0 + c1 u + c2 u^2 at this a, its residual, and d|res|^2/2 da.

    B^T res vanishes at the least-squares c, so the slope is res^T (dB/da) c
    alone (the envelope theorem), with du/da = -dr u.
    """
    u = np.exp(-a * dr)
    basis = np.stack((np.ones_like(u), u, u * u), axis=1)
    c = np.linalg.lstsq(basis, e, rcond=None)[0]
    res = basis @ c - e
    return c, res, float(res @ (-dr * u * (c[1] + 2.0 * c[2] * u)))


def fit_morse(r, e, mu_amu: float) -> MorseFit:
    """Least-squares Morse fit of points (r, e) in atomic units.

    Needs at least four finite points (the model has four parameters)
    at distinct bond lengths; ValueError otherwise.  The search for a
    starts from the parabola through the lowest point and its
    neighbours when that point is interior, and doubles or halves a
    until the slope of the projected residual changes sign; false
    position then finds the slope's root in that bracket.
    RuntimeError when there is no such change, when false position
    runs out of steps, or when the best curve at the root is no well
    (c2 <= 0 or c1 >= 0): flat data and a repulsive wall have none.
    """
    r = np.asarray(r, dtype=float)
    e = np.asarray(e, dtype=float)
    if r.shape != e.shape or r.ndim != 1:
        raise ValueError("r and e must be 1-d arrays of equal length")
    if len(r) < 4:
        raise ValueError("a four-parameter fit needs at least four points")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(e))):
        raise ValueError("bond lengths and energies must be finite")
    if len(np.unique(r)) != len(r):
        raise ValueError("bond lengths must be distinct")
    order = np.argsort(r)
    r, e = r[order], e[order]
    # measured from the lowest point, flat data is exactly zero: c = 0, no well
    low = int(np.argmin(e))
    dr, de = r - r[low], e - e[low]

    def slope(a: float) -> float:
        return _projection(dr, de, a)[2]

    a_max = _SPAN_MAX / (r[-1] - r[0])
    a = min(_initial_range(r, e), a_max)
    fa = slope(a)
    factor = 2.0 if fa < 0 else 0.5
    for _ in range(_BRACKET_STEPS):
        if fa == 0:
            break
        b = a * factor
        if b > a_max:
            raise RuntimeError(_NONPHYSICAL)
        fb = slope(b)
        if (fb > 0) != (fa > 0) or fb == 0:
            if b < a:  # halved: the bracket is [b, a]
                a, b, fa, fb = b, a, fb, fa
            a = _false_position(slope, a, b, fa, fb)
            break
        a, fa = b, fb
    else:
        raise RuntimeError(_NONPHYSICAL)
    (c0, c1, c2), res, _ = _projection(dr, de, a)
    if c2 <= 0 or c1 >= 0:
        raise RuntimeError(_NONPHYSICAL)
    d_e = float(c1 * c1 / (4.0 * c2))
    r_e = float(r[low] + math.log(-2.0 * c2 / c1) / a)
    e_min = float(e[low] + c0 - d_e)
    omega_e, omega_e_x_e = spectroscopic_constants(d_e, a, mu_amu)
    rms = float(np.sqrt(np.mean(res**2)))
    return MorseFit(d_e, float(a), r_e, e_min, omega_e, omega_e_x_e, rms)
