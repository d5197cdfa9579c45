"""Linear H_n chain FCIDUMP inputs for the benchmark.

The contracted-Gaussian integral primitives come from
``tools/make_h2_fcidump.py`` (imported, not copied); this module adds
only the loop over n centres and a damped restricted Hartree-Fock, so
the molecular orbitals are canonical and the aufbau reference of the
qubit Hamiltonian is the HF determinant.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCF_TOL = 1e-6  # largest occupied-virtual Fock element allowed
DAMPING = 0.5  # share of the previous density kept in each SCF step
MAX_SCF_ITERATIONS = 500


def _load_integral_tool():
    path = ROOT / "tools" / "make_h2_fcidump.py"
    spec = importlib.util.spec_from_file_location("make_h2_fcidump", path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(f"integral tool not found at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tool = _load_integral_tool()


@dataclass(frozen=True)
class Chain:
    """One generated geometry and the facts the results record about it."""

    n_atoms: int
    r: float  # uniform spacing, bohr
    e_hf: float
    max_fock_ov: float
    scf_iterations: int


def _primitives(centres):
    """Per atom: tuple of (exponent, normalized coefficient, z)."""
    return [
        tuple(
            (alpha, coeff * (2.0 * alpha / math.pi) ** 0.75, z)
            for alpha, coeff in zip(_tool.EXPONENTS, _tool.COEFFS)
        )
        for z in centres
    ]


def ao_integrals(n_atoms: int, r: float):
    """(e_nuc, S, T + V, (ij|kl)) over contracted 1s AOs, renormalized."""
    centres = [i * r for i in range(n_atoms)]
    prim = _primitives(centres)
    s = np.zeros((n_atoms, n_atoms))
    hcore = np.zeros((n_atoms, n_atoms))
    for i in range(n_atoms):
        for j in range(i + 1):
            ss = tt = vv = 0.0
            for a, ca, za in prim[i]:
                for b, cb, zb in prim[j]:
                    r2 = (za - zb) ** 2
                    ss += ca * cb * _tool._overlap(a, b, r2)
                    tt += ca * cb * _tool._kinetic(a, b, r2)
                    for zc in centres:
                        vv += ca * cb * _tool._attraction(a, za, b, zb, zc)
            s[i, j] = s[j, i] = ss
            hcore[i, j] = hcore[j, i] = tt + vv

    g = np.zeros((n_atoms,) * 4)
    for i, j, k, l in itertools.product(range(n_atoms), repeat=4):
        if j > i or l > k or (i, j) < (k, l):
            continue
        acc = 0.0
        for a, ca, za in prim[i]:
            for b, cb, zb in prim[j]:
                for c, cc, zc in prim[k]:
                    for d, cd, zd in prim[l]:
                        acc += ca * cb * cc * cd * _tool._eri(a, za, b, zb, c, zc, d, zd)
        for p, q, u, v in ((i, j, k, l), (k, l, i, j)):
            g[p, q, u, v] = g[q, p, u, v] = g[p, q, v, u] = g[q, p, v, u] = acc

    scale = 1.0 / np.sqrt(np.diag(s))
    s = s * np.outer(scale, scale)
    hcore = hcore * np.outer(scale, scale)
    g = np.einsum("i,j,k,l,ijkl->ijkl", scale, scale, scale, scale, g)
    e_nuc = sum(1.0 / abs(za - zb) for za, zb in itertools.combinations(centres, 2))
    return e_nuc, s, hcore, g


def _fock(hcore, g, dm):
    """Closed-shell Fock matrix h + J - K/2 for density dm."""
    return hcore + np.einsum("ijkl,kl->ij", g, dm) - 0.5 * np.einsum("ikjl,kl->ij", g, dm)


def rhf(s, hcore, g, n_occ: int):
    """Damped closed-shell SCF; returns (canonical MO coefficients, iterations).

    Mixing the density with the previous one keeps stretched chains from
    oscillating between aufbau occupations.  Stops once the
    occupied-virtual Fock block vanishes to well below SCF_TOL.
    """
    evals, evecs = np.linalg.eigh(s)
    x = evecs @ np.diag(evals**-0.5) @ evecs.T

    def diagonalize(f):
        return x @ np.linalg.eigh(x.T @ f @ x)[1]

    c = diagonalize(hcore)
    dm = 2.0 * c[:, :n_occ] @ c[:, :n_occ].T
    for iteration in range(1, MAX_SCF_ITERATIONS + 1):
        c = diagonalize(_fock(hcore, g, dm))
        new_dm = 2.0 * c[:, :n_occ] @ c[:, :n_occ].T
        f_mo = c.T @ _fock(hcore, g, new_dm) @ c
        if np.max(np.abs(f_mo[:n_occ, n_occ:]), initial=0.0) < 1e-10:
            dm = new_dm
            break
        dm = (1.0 - DAMPING) * new_dm + DAMPING * dm
    c = diagonalize(_fock(hcore, g, dm))
    # fix each orbital's sign so reruns write identical integrals
    for p in range(c.shape[1]):
        if c[np.argmax(np.abs(c[:, p])), p] < 0:
            c[:, p] = -c[:, p]
    return c, iteration


def write_chain_fcidump(path: Path, n_atoms: int, r: float) -> Chain:
    """Write the FCIDUMP of H_n at uniform spacing r; return its SCF facts."""
    if n_atoms % 2:
        raise ValueError("closed-shell chains need an even atom count")
    e_nuc, s, hcore, g_ao = ao_integrals(n_atoms, r)
    n_occ = n_atoms // 2
    c, iterations = rhf(s, hcore, g_ao, n_occ)
    h_mo = c.T @ hcore @ c
    g_mo = np.einsum("ip,jq,kr,ls,ijkl->pqrs", c, c, c, c, g_ao, optimize=True)

    dm = 2.0 * c[:, :n_occ] @ c[:, :n_occ].T
    fock = _fock(hcore, g_ao, dm)
    f_mo = c.T @ fock @ c
    max_ov = float(np.max(np.abs(f_mo[:n_occ, n_occ:])))
    if not max_ov < SCF_TOL:
        raise RuntimeError(
            f"H{n_atoms} at r = {r} bohr: SCF not converged, max |F_ov| = {max_ov:.3e}"
        )
    e_hf = e_nuc + 0.5 * float(np.sum(dm * (hcore + fock)))

    n = n_atoms
    lines = [
        f" &FCI NORB={n},NELEC={n},MS2=0,",
        "  ORBSYM=" + "1," * n,
        "  ISYM=1,",
        " &END",
    ]
    for p, q, u, v in itertools.product(range(n), repeat=4):
        if q > p or v > u or (p, q) < (u, v):
            continue
        val = g_mo[p, q, u, v]
        if abs(val) > 1e-14:
            lines.append(f"{val:23.16e} {p + 1} {q + 1} {u + 1} {v + 1}")
    for p in range(n):
        for q in range(p + 1):
            if abs(h_mo[p, q]) > 1e-14:
                lines.append(f"{h_mo[p, q]:23.16e} {p + 1} {q + 1} 0 0")
    lines.append(f"{e_nuc:23.16e} 0 0 0 0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Chain(n_atoms, r, e_hf, max_ov, iterations)
