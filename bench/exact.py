"""Independent exact energies in the reference's electron sector.

The sector matrix is assembled here from the Pauli term masks with
scipy.sparse, without going through ``qubitcc.oracle``: the basis is
every determinant with n_elec/2 alpha (even qubits) and n_elec/2 beta
(odd qubits) electrons, and a word (x, z) maps basis index b to b ^ x
with amplitude i**(Y count) * (-1)**popcount(b & z).  Terms that leave
the sector are dropped, which is exact because the full Hamiltonian
conserves N and S_z.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

DENSE_LIMIT = 1000
_I_POWERS = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


def sector_basis(n_qubits: int, n_elec: int) -> np.ndarray:
    """Sorted indices with S_z = 0 and n_elec electrons, spins interleaved."""
    if n_elec % 2 or n_qubits % 2:
        raise ValueError("S_z = 0 sector needs even qubit and electron counts")
    n_orb = n_qubits // 2
    states = []
    for alpha in itertools.combinations(range(n_orb), n_elec // 2):
        a = sum(1 << (2 * p) for p in alpha)
        for beta in itertools.combinations(range(n_orb), n_elec // 2):
            states.append(a | sum(1 << (2 * p + 1) for p in beta))
    return np.array(sorted(states), dtype=np.int64)


def sector_matrix(terms, n_qubits: int, n_elec: int) -> sp.csr_matrix:
    """Real sparse sector block of sum c * word over (x, z, c) triples."""
    basis = sector_basis(n_qubits, n_elec)
    dim = len(basis)
    by_x: dict[int, list[tuple[int, float]]] = {}
    for x, z, c in terms:
        by_x.setdefault(x, []).append((z, c))
    rows, cols, vals = [], [], []
    for x, group in by_x.items():
        target = basis ^ x
        pos = np.minimum(np.searchsorted(basis, target), dim - 1)
        inside = basis[pos] == target
        if not inside.any():
            continue
        src = basis[inside]
        amp = np.zeros(len(src), dtype=complex)
        for z, c in group:
            parity = np.bitwise_count(src & z) & 1
            amp += c * _I_POWERS[(x & z).bit_count() % 4] * (1.0 - 2.0 * parity)
        rows.append(pos[inside])
        cols.append(np.nonzero(inside)[0])
        vals.append(amp)
    vals = np.concatenate(vals)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if np.max(np.abs(vals.imag)) > 1e-10 * scale:
        raise ValueError("sector matrix has imaginary entries; Hamiltonian is not real")
    mat = sp.csr_matrix(
        (vals.real, (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
    )
    asym = abs(mat - mat.T)
    if asym.nnz and asym.max() > 1e-12 * scale:
        raise ValueError("sector matrix is not symmetric")
    return mat


def sector_ground_energy(terms, n_qubits: int, n_elec: int) -> float:
    """Lowest eigenvalue of the sector block (dense below DENSE_LIMIT states)."""
    mat = sector_matrix(terms, n_qubits, n_elec)
    if mat.shape[0] <= DENSE_LIMIT:
        return float(np.linalg.eigvalsh(mat.toarray())[0])
    v0 = np.random.default_rng(0).standard_normal(mat.shape[0])
    return float(eigsh(mat, k=1, which="SA", v0=v0, tol=1e-14)[0][0])


def reference_energy(terms, n_elec: int) -> float:
    """<ref|H|ref> with the lowest n_elec qubits occupied (Z eigenvalue -1)."""
    occ = (1 << n_elec) - 1
    return float(sum(-c if (z & occ).bit_count() & 1 else c for x, z, c in terms if x == 0))
