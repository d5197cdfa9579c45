"""Dense and matrix-free reference evaluation of Pauli operators.

Everything here works on explicit statevectors, independently of the
symbolic word algebra, so it can serve as ground truth in tests.  Basis
index convention: qubit j is bit j of the computational index, so the
reference with the first k qubits down is the index with the low k bits
set.

``ground_state`` solves either the whole Fock space, densely and up to
DENSE_QUBIT_CAP qubits, or, given an electron count, the sector of
basis states with that many set bits: a number-conserving Hamiltonian
is block diagonal over those sectors, and the reference's sector is the
one whose energy the estimators target.  Small sector blocks are
diagonalized densely; larger ones go to the direct CI's Davidson
solver, the package's one iterative eigensolver.  No scipy is loaded.
"""

from __future__ import annotations

import math

import numpy as np

from .fci import _davidson
from .pauli import PauliSum, PauliWord, ReferenceState, _first_of_runs

__all__ = [
    "DENSE_QUBIT_CAP",
    "APPLY_QUBIT_CAP",
    "SECTOR_STATE_CAP",
    "to_dense",
    "apply_sum",
    "apply_to_basis_state",
    "reference_vector",
    "expectation",
    "ground_state",
    "ground_energy",
]

DENSE_QUBIT_CAP = 14
APPLY_QUBIT_CAP = 20
# the sector matrix is sparse, but its entries grow with states times
# excitations: H8's half-filled sector (12870 states, 2.8M entries)
# solves in about 1.3 s with about 51 MB of peak working memory
SECTOR_STATE_CAP = 1 << 14
_SECTOR_DENSE_STATES = 1000

# one x mask's entries of a sector block: rows, columns and values
_Group = tuple[np.ndarray, np.ndarray, np.ndarray]

# i**k for k = 0..3, kept apart from pauli's table so the checks stay independent
_I_POWERS = np.array([1.0 + 0j, 1j, -1.0 + 0j, -1j])

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _word_matrix(word: PauliWord) -> np.ndarray:
    mat = np.ones((1, 1), dtype=complex)
    for j in range(word.n):
        mat = np.kron(_SINGLE[word.letter(j)], mat)
    return mat


def to_dense(op: PauliWord | PauliSum) -> np.ndarray:
    """Full 2^n x 2^n complex matrix; refuses above DENSE_QUBIT_CAP."""
    if op.n > DENSE_QUBIT_CAP:
        raise ValueError(f"dense construction capped at {DENSE_QUBIT_CAP} qubits")
    if isinstance(op, PauliWord):
        return _word_matrix(op)
    dim = 1 << op.n
    mat = np.zeros((dim, dim), dtype=complex)
    for word, coeff in op.items():
        mat += coeff * _word_matrix(word)
    return mat


def _parity(values: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(values) & np.uint64(1)).astype(np.int64)


def apply_sum(h: PauliSum, vec: np.ndarray) -> np.ndarray:
    """h @ vec without building the matrix; capped at APPLY_QUBIT_CAP."""
    if h.n > APPLY_QUBIT_CAP:
        raise ValueError(f"matrix-free application capped at {APPLY_QUBIT_CAP} qubits")
    dim = 1 << h.n
    if vec.shape != (dim,):
        raise ValueError("statevector length does not match the qubit count")
    idx = np.arange(dim, dtype=np.uint64)
    out = np.zeros(dim, dtype=complex)
    for word, coeff in h.items():
        signs = 1.0 - 2.0 * _parity(idx & np.uint64(word.z))
        amp = coeff * _I_POWERS[word.y_count() % 4]
        out[idx ^ np.uint64(word.x)] += amp * signs * vec
    return out


def apply_to_basis_state(op: PauliWord | PauliSum, bits: int) -> np.ndarray:
    """op |bits> as a dense statevector."""
    n = op.n
    if n > APPLY_QUBIT_CAP:
        raise ValueError(f"matrix-free application capped at {APPLY_QUBIT_CAP} qubits")
    if not 0 <= bits < (1 << n):
        raise ValueError("basis index outside the register")
    vec = np.zeros(1 << n, dtype=complex)
    vec[bits] = 1.0
    if isinstance(op, PauliWord):
        op = PauliSum(n, [(op, 1.0)])
    return apply_sum(op, vec)


def reference_vector(ref: ReferenceState) -> np.ndarray:
    vec = np.zeros(1 << ref.n, dtype=complex)
    vec[ref.occupied_mask] = 1.0
    return vec


def expectation(h: PauliSum, vec: np.ndarray) -> float:
    """<vec|h|vec>, asserting the value is real."""
    val = np.vdot(vec, apply_sum(h, vec))
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ValueError(f"expectation has a non-negligible imaginary part: {val}")
    return float(val.real)


def _sector_matrix(h: PauliSum, n_elec: int) -> tuple[np.ndarray, list[_Group]]:
    """The block of h on the basis states with n_elec set bits, sorted.

    Terms sharing an x mask map basis state b to b ^ x together, so each
    group contributes one entry per column, its amplitude summed over
    the group's z masks with ``apply_sum``'s signs and phases, and the
    block is the list of those (rows, cols, values) groups: b ^ x differs
    for every x, so no two groups share a (row, col) pair, and within a
    group no two entries share a row.  Amplitude that lands outside the
    sector means h does not conserve the electron count; above rounding
    level that raises, since the block would not carry h's spectrum.
    """
    index = np.arange(1 << h.n, dtype=np.uint64)
    basis = index[np.bitwise_count(index) == n_elec]
    dim = len(basis)
    x, z, c = h.x, h.z, h.c
    starts = np.flatnonzero(_first_of_runs(x))  # x ascends: canonical order
    groups = []
    leak = scale = 0.0
    for lo, hi in zip(starts, np.r_[starts[1:], len(x)]):
        zs = z[lo:hi]
        image = basis ^ x[lo]
        amps = c[lo:hi] * _I_POWERS[np.bitwise_count(x[lo] & zs) % 4]
        amp = (1.0 - 2.0 * _parity(basis[:, None] & zs)) @ amps
        scale = max(scale, float(np.max(np.abs(amp))))
        pos = np.minimum(np.searchsorted(basis, image), dim - 1)
        inside = basis[pos] == image
        if not inside.all():
            leak = max(leak, float(np.max(np.abs(amp[~inside]))))
        # int32 indices, and real values where a group's are, halve the parts
        groups.append((pos[inside].astype(np.int32), np.flatnonzero(inside).astype(np.int32),
                       amp[inside] if amp.imag.any() else amp.real[inside]))
    if leak > 1e-10 * max(1.0, scale):
        raise ValueError(
            f"Hamiltonian does not conserve the electron count: amplitude {leak:.3e} "
            f"leaves the {n_elec}-electron sector"
        )
    return basis, groups


def _sector_ground_state(h: PauliSum, n_elec: int) -> tuple[float, np.ndarray]:
    if not 0 <= n_elec <= h.n:
        raise ValueError(f"n_elec must lie in 0..{h.n}")
    if h.n > APPLY_QUBIT_CAP:
        raise ValueError(f"ground state capped at {APPLY_QUBIT_CAP} qubits")
    states = math.comb(h.n, n_elec)
    if states > SECTOR_STATE_CAP:
        raise ValueError(
            f"the {n_elec}-electron sector has {states} states; "
            f"the sector solve is capped at {SECTOR_STATE_CAP}"
        )
    basis, groups = _sector_matrix(h, n_elec)
    dtype = complex if any(np.iscomplexobj(vals) for *_, vals in groups) else float
    if states <= _SECTOR_DENSE_STATES:
        mat = np.zeros((states, states), dtype)
        for rows, cols, vals in groups:
            mat[rows, cols] = vals
        energies, vectors = np.linalg.eigh(mat)
        energy, ground = energies[0], vectors[:, 0]
    else:
        def apply(v: np.ndarray) -> np.ndarray:
            out = np.zeros(states, dtype)
            for rows, cols, vals in groups:
                out[rows] += vals * v.take(cols)
            return out

        # the x = 0 group comes first, with one entry per state in order
        diag = groups[0][2].real if groups and not h.x[0] else np.zeros(states)
        energy, ground = _davidson(apply, diag, dtype)
    vec = np.zeros(1 << h.n, dtype=complex)
    vec[basis] = ground
    return float(energy), vec


def ground_state(h: PauliSum, *, n_elec: int | None = None) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of h, the vector as a full statevector.

    With ``n_elec`` given, the lowest eigenpair within the n_elec-electron
    sector (basis states with n_elec set bits): a sparse block of at most
    SECTOR_STATE_CAP states, diagonalized densely up to 1000 states and
    above by Davidson's method, preconditioned by the block's diagonal,
    from its lowest diagonal state and a fixed random vector.  h must
    conserve the electron count, else ValueError.

    Without it, the whole space, diagonalized densely up to
    DENSE_QUBIT_CAP qubits; above that ValueError.
    """
    if n_elec is not None:
        return _sector_ground_state(h, n_elec)
    if h.n > DENSE_QUBIT_CAP:
        raise ValueError(
            f"the whole-space solve is capped at {DENSE_QUBIT_CAP} qubits and this "
            f"Hamiltonian has {h.n}; give an electron count to solve one sector"
        )
    energies, vectors = np.linalg.eigh(to_dense(h))
    return float(energies[0]), vectors[:, 0]


def ground_energy(h: PauliSum, *, n_elec: int | None = None) -> float:
    return ground_state(h, n_elec=n_elec)[0]
