"""Exact ground energies by determinant direct CI on the spatial integrals.

The CI vector is a matrix C[I_alpha, I_beta] over alpha and beta
occupation strings (uint64 bit masks, orbital p is bit p), and H acts
through the spin-summed excitation operators E_pq = E^a_pq + E^b_pq
(Knowles and Handy, Chem. Phys. Lett. 111, 315 (1984); Olsen et al.,
J. Chem. Phys. 89, 2185 (1988)):

    H = E_core + sum k_pq E_pq + 1/2 sum (pq|rs) E_pq E_rs,
    k_pq = h_pq - 1/2 sum_r (pr|rq),

so sigma = H C needs only each string's one-particle replacement list,
E_pq |I> = sign |J>.  D_rs = E_rs C and G_pq = 1/2 sum_rs (pq|rs) D_rs
are (orbital pairs) x (determinants) arrays, one matrix product apart,
and sigma = E_core C + sum k_pq D_pq + sum E_pq G_pq.  The CI matrix is
formed only for small blocks.  The replacement lists, and for a small
block the identity C = I with its D, hold no integrals: they are built
once per shape and the last _CACHED_SHAPES of each are kept.

Nothing here goes through the Jordan-Wigner mapping or the Pauli-sector
oracle, so agreement with them checks the mapping too.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

import numpy as np

from .chemio import _CACHED_SHAPES, FcidumpData, _check_hermitian
from .pauli import _read_only

__all__ = ["WORK_CAP", "fci_ground_energy"]

# floats in each of sigma's two (orbital pairs) x (determinants) arrays:
# H10's 100 x 63,504 (51 MB each) fits, H11's 121 x 213,444 does not
WORK_CAP = 1 << 23
# the CI matrix is formed as sigma of the identity while that batch
# stays this small: H4's 16 x 36 x 36, not H6's 36 x 400 x 400.  On one
# core of a 2-vCPU host H4 takes 0.12 ms dense with its identity images
# kept (0.34 ms when they are built) against 1.5 ms by Davidson, and
# H6 32-63 ms dense against 3.4 ms by Davidson
_DENSE_WORK = 1 << 20
# Davidson stops once the residual norm |H x - theta x| is below this:
# theta is then within |r|^2 / gap of the eigenvalue
_RESIDUAL_TOL = 1e-8
_SUBSPACE = 30  # basis vectors before a restart
_KEEP = 4  # lowest Ritz vectors a restart keeps
_DAVIDSON_STEPS = 1000
_MIN_DENOMINATOR = 1e-8  # smallest |theta - H_II| the preconditioner divides by
_DEPENDENT = 1e-10  # a vector that orthogonalization shrinks below this share is dropped

# pair, target string index and sign, each shaped (strings, entries per string)
_Table = tuple[np.ndarray, np.ndarray, np.ndarray]


def _strings(n_orb: int, n_occ: int) -> np.ndarray:
    """Every string of n_occ electrons in n_orb orbitals, as ascending bit masks."""
    masks = [sum(1 << p for p in occ) for occ in combinations(range(n_orb), n_occ)]
    return np.sort(np.array(masks, dtype=np.uint64))


def _occupations(strings: np.ndarray, n_orb: int) -> np.ndarray:
    """(strings, orbitals) booleans: orbital p is occupied in string I."""
    return (strings[:, None] >> np.arange(n_orb, dtype=np.uint64)) & np.uint64(1) == 1


@functools.lru_cache(maxsize=_CACHED_SHAPES)
def _replacements(n_orb: int, n_occ: int) -> _Table:
    """Each string's replacement list: E_pq |I> = sign |J> for q occupied, p empty or q.

    The pair is stored transposed, as q * n_orb + p, since <I|E_qp|J> =
    sign is the matrix element that D and sigma read.  Every string has
    n_occ * (n_orb - n_occ + 1) entries, in (p, q) order.
    """
    strings = _strings(n_orb, n_occ)
    occ = _occupations(strings, n_orb)
    allowed = occ[:, None, :] & (~occ[:, :, None] | np.eye(n_orb, dtype=bool))
    s, p, q = (a.astype(np.uint64) for a in np.nonzero(allowed))  # (s, p, q) ascending
    one = np.uint64(1)
    removed = strings[s] ^ (one << q)
    image = removed | (one << p)
    # a_q passes the electrons below q, then a+_p those below p in the string without q
    below = (np.bitwise_count(strings[s] & ((one << q) - one))
             + np.bitwise_count(removed & ((one << p) - one)))
    sign = 1.0 - 2.0 * (below & 1)
    shape = (len(strings), -1)
    pair = (q * np.uint64(n_orb) + p).astype(np.uint32).reshape(shape)
    target = np.searchsorted(strings, image).astype(np.uint32).reshape(shape)
    return _read_only(pair, target, sign.reshape(shape))


def _excite(d: np.ndarray, c: np.ndarray, table: _Table) -> None:
    """d[pair] += E_pair c over the first string axis of c (each (pair, I) once)."""
    pair, target, sign = table
    rows = np.arange(pair.shape[0])[:, None]
    d[pair, rows] += sign[:, :, None, None] * c[target]


def _gather(g: np.ndarray, table: _Table) -> np.ndarray:
    """sum_pq E_pq g_pq over the first string axis of g's blocks."""
    pair, target, sign = table
    return np.einsum("se,se...->s...", sign, g[pair, target])


def _excitations(c: np.ndarray, alpha: _Table, beta: _Table, n_pairs: int) -> np.ndarray:
    """D_rs = E_rs c for each column of c, shaped (pairs, alpha strings, beta strings, columns)."""
    d = np.zeros((n_pairs,) + c.shape)
    _excite(d, c, alpha)
    _excite(d.transpose(0, 2, 1, 3), c.transpose(1, 0, 2), beta)
    return d


def _sigma(c: np.ndarray, d: np.ndarray, alpha: _Table, beta: _Table, k: np.ndarray,
           v: np.ndarray, e_core: float) -> np.ndarray:
    """H applied to each column of c, shaped (alpha strings, beta strings, columns).

    d is c's D = E_rs c, from ``_excitations``.
    """
    flat = d.reshape(len(k), -1)
    out = (k @ flat).reshape(c.shape) + e_core * c
    g = (v @ flat).reshape(d.shape)
    out += _gather(g, alpha)
    out += _gather(g.transpose(0, 2, 1, 3), beta).transpose(1, 0, 2)
    return out


@functools.lru_cache(maxsize=_CACHED_SHAPES)
def _identity_images(n_orb: int, n_alpha: int, n_beta: int) -> tuple[np.ndarray, np.ndarray]:
    """The dense branch's C = I over the block's determinants and its D = E_rs C, read-only."""
    shape = (math.comb(n_orb, n_alpha), math.comb(n_orb, n_beta))
    dim = shape[0] * shape[1]
    c = np.eye(dim).reshape(shape + (dim,))
    return _read_only(c, _excitations(c, _replacements(n_orb, n_alpha),
                                      _replacements(n_orb, n_beta), n_orb**2))


def _diagonal(n_orb: int, n_alpha: int, n_beta: int, one: np.ndarray, two: np.ndarray,
              e_core: float) -> np.ndarray:
    """H_II for every determinant, shaped (alpha strings, beta strings).

    Each spin's occupied orbitals add h_pp and 1/2 sum (J_pq - K_pq) over
    their pairs (J_pp = K_pp, so p = q adds nothing); the two spins add
    J_pq between them, with J_pq = (pp|qq) and K_pq = (pq|qp).
    """
    j = np.einsum("ppqq->pq", two)
    jk = j - np.einsum("pqqp->pq", two)
    occ_a, occ_b = (_occupations(_strings(n_orb, n), n_orb).astype(float)
                    for n in (n_alpha, n_beta))

    def same_spin(occ):
        return occ @ np.diag(one) + 0.5 * np.einsum("sp,pq,sq->s", occ, jk, occ)

    return e_core + same_spin(occ_a)[:, None] + same_spin(occ_b) + occ_a @ j @ occ_b.T


def _orthonormal(t: np.ndarray, basis: np.ndarray) -> np.ndarray | None:
    """t orthogonalized twice against the rows of basis and normalized; None inside their span."""
    size = np.linalg.norm(t)
    for _ in range(2):
        t = t - (basis.conj() @ t) @ basis
    norm = np.linalg.norm(t)
    return t / norm if norm > _DEPENDENT * size else None


def _davidson(apply, diag: np.ndarray, dtype=float) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the Hermitian operator apply, by Davidson's method.

    The basis starts from the unit vector on the lowest diagonal entry and
    a fixed random vector (``default_rng(0)``): a symmetry can hide the
    ground state from the first, as the alpha/beta swap hides a triplet
    from a closed-shell determinant.  It grows by the residual
    r = H x - theta x of the lowest Ritz pair, preconditioned as
    r / (theta - H_II) (Davidson, J. Comput. Phys. 17, 87 (1975)).  A
    correction inside the basis falls back to r itself, and when r lies
    there too, the basis spans an invariant subspace and theta is exact.
    At _SUBSPACE vectors (or the whole space) the basis restarts from its
    _KEEP lowest Ritz vectors.  The basis has the given dtype, complex
    for a complex operator.  Returns theta and the unit Ritz vector x.
    """
    dim = len(diag)
    size = min(_SUBSPACE, dim)
    lowest = np.zeros(dim, dtype)
    lowest[np.argmin(diag)] = 1.0
    basis, images = np.empty((size, dim), dtype), np.empty((size, dim), dtype)
    k, new = 0, [lowest, np.random.default_rng(0).standard_normal(dim).astype(dtype)]
    for _ in range(_DAVIDSON_STEPS):
        for t in new:
            q = _orthonormal(t, basis[:k])
            if q is not None:
                basis[k], images[k] = q, apply(q)
                k += 1
        rayleigh = basis[:k].conj() @ images[:k].T
        theta, vecs = np.linalg.eigh(0.5 * (rayleigh + rayleigh.conj().T))
        x = vecs[:, 0] @ basis[:k]
        r = vecs[:, 0] @ images[:k] - theta[0] * x
        if np.linalg.norm(r) < _RESIDUAL_TOL:
            return float(theta[0]), x
        if k == size:
            k = min(_KEEP, k - 1)
            basis[:k], images[:k] = vecs[:, :k].T @ basis[:size], vecs[:, :k].T @ images[:size]
        denom = theta[0] - diag
        denom[np.abs(denom) < _MIN_DENOMINATOR] = _MIN_DENOMINATOR
        q = _orthonormal(r / denom, basis[:k])
        if q is None:
            q = _orthonormal(r, basis[:k])
            if q is None:
                return float(theta[0]), x
        new = [q]
    raise RuntimeError(f"Davidson did not converge in {_DAVIDSON_STEPS} steps")


def fci_ground_energy(data: FcidumpData) -> float:
    """Lowest eigenvalue of H among n_elec-electron states, by direct CI.

    Solves the reference's S_z block, n_alpha = ceil(n_elec / 2) and
    n_beta = floor(n_elec / 2) as ``hf_reference`` fills them: H is spin
    free, so every spin multiplet has a member there and the block's
    minimum is that of the whole n_elec-electron sector.  Small blocks
    are diagonalized densely, larger ones by Davidson's method on sigma,
    preconditioned by the diagonal H_II, from the lowest determinant and
    a fixed random vector; no scipy is loaded.  The integral-free tables
    are kept per shape, so a bond scan builds them once.  ValueError
    when the integrals differ from their adjoint's (as in
    ``jw_hamiltonian``), when n_elec lies outside 0..2 n_orb, and when
    the block has more than WORK_CAP orbital pairs x determinants.
    """
    n_orb, n_elec = data.n_orb, data.n_elec
    one, two = data.one_body, data.two_body
    _check_hermitian(one, two)
    if not 0 <= n_elec <= 2 * n_orb:
        raise ValueError(f"n_elec must lie in 0..{2 * n_orb}")
    n_alpha, n_beta = (n_elec + 1) // 2, n_elec // 2
    shape = (math.comb(n_orb, n_alpha), math.comb(n_orb, n_beta))
    dim = shape[0] * shape[1]
    if n_orb**2 * dim > WORK_CAP:
        raise ValueError(
            f"the {n_elec}-electron S_z block has {dim} determinants on {n_orb} orbitals; "
            f"direct CI is capped at {WORK_CAP} orbital pairs x determinants"
        )
    alpha, beta = _replacements(n_orb, n_alpha), _replacements(n_orb, n_beta)
    k = (one - 0.5 * np.einsum("prrq->pq", two)).ravel()
    v = 0.5 * two.reshape(n_orb**2, n_orb**2)
    args = (alpha, beta, k, v, data.e_core)
    if n_orb**2 * dim * dim <= _DENSE_WORK:
        mat = _sigma(*_identity_images(n_orb, n_alpha, n_beta), *args).reshape(dim, dim)
        return float(np.linalg.eigvalsh(mat)[0])
    diag = _diagonal(n_orb, n_alpha, n_beta, one, two, data.e_core).ravel()

    def apply(x):
        c = x.reshape(shape + (1,))
        return _sigma(c, _excitations(c, alpha, beta, len(k)), *args).ravel()

    return _davidson(apply, diag)[0]
