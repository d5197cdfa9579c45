"""Involutory linear-combination ansatz and completeness corrections.

A normalized real combination T = sum_k alpha_k T_k of pairwise
anti-commuting involutory generators is itself involutory, so the
exponential ansatz closes into cos/sin terms and the energy over the
span of the reference and the T_k images is an (M+1) x (M+1) real
symmetric eigenproblem.  The corrections fold the remaining Ising
sectors back in: a Brillouin-Wigner fixed point over an effective
downfolded matrix, or a per-sector Epstein-Nesbet denominator sum.

The ansatz matrix and the BW couplings are one table of <v|h|w> over
states i**p |b>: the reference (p = 0), each -i T_k|0> (p from
``pauli.basis_image``) and each flipped reference X_f|0> (p = 0).  An
entry is i**(p_w - p_v) <b_v|h|b_w>, the b_v ^ b_w sector of
``screen.ising_decompose`` at b_v; each bra takes all its sectors at
once (``IsingDecomposition.at``), and the BW/EN denominators take the
diagonal at every flipped reference at once (``pauli._diagonal_at``):
a left fold over the T diagonal terms at the S flipped references, bit
for bit the sum term by term, or, when n 2**n < T S, one Walsh-Hadamard
transform over all 2**n states, equal to the fold to rounding.

``dress_with_combination`` works on the mask arrays of the
``PauliSum`` and sums T h T in closed form: the k = j half scales each
word of h once, by (1 - A) + A cos t with A the weight of the
generators it anti-commutes with, and of the other generator pairs it
forms only k < j, and of those only the products with a real phase,
picked before any product is formed.  T_j w T_k is the adjoint of
T_k w T_j, so a real product counts twice and an imaginary one cancels
its mirror.  Each word adds its own row, its half-commutator rows and
its pair rows in that order, in one ``np.bincount``.

ilcap-pre's EN (``_en_from_state``) is EN on U+ h U, U = exp(-i t T/2),
without that sum.  The state psi = U|0> lives on the M + 1 states
occ ^ g_i (g_0 = 0 and the M generators of nonzero weight), so each
dressed coupling <psi|h U|occ ^ m> is read from h's sectors at those
M + 1 bras: M + 1 candidates per nonzero value, against the rows of a
full dressing and its decomposition.  Only e0 and the gaps need the
dressed diagonal, which the dressing of h's terms in the sectors
g_i ^ g_j gives alone.  ``en_correct`` and this route share their
tail: a degenerate gap skips its sector, with a warning unless its
weight is 0.0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pauli import (
    I_POWERS,
    PauliSum,
    PauliWord,
    ReferenceState,
    _diagonal_at,
    _group_masks,
    _mask_product,
    basis_image,
)
from .screen import IsingDecomposition, ising_decompose

__all__ = [
    "IlcapSolution",
    "BwResult",
    "EnResult",
    "build_h_matrix",
    "solve_ilcap",
    "dress_with_combination",
    "bw_correct",
    "en_correct",
]

_IMAG_TOL = 1e-12
_I_POWERS = np.array(I_POWERS)
_SINGULAR_TOL = 1e-8  # BW and EN skip a sector whose denominator is smaller
_BW_TOL = 1e-12  # a BW step that moves E by less has converged
_BW_MAX_ITERATIONS = 200
_WEIGHT_FLOOR = 1e-12  # solved combination weights below this are set to 0.0
_RESIDUE_TOL = 1e-14  # EN from the state drops a coupling this small against its candidates


def _validate_generators(generators: Sequence[PauliWord], n: int) -> None:
    for i, g in enumerate(generators):
        if g.n != n:
            raise ValueError("generator qubit count differs from the Hamiltonian's")
        if g.y_count() % 2 == 0:
            raise ValueError(f"generator {i} has even Y count; expected odd")
    gx = np.array([g.x for g in generators], np.uint64)
    gz = np.array([g.z for g in generators], np.uint64)
    # the symplectic form of every pair at once; the first even one above
    # the diagonal, in (i, j) order, is the pair named
    even = (np.bitwise_count((gx[:, None] & gz) ^ (gz[:, None] & gx)) & 1) == 0
    i, j = np.nonzero(np.triu(even, 1))
    if len(i):
        raise ValueError(f"generators {i[0]} and {j[0]} commute; set is not anti-commuting")


def _brackets(
    dec: IsingDecomposition,
    generators: Sequence[PauliWord],
    ref: ReferenceState,
    flips: Sequence[int] = (),
) -> np.ndarray:
    """<v_i|h|v_j> over the ILCAP states v and the X words of ``flips``.

    Rows run over v_0 = |0> and v_k = -i T_k|0>, columns over the same
    states and then X_f|0>.  Each state is i**p |b> for a basis state
    b: p = 0 for |0> and X_f|0>, and p = k + 3 for v_k, with
    T_k|0> = i**k |b_k>.  Entry (i, j) is i**(p_j - p_i) <b_i|h|b_j>;
    all bras read their rows from one pass over the terms.
    """
    if dec.n != ref.n:
        raise ValueError("qubit counts differ")
    _validate_generators(generators, dec.n)
    occ = ref.occupied_mask
    images = [basis_image(g, occ) for g in generators]
    bras = [occ, *(b for b, _ in images)]
    kets = np.array(bras + [occ ^ m for m in flips], dtype=np.uint64)
    p = np.array([0, *(k + 3 for _, k in images), *(0 for _ in flips)])
    rows = dec.row(kets[: len(bras)], kets)
    # adding to 0j turns a -0.0 from the phase product into 0.0, as a
    # term-by-term sum from 0j would have it
    return 0j + _I_POWERS[(p - p[: len(bras), None]) & 3] * rows


def _check_real(values: np.ndarray, scale: float, what: str) -> None:
    """Raise if an imaginary part of values exceeds 1e-12 * scale."""
    worst = float(np.max(np.abs(values.imag), initial=0.0))
    if worst > _IMAG_TOL * scale:
        raise ValueError(
            f"{what} entries have imaginary parts up to {worst:.3e}; "
            "check generator Y parity"
        )


def build_h_matrix(
    h: PauliSum, generators: Sequence[PauliWord], ref: ReferenceState
) -> np.ndarray:
    """(M+1) x (M+1) real symmetric matrix of the combination ansatz.

    Entry (i, j) is <v_i|h|v_j> over v_0 = |0> and v_k = -i T_k|0>, so
    (k, 0) is i <0| T_k h |0>, (0, k) is -i <0| h T_k |0>, and (k', k)
    is <0| T_k' h T_k |0>.  Imaginary parts must vanish (odd-Y
    generators against an even-Y Hamiltonian); anything above 1e-12
    raises, since it signals a generator parity defect.
    """
    return _h_matrix(_brackets(ising_decompose(h), generators, ref))


def _h_matrix(table: np.ndarray) -> np.ndarray:
    """``build_h_matrix`` from the square block of ``_brackets``."""
    square = table[:, : len(table)]
    mat = square.real
    scale = max(1.0, float(np.max(np.abs(mat))))
    _check_real(square, scale, "matrix")
    asym = float(np.max(np.abs(mat - mat.T)))
    if asym > _IMAG_TOL * scale:
        raise ValueError(f"matrix asymmetry {asym:.3e} exceeds tolerance")
    return (mat + mat.T) / 2.0


@dataclass(frozen=True, slots=True)
class IlcapSolution:
    """Lowest eigenpair of the combination ansatz, back-converted."""

    energy: float
    coefficients: np.ndarray  # (M+1,) real unit vector, first entry >= 0
    t: float
    # (M,) combination weights, unit norm when t > 0; below 1e-12 they
    # are exact zeros (generators that reach the reference only by roundoff)
    alphas: np.ndarray
    matrix: np.ndarray


def solve_ilcap(
    h: PauliSum, generators: Sequence[PauliWord], ref: ReferenceState
) -> IlcapSolution:
    """Lowest eigenpair of the ansatz matrix plus (t, alpha) recovery.

    The eigenvector deterministically takes a non-negative reference
    component; the amplitude is t = 2 arccos(C_0) and the combination
    weights are the remaining components over sin(t/2).  At t = 0 the
    weights are returned as zeros (the ansatz is the identity there).

    Weights below 1e-12 in magnitude become exactly 0.0, so
    ``dress_with_combination`` skips their generators.  On a Hamiltonian
    that conserves N and S_z, a generator whose image of the reference
    has another N or S_z couples to the ansatz states only through
    roundoff, and ``eigh`` leaves it a weight below 1e-17, where
    the smallest real weights on H6 and H8 chains are 0.04 to 0.07.  The
    weights have unit norm, so the floor does not depend on the energy
    scale, and it needs no knowledge of the symmetry.
    """
    return _solve(build_h_matrix(h, generators, ref))


def _solve(mat: np.ndarray) -> IlcapSolution:
    """``solve_ilcap`` from the ansatz matrix."""
    eigvals, eigvecs = np.linalg.eigh(mat)
    energy = float(eigvals[0])
    vec = eigvecs[:, 0].copy()
    lead = next((v for v in vec if abs(v) > 1e-14), 1.0)
    if lead < 0:
        vec = -vec
    c0 = min(1.0, max(-1.0, float(vec[0])))
    t = 2.0 * math.acos(c0)
    s = math.sin(t / 2.0)
    alphas = vec[1:] / s if s > 1e-12 else np.zeros(len(vec) - 1)
    alphas[np.abs(alphas) < _WEIGHT_FLOOR] = 0.0
    return IlcapSolution(energy, vec, t, alphas, mat)


def dress_with_combination(
    h: PauliSum,
    generators: Sequence[PauliWord],
    t: float,
    alphas: Sequence[float],
) -> PauliSum:
    """Conjugate h by exp(-i t T / 2) with T the alpha-combination.

    Because T is involutory the transformation closes exactly:
    h - (i/2) sin(t) [h, T] + (1 - cos t)/2 (T h T - h).

    T h T sums a_k a_j T_k w T_j over the ordered pairs (k, j) of active
    generators and the terms w of h.  T_k w T_k is -w where w
    anti-commutes with T_k and w elsewhere, so with A the sum of a_k^2
    over the T_k that w anti-commutes with, added in generator order,
    and the weights of unit norm, w's own coefficient c becomes
    c ((1 - A) + A cos t).  T_j w T_k is the adjoint of T_k w T_j: a
    k < j product is real exactly where w anti-commutes with one of T_k
    and T_j, and then it stands for both orders, with weight
    (1 - cos t) a_k a_j; the others are imaginary and cancel their
    mirror, so they are never formed.  Each word adds its own row, then
    the half-commutator rows sin(t) a_k i T_k w in generator order, then
    the real k < j rows in (k, j) order.  A word that commutes with
    every active generator keeps its coefficient, and one generator of
    weight +-1 gives ``conjugate_by_word``'s sum at angle +-t.  Nothing
    is pruned here: a caller that wants the result pruned calls
    ``.truncate`` on it.
    """
    if len(generators) != len(alphas):
        raise ValueError("one weight per generator required")
    if not math.isfinite(t):
        raise ValueError(f"rotation angle must be finite, got {t!r}")
    alphas = np.asarray(alphas, dtype=float)
    if not np.all(np.isfinite(alphas)):
        raise ValueError(f"combination weights must be finite, got {alphas.tolist()}")
    _validate_generators(generators, h.n)
    if t == 0.0 or not np.any(alphas):
        return h
    norm = float(np.sum(alphas**2))
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"combination weights have norm {norm:.6f}, need 1")

    st, ct = math.sin(t), math.cos(t)
    on = alphas != 0.0
    a = alphas[on]
    gx = np.array([g.x for g in generators], np.uint64)[on]
    gz = np.array([g.z for g in generators], np.uint64)[on]
    sign = _I_POWERS.real
    # odd[k, i] is 1 where term i of h anti-commutes with active T_k
    odd = np.bitwise_count((gx[:, None] & h.z) ^ (gz[:, None] & h.x)) & 1
    gen, term = np.nonzero(odd)
    anti = np.bincount(term, weights=(a * a)[gen], minlength=len(h.c))
    own = h.c * ((1.0 - anti) + anti * ct)
    # on these rows T_k w = i**k1 (x1, z1) with k1 odd, so i T_k w is real
    x1, z1, k1 = _mask_product(gx[gen], gz[gen], h.x[term], h.z[term])
    part_c = st * a[gen] * (h.c[term] * sign[(k1 + 1) & 3])
    # T_k T_j = i**q (x, z) for each pair k < j, in (k, j) order; on a
    # real row T_k w T_j is (-1)**odd_k w T_k T_j = i**p (x2, z2)
    kk, jj = np.triu_indices(len(a), 1)
    pair_x, pair_z, q = _mask_product(gx[kk], gz[kk], gx[jj], gz[jj])
    left = odd[kk]
    real_rows = left != odd[jj]
    flat = np.flatnonzero(real_rows)
    pair = np.repeat(np.arange(len(kk)), np.count_nonzero(real_rows, axis=1))
    pterm = flat - pair * len(h.c)
    x2, z2, r = _mask_product(h.x[pterm], h.z[pterm], pair_x[pair], pair_z[pair])
    p = (q[pair] + r + 2 * left.ravel()[flat]) & 3
    pair_c = ((1.0 - ct) * a[kk] * a[jj])[pair] * h.c[pterm] * sign[p]
    del flat, pair, pterm  # freed before the grouping, whose sort is the peak
    ux, uz, inverse = _group_masks(np.concatenate((h.x, x1, x2)), np.concatenate((h.z, z1, z2)))
    del x1, z1, x2, z2
    total = np.bincount(inverse, weights=np.concatenate((own, part_c, pair_c)), minlength=len(ux))
    return PauliSum._canonical(h.n, ux, uz, total)


@dataclass(frozen=True, slots=True)
class BwResult:
    """Brillouin-Wigner fixed point over the downfolded matrix."""

    energy: float
    uncorrected_energy: float
    converged: bool
    iterations: int
    skipped_sectors: tuple[int, ...]


def bw_correct(
    h: PauliSum,
    generators: Sequence[PauliWord],
    excluded_masks: Sequence[int],
    ref: ReferenceState,
) -> BwResult:
    """Fold the excluded Ising sectors into the ansatz matrix.

    Solves E = lambda_min(H - b (D - E)^-1 b^T) by fixed-point
    iteration from E = lambda_min(H), for at most 200 steps, until a
    step moves E by less than 1e-12.  Columns whose denominator falls
    within 1e-8 of E are skipped with a warning; three consecutive
    growing steps raise, since the iteration is diverging.
    """
    gen_masks = {g.x for g in generators}
    ordered = sorted(set(excluded_masks))
    for m in ordered:
        if m <= 0 or m >> h.n:
            raise ValueError(f"excluded mask {m:#x} empty or outside the register")
        if m in gen_masks:
            raise ValueError(f"excluded mask {m:#x} collides with a generator")

    return _bw_correct(ising_decompose(h), generators, ordered, ref)[0]


def _bw_correct(
    dec: IsingDecomposition,
    generators: Sequence[PauliWord],
    ordered: Sequence[int],
    ref: ReferenceState,
) -> tuple[BwResult, IlcapSolution]:
    """``bw_correct`` on a decomposition, for ascending valid excluded masks.

    Also returns the ansatz solution, ``solve_ilcap``'s to the bit: its
    matrix is the square block of the same table, and its energy is
    BW's starting energy.
    """
    table = _brackets(dec, generators, ref, ordered)
    mat = _h_matrix(table)
    coupling = table[:, len(table) :]  # <v_i|h X|0> for each excluded X
    b = coupling.real
    d = _diagonal_at(dec.h, np.uint64(ref.occupied_mask) ^ np.array(ordered, dtype=np.uint64))
    scale = max(1.0, float(np.max(np.abs(mat))), float(np.max(np.abs(b), initial=0.0)))
    _check_real(coupling, scale, "coupling")

    sol = _solve(mat)
    energy = sol.energy
    skipped: set[int] = set()
    prev_step = math.inf
    growth = 0
    converged = False
    iterations = 0
    for iterations in range(1, _BW_MAX_ITERATIONS + 1):
        denom = d - energy
        usable = np.abs(denom) >= _SINGULAR_TOL
        for col in np.nonzero(~usable)[0]:
            mask = ordered[col]
            if mask not in skipped:
                warnings.warn(
                    f"sector {mask:#x} skipped: denominator within "
                    f"{_SINGULAR_TOL:g} of the current energy",
                    stacklevel=3,
                )
                skipped.add(mask)
        bu = b[:, usable]
        eff = mat - (bu / denom[usable]) @ bu.T
        new_energy = float(np.linalg.eigh(eff)[0][0])
        step = abs(new_energy - energy)
        energy = new_energy
        if step < _BW_TOL:
            converged = True
            break
        if step > prev_step:
            growth += 1
            if growth >= 3:
                raise RuntimeError(
                    f"fixed point diverging: step grew to {step:.3e} "
                    f"after {iterations} iterations"
                )
        else:
            growth = 0
        prev_step = step
    return BwResult(energy, sol.energy, converged, iterations, tuple(sorted(skipped))), sol


@dataclass(frozen=True, slots=True)
class EnResult:
    """Epstein-Nesbet sector sum on top of the reference energy."""

    energy: float
    reference_energy: float
    contributions: dict[int, float]
    skipped_sectors: tuple[int, ...]


def en_correct(h: PauliSum, ref: ReferenceState) -> EnResult:
    """Second-order sector sum with diagonal-difference denominators.

    E = <0|h|0> + sum_m |<0|I_m|0>|^2 / (<0|h|0> - <0|X_m h X_m|0>),
    one term per nonzero X sector.  Denominators within 1e-8 of zero
    are skipped, with a warning where the sector's weight is nonzero.
    """
    if h.n != ref.n:
        raise ValueError("qubit counts differ")
    dec = ising_decompose(h)
    values = dec.at(ref.occupied_mask)
    return _en_sum(h, ref, float(values[0].real), dec.masks[1:], values[1:])


def _en_sum(
    diagonal: PauliSum, ref: ReferenceState, e0: float, masks: np.ndarray, values: np.ndarray
) -> EnResult:
    """EN's sum from e0 over the sectors ``masks`` with couplings ``values``.

    The gaps are e0 minus the diagonal of ``diagonal`` at each flipped
    reference.  A gap within 1e-8 of zero skips its sector, with a
    warning that names the caller of this function's caller unless the
    weight is 0.0, and the terms add left to right from e0.
    """
    weights = np.hypot(values.real, values.imag)  # as abs(complex) rounds
    gaps = e0 - _diagonal_at(diagonal, np.uint64(ref.occupied_mask) ^ masks)
    skip = np.abs(gaps) < _SINGULAR_TOL
    coupled = skip & (weights != 0.0)
    skipped = masks[coupled].tolist()
    for m, gap in zip(skipped, gaps[coupled].tolist()):
        warnings.warn(
            f"sector {m:#x} skipped: degenerate diagonal gap {gap:.3e}",
            stacklevel=3,
        )
    terms = (weights * weights)[~skip] / gaps[~skip]
    # cumsum adds left to right, the sum e0 + term_1 + term_2 + ...
    total = float(np.cumsum(np.concatenate(([e0], terms)))[-1])
    contributions = dict(zip(masks[~skip].tolist(), terms.tolist()))
    return EnResult(total, e0, contributions, tuple(skipped))


def _en_from_state(
    dec: IsingDecomposition,
    generators: Sequence[PauliWord],
    t: float,
    alphas: np.ndarray,
    ref: ReferenceState,
) -> EnResult:
    """EN on h dressed by the combination, read from the state U|0>.

    The same sum as ``en_correct(dress_with_combination(h, generators,
    t, alphas), ref)``, from h's decomposition, without the dressed sum.
    With U = exp(-i t T/2), the active generators g_1..g_M (nonzero
    weight) and g_0 = 0, U|b> = sum_j beta_j(b) |b ^ g_j>: beta_0 =
    cos(t/2) and beta_j = sin(t/2) a_j (-i) i**k, with T_j|b> = i**k
    |b ^ g_j> (``basis_image``).  The dressed coupling of sector m is
    <0|U+ h U|occ ^ m>, the sum over i, j of conj(psi_i) beta_j(occ ^ m)
    <occ ^ g_i|h|occ ^ m ^ g_j> with psi_i = beta_i(occ), and the
    bracket is h's sector s = m ^ g_i ^ g_j at the bra occ ^ g_i.  So
    each nonzero (bra i, sector s) value gives M + 1 candidates, in
    (i, s, j) order and added per m in that order.  A sector whose sum is
    at most 1e-14 times the sum of its candidates' sizes drops out: the
    dressing never forms a product that cancels its adjoint mirror, and
    here such a pair adds to a roundoff residue.  The dressed diagonal
    words come only from h's terms in the sectors g_i ^ g_j, by the same
    rows in the same order, so dressing those terms alone gives e0 and
    the gaps of the full dressing to the bit.  At t = 0, or with no nonzero
    weight, this is ``en_correct(h, ref)`` bit for bit.
    """
    occ = ref.occupied_mask
    on = alphas != 0.0
    if t == 0.0 or not on.any():  # U is the identity
        values = dec.at(occ)
        return _en_sum(dec.h, ref, float(values[0].real), dec.masks[1:], values[1:])
    h = dec.h
    active = [g for g, o in zip(generators, on) if o]
    gx = np.array([0, *(g.x for g in active)], np.uint64)
    gz = np.array([0, *(g.z for g in active)], np.uint64)
    near = np.isin(h.x, gx[:, None] ^ gx)
    diagonal = dress_with_combination(
        PauliSum._canonical(h.n, h.x[near], h.z[near], h.c[near]), generators, t, alphas
    )
    amp = np.concatenate(([math.cos(t / 2.0)], math.sin(t / 2.0) * alphas[on]))
    # beta_j(b) is amp_j i**p: p = 0 for j = 0, else 3 + k with k from basis_image
    base = np.array([0, *(3 * g.y_count() + 3 for g in active)])

    def beta(bits: np.ndarray) -> np.ndarray:  # bits[..., j] is the b that beta_j reads
        return amp * _I_POWERS[(base + 2 * np.bitwise_count(gz & (bits ^ gx))) & 3]

    psi = beta(np.full(len(gx), occ, np.uint64))
    brackets = dec.at(np.uint64(occ) ^ gx)  # row i: every sector of h at bra i
    i, s = np.nonzero(brackets)
    m = (dec.masks[s] ^ gx[i])[:, None] ^ gx
    candidates = (psi.conj()[i] * brackets[i, s])[:, None] * beta(np.uint64(occ) ^ m)
    masks, inverse = np.unique(m, return_inverse=True)
    re = np.bincount(inverse.ravel(), candidates.real.ravel(), len(masks))
    im = np.bincount(inverse.ravel(), candidates.imag.ravel(), len(masks))
    size = np.bincount(inverse.ravel(), np.abs(candidates).ravel(), len(masks))
    keep = (np.hypot(re, im) > _RESIDUE_TOL * size) & (masks != 0)
    return _en_sum(
        diagonal, ref, ref.expectation(diagonal), masks[keep], re[keep] + 1j * im[keep]
    )
