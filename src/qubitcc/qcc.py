"""Qubit coupled cluster energy functional and its iterative driver.

The ansatz is a product of involutory-generator exponentials
exp(-i t_k T_k / 2) for k = 1..L, with k = 1 applied to the reference
last, so conjugating the Hamiltonian applies k = 1 innermost.  The
reference is one determinant and each T_k a Pauli word, so U|0> lies
in the span of the D <= 2^L determinants occ ^ (XOR of a subset of the
generators' X masks).  Energy and gradient are evaluated exactly as a
D x D problem on that span.  Row b of that matrix is every Ising sector
of the Hamiltonian at basis state b, taken in one pass over its
canonical term arrays (``IsingDecomposition.row``); whole-Hamiltonian
conjugation is used only to dress the Hamiltonian between iterations,
where truncation happens.  scipy.optimize (BFGS) is imported at the
first amplitude optimization, so importing this module loads no scipy.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .pauli import (
    I_POWERS,
    PauliSum,
    PauliWord,
    ReferenceState,
    basis_image,
    conjugate_by_word,
)
from .screen import IsingDecomposition, gradients, ising_decompose
from .acset import canonical_generator

__all__ = [
    "qcc_energy_and_gradient",
    "AmplitudeOptimization",
    "optimize_amplitudes",
    "dress",
    "IterationRecord",
    "IqccState",
    "run_iqcc",
]

_MAX_RESTARTS = 4  # optimize_amplitudes: seeded restarts after a stalled zero start
_GTOL = 1e-9  # and the gradient norm at which BFGS stops


class _Subspace:
    """H and the generators on the determinants the ansatz can reach.

    ``h`` is the D x D Hermitian matrix <b|H|b'> over the reachable
    determinants, the reference first; generator j maps basis state i
    to ``perms[j][i]`` with phase ``phases[j][i]``.
    """

    __slots__ = ("h", "perms", "phases")

    def __init__(
        self, dec: IsingDecomposition, generators, ref: ReferenceState
    ) -> None:
        if ref.n != dec.n or any(g.n != dec.n for g in generators):
            raise ValueError("qubit counts differ")
        occ = ref.occupied_mask
        index = {occ: 0}
        for g in generators:
            for b in list(index):
                index.setdefault(b ^ g.x, len(index))
        basis = list(index)
        states = np.array(basis, dtype=np.uint64)
        self.h = np.array([dec.row(b, states) for b in basis])
        self.perms = []
        self.phases = []
        for g in generators:
            images = [basis_image(g, b) for b in basis]
            self.perms.append(np.array([index[image] for image, _ in images]))
            self.phases.append(np.array([I_POWERS[k] for _, k in images]))

    def _apply(self, j: int, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        out[self.perms[j]] = self.phases[j] * v
        return out

    def energy_and_gradient(self, amplitudes) -> tuple[float, np.ndarray]:
        """<0|U^dag H U|0> and its derivatives in the amplitudes.

        Forward: s_L = |0>, s_(j-1) = (cos(t_j/2) - i sin(t_j/2) T_j) s_j,
        E = <s_0|H|s_0>.  Backward: w_0 = H s_0, w_j = U_j^dag w_(j-1),
        and dE/dt_j = 2 Re <w_(j-1)| (-i/2) T_j |s_(j-1)>, which is
        Im <w_(j-1)|T_j|s_(j-1)>; t_j and T_j sit at index j - 1.
        """
        L = len(self.perms)
        s = np.zeros(self.h.shape[0], dtype=complex)
        s[0] = 1.0
        states = [s]
        for j in range(L - 1, -1, -1):
            half = 0.5 * amplitudes[j]
            s = math.cos(half) * s - 1j * math.sin(half) * self._apply(j, s)
            states.append(s)
        states.reverse()  # states[j] is s_j
        w = self.h @ states[0]
        energy = float(np.vdot(states[0], w).real)
        grad = np.empty(L)
        for j in range(L):
            grad[j] = np.vdot(w, self._apply(j, states[j])).imag
            half = 0.5 * amplitudes[j]
            w = math.cos(half) * w + 1j * math.sin(half) * self._apply(j, w)
        return energy, grad


def qcc_energy_and_gradient(
    h: PauliSum,
    generators,
    amplitudes,
    ref: ReferenceState,
) -> tuple[float, np.ndarray]:
    """Energy plus its exact amplitude gradient.

    Both come from the D x D matrix of h on the D <= 2^L determinants
    the generators reach from the reference; the cost grows with 2 to
    the rank of the generators' X masks, and h's terms are read once
    per determinant, to build the matrix.
    """
    if len(generators) != len(amplitudes):
        raise ValueError("one amplitude per generator required")
    space = _Subspace(ising_decompose(h), generators, ref)
    return space.energy_and_gradient(amplitudes)


@dataclass(frozen=True, slots=True)
class AmplitudeOptimization:
    """Outcome of one amplitude minimization."""

    amplitudes: np.ndarray
    energy: float
    converged: bool
    iterations: int
    restarts_used: int


def optimize_amplitudes(
    h: PauliSum,
    generators,
    ref: ReferenceState,
    *,
    seed: int | None = 0,
) -> AmplitudeOptimization:
    """Quasi-Newton minimization of the QCC energy from a zero start.

    If the zero start makes no progress (a saddle or a flat spot, which
    happens when every first-order gradient vanishes), up to four
    seeded random perturbations are tried and the best result kept;
    BFGS stops at a gradient norm of 1e-9.  h is split into sectors and
    its subspace matrix built once; each BFGS step then costs
    O(D^2 + L D) on D <= 2^L states.
    The matrix takes 16 D^2 <= 16 * 4^L bytes, so large L is out of
    reach (L = 16 would ask for 64 GiB); only L <= 4 has been tested.
    """
    L = len(generators)
    if L == 0:
        e0 = ref.expectation(h)
        return AmplitudeOptimization(np.zeros(0), e0, True, 0, 0)
    # imported here: scipy.optimize costs ~0.3 s of start-up that ilcap-pre never needs
    from scipy.optimize import minimize

    space = _Subspace(ising_decompose(h), generators, ref)
    e_start = ref.expectation(h)
    rng = np.random.default_rng(seed)
    best = None
    restarts_used = 0
    x0 = np.zeros(L)
    for attempt in range(_MAX_RESTARTS + 1):
        res = minimize(
            space.energy_and_gradient, x0, jac=True, method="BFGS", options={"gtol": _GTOL}
        )
        if best is None or res.fun < best.fun:
            best = res
        if best.fun < e_start - 1e-12:
            break
        restarts_used += 1
        x0 = rng.uniform(-0.2, 0.2, L)
    return AmplitudeOptimization(
        np.asarray(best.x, dtype=float),
        float(best.fun),
        bool(best.success),
        int(best.nit),
        restarts_used,
    )


def dress(
    h: PauliSum,
    generators,
    amplitudes,
    *,
    truncation_threshold: float = 0.0,
) -> PauliSum:
    """Similarity-transform h by the optimized unitary, then prune.

    Conjugations run k = 1..L (innermost first), the same order the
    subspace energy applies the generators in, so the dressed
    expectation on the reference reproduces the optimized energy up to
    rounding and what truncation removes.
    """
    if len(generators) != len(amplitudes):
        raise ValueError("one amplitude per generator required")
    for gen, t in zip(generators, amplitudes):
        h = conjugate_by_word(h, gen, t)
        if truncation_threshold > 0.0:
            h = h.truncate(truncation_threshold)
    return h


@dataclass(frozen=True, slots=True)
class IterationRecord:
    """One outer-loop step: what was selected and where it landed."""

    iteration: int
    generators: tuple[PauliWord, ...]
    amplitudes: tuple[float, ...]
    energy: float
    top_gradient: float
    n_terms: int


@dataclass(slots=True)
class IqccState:
    """Running state of the iterative solver."""

    hamiltonian: PauliSum
    ref: ReferenceState
    energy_history: list[float] = field(default_factory=list)
    records: list[IterationRecord] = field(default_factory=list)
    converged: bool = False

    @property
    def energy(self) -> float:
        return self.energy_history[-1]


def _write_checkpoint(directory: str, record: IterationRecord, h: PauliSum) -> None:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"iteration_{record.iteration:03d}.txt")
    lines = [
        f"# iteration: {record.iteration}",
        f"# energy: {record.energy:.17g}",
        "# amplitudes: " + " ".join(f"{t:.17g}" for t in record.amplitudes),
        "# generators: " + " | ".join(g.to_text() for g in record.generators),
        h.to_text(),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def run_iqcc(
    h: PauliSum,
    ref: ReferenceState,
    *,
    generators_per_iteration: int,
    max_iterations: int,
    gradient_tol: float = 1e-7,
    truncation_threshold: float = 1e-8,
    seed: int = 0,
    checkpoint_dir: str | None = None,
) -> IqccState:
    """Iterate screen, optimize, dress until the gradients die out.

    Each iteration ranks the X sectors of the current Hamiltonian on
    the fixed reference, takes the top generators_per_iteration
    canonical generators with gradient above gradient_tol, jointly
    optimizes their amplitudes, and replaces the Hamiltonian with the
    truncated dressed operator.  Convergence means no generator with a
    usable gradient remains; hitting max_iterations leaves the
    converged flag down.
    """
    if generators_per_iteration < 1:
        raise ValueError("need at least one generator per iteration")
    if max_iterations < 0:
        raise ValueError("max_iterations must be non-negative")
    for name, tol in (("gradient_tol", gradient_tol),
                      ("truncation_threshold", truncation_threshold)):
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"{name} must be finite and non-negative, got {tol}")
    state = IqccState(hamiltonian=h, ref=ref)
    state.energy_history.append(ref.expectation(h))
    for it in range(1, max_iterations + 1):
        dec = ising_decompose(state.hamiltonian)
        ranked = gradients(dec, ref, drop_zero=True, zero_tol=gradient_tol)
        if len(ranked) == 0:
            state.converged = True
            break
        masks = ranked.top(generators_per_iteration)
        gens = tuple(canonical_generator(h.n, m) for m in masks)
        opt = optimize_amplitudes(state.hamiltonian, gens, ref, seed=seed + it)
        state.hamiltonian = dress(
            state.hamiltonian,
            gens,
            opt.amplitudes,
            truncation_threshold=truncation_threshold,
        )
        record = IterationRecord(
            iteration=it,
            generators=gens,
            amplitudes=tuple(float(t) for t in opt.amplitudes),
            energy=opt.energy,
            top_gradient=ranked.weights[0],
            n_terms=len(state.hamiltonian),
        )
        state.records.append(record)
        state.energy_history.append(opt.energy)
        if checkpoint_dir is not None:
            _write_checkpoint(checkpoint_dir, record, state.hamiltonian)
    return state
