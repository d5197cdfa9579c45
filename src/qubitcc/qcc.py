"""Qubit coupled cluster energy functional and its iterative driver.

The ansatz is a product of involutory-generator exponentials
exp(-i t_k T_k / 2) for k = 1..L, with k = 1 applied to the reference
last, so conjugating the Hamiltonian applies k = 1 innermost.  The
energy is evaluated exactly in the word basis by sequential
conjugation; truncation happens only when a dressed Hamiltonian is
formed between iterations.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .pauli import (
    PauliSum,
    PauliWord,
    ReferenceState,
    conjugate_by_word,
    half_commutator,
)
from .screen import gradients, ising_decompose
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


def qcc_energy_and_gradient(
    h: PauliSum,
    generators,
    amplitudes,
    ref: ReferenceState,
) -> tuple[float, np.ndarray]:
    """Energy plus its exact amplitude gradient.

    The derivative with respect to t_j is the expectation of
    (i/2)[T_j, H_j] pushed through the remaining outer conjugations,
    where H_j is the Hamiltonian already conjugated through step j.
    """
    if len(generators) != len(amplitudes):
        raise ValueError("one amplitude per generator required")
    L = len(generators)
    inner: list[PauliSum] = []
    cur = h
    for gen, t in zip(generators, amplitudes):
        cur = conjugate_by_word(cur, gen, t)
        inner.append(cur)
    energy = ref.expectation(cur)
    grad = np.zeros(L)
    for j in range(L):
        d = half_commutator(generators[j], inner[j])
        for k in range(j + 1, L):
            d = conjugate_by_word(d, generators[k], amplitudes[k])
        grad[j] = ref.expectation(d)
    return energy, grad


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
    max_restarts: int = 4,
    gtol: float = 1e-9,
) -> AmplitudeOptimization:
    """Quasi-Newton minimization of the QCC energy from a zero start.

    If the zero start makes no progress (a saddle or a flat spot, which
    happens when every first-order gradient vanishes), up to
    max_restarts seeded random perturbations are tried and the best
    result kept.
    """
    L = len(generators)
    if L == 0:
        e0 = ref.expectation(h)
        return AmplitudeOptimization(np.zeros(0), e0, True, 0, 0)

    def objective(t):
        return qcc_energy_and_gradient(h, generators, t, ref)

    e_start = ref.expectation(h)
    rng = np.random.default_rng(seed)
    best = None
    restarts_used = 0
    x0 = np.zeros(L)
    for attempt in range(max_restarts + 1):
        res = minimize(objective, x0, jac=True, method="BFGS", options={"gtol": gtol})
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

    Conjugations run k = 1..L (innermost first) exactly as in the
    energy, so the dressed expectation on the reference reproduces the
    optimized energy up to what truncation removes.
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
        opt = optimize_amplitudes(
            state.hamiltonian, gens, ref, seed=seed + it, max_restarts=4
        )
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
