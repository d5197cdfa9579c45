"""Estimator families for one Hamiltonian: iQCC, ILCAP and their corrections.

``run_scheme`` is the one place that chains screening, generator-set
construction, the solvers and the BW/EN corrections, and the one place
that names the estimator labels a scan reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .acset import build_anticommuting_set
from .ilcap import IlcapSolution, _bw_correct, _en_from_state, en_correct
from .pauli import PauliSum, PauliWord, ReferenceState
from .qcc import run_iqcc
from .screen import IsingDecomposition, gradients, ising_decompose

__all__ = ["SCHEMES", "RunConfig", "run_scheme"]

SCHEMES = ("iqcc", "ilcap-pre", "ilcap-post")


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Estimator-family configuration shared by single points and scans."""

    scheme: str = "ilcap-pre"
    generators_per_iteration: int = 1
    iterations: int = 1
    max_generators: int | None = None
    gradient_tol: float = 1e-7
    truncation_threshold: float = 1e-8


def _ilcap_family(
    dec: IsingDecomposition, ref: ReferenceState, cfg: RunConfig, prefix: str
) -> tuple[dict[str, float], tuple[PauliWord, ...], IlcapSolution]:
    """E_prefix and E_prefix+BW for the combination ansatz on dec.h.

    E_prefix is BW's uncorrected energy, the lowest eigenvalue of the
    ansatz matrix.  Also returns the generators and the ansatz solution,
    whose amplitude and weights dress h for EN.
    """
    ranked = gradients(dec, ref)
    acs = build_anticommuting_set(dec.n, ranked.masks, cfg.max_generators)
    used = {g.x for g in acs.generators}
    excluded = [m for m in dec.sectors if m not in used]  # ascending, as bw_correct sorts them
    bw, sol = _bw_correct(dec, acs.generators, excluded, ref)
    return {prefix: bw.uncorrected_energy, f"{prefix}+BW": bw.energy}, acs.generators, sol


def run_scheme(h: PauliSum, ref: ReferenceState, cfg: RunConfig) -> dict[str, float]:
    """Estimator labels to energies for one Hamiltonian.

    scheme 'iqcc' runs the plain iterative solver; 'ilcap-pre' applies
    the combination ansatz and its corrections to the bare Hamiltonian;
    'ilcap-post' runs the iterative solver first and applies the
    corrections to the dressed Hamiltonian it leaves behind.

    ilcap-pre's EN is EN on h dressed by the ILCAP rotation U, but it
    reads the dressed couplings from the state U|0> and h's own
    decomposition (with M generators of nonzero weight, M + 1
    candidates per nonzero sector of h at each of M + 1 bras), and
    dresses only the terms of h that make the dressed diagonal.  It
    equals ``en_correct`` on the full dressing to rounding.  A sector
    that the dressed sum lacks, or whose dressed words cancel exactly,
    can warn here, since its coupling is a roundoff residue; a sector
    of zero weight warns in neither.  Both EN warnings name this
    function.
    """
    if cfg.scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {cfg.scheme!r}; pick one of {SCHEMES}")
    if cfg.scheme == "ilcap-pre":
        dec = ising_decompose(h)
        cells, generators, sol = _ilcap_family(dec, ref, cfg, "E_ILCAP")
        en = _en_from_state(dec, generators, sol.t, sol.alphas, ref)
        return {**cells, "E_ILCAP+EN": en.energy}
    state = run_iqcc(
        h,
        ref,
        generators_per_iteration=cfg.generators_per_iteration,
        max_iterations=cfg.iterations,
        gradient_tol=cfg.gradient_tol,
        truncation_threshold=cfg.truncation_threshold,
    )
    label = f"E_QCC({cfg.iterations})"
    if cfg.scheme == "iqcc":
        return {label: state.energy}
    en = en_correct(state.hamiltonian, ref)
    family = _ilcap_family(ising_decompose(state.hamiltonian), ref, cfg, f"{label}+ILCAP")[0]
    return {label: state.energy, f"{label}+EN": en.energy, **family}
