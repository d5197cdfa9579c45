"""Qubit coupled cluster with anti-commuting generator sets.

The package takes a molecular Hamiltonian (FCIDUMP or a plain text word
list), ranks its flip sectors by reference gradient, assembles a maximal
pairwise anti-commuting set of generators over GF(2), and estimates the
ground-state energy either iteratively (dressing the Hamiltonian step by
step) or through a single linear combination of the full set, with
perturbative corrections for everything left out.
"""

from .acset import (
    AnticommutingSet,
    build_anticommuting_set,
    canonical_generator,
    standard_f,
    standard_majorana_d,
)
from .chemio import (
    FcidumpData,
    add_spin_penalty,
    hf_reference,
    jw_hamiltonian,
    load_fcidump,
    parse_fcidump,
    spin_penalty,
)
from .fci import fci_ground_energy
from .gf2 import BinaryMatrix, classify_columns, rref_with_transform
from .ilcap import (
    BwResult,
    EnResult,
    IlcapSolution,
    build_h_matrix,
    bw_correct,
    dress_with_combination,
    en_correct,
    solve_ilcap,
)
from .morse import MorseFit, fit_morse, morse_energy, spectroscopic_constants
from .pauli import (
    PauliSum,
    PauliWord,
    ReferenceState,
    commutes,
    conjugate_by_word,
    half_commutator,
    multiply,
)
from .pipeline import RunConfig, run_scheme
from .qcc import (
    IqccState,
    dress,
    optimize_amplitudes,
    qcc_energy_and_gradient,
    run_iqcc,
)
from .screen import RankedXWords, gradients, ising_decompose

__version__ = "0.1.0"

__all__ = [
    "AnticommutingSet",
    "BinaryMatrix",
    "BwResult",
    "EnResult",
    "FcidumpData",
    "IlcapSolution",
    "IqccState",
    "MorseFit",
    "PauliSum",
    "PauliWord",
    "RankedXWords",
    "ReferenceState",
    "RunConfig",
    "add_spin_penalty",
    "build_anticommuting_set",
    "build_h_matrix",
    "bw_correct",
    "canonical_generator",
    "classify_columns",
    "commutes",
    "conjugate_by_word",
    "dress",
    "dress_with_combination",
    "en_correct",
    "fci_ground_energy",
    "fit_morse",
    "gradients",
    "half_commutator",
    "hf_reference",
    "ising_decompose",
    "jw_hamiltonian",
    "load_fcidump",
    "morse_energy",
    "multiply",
    "optimize_amplitudes",
    "parse_fcidump",
    "qcc_energy_and_gradient",
    "rref_with_transform",
    "run_iqcc",
    "run_scheme",
    "solve_ilcap",
    "spectroscopic_constants",
    "spin_penalty",
    "standard_f",
    "standard_majorana_d",
]
