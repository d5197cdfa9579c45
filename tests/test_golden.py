"""Byte-for-byte pin of pipeline outputs on small fixed inputs.

The golden file holds the transform text of the H2 fixture with and
without the spin penalty, the repr of every estimator of all three
schemes, iQCC checkpoint files, and combination-dressed Hamiltonians
for H2 and for a seeded 6-qubit random Hamiltonian.  A refactor that
keeps the arithmetic order must leave every byte unchanged.  The
eigensolver and polynomial-root (two-generator iQCC) lines depend on
the LAPACK build, so regenerate the file only when the platform
changes or a change states that it reorders additions (and shows each
moved line old and new), never to absorb a code change silently:

    PYTHONPATH=src:tests python -c "import test_golden as g; g.GOLDEN.write_text(g.render())"
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qubitcc.acset import build_anticommuting_set
from qubitcc.chemio import hf_reference, jw_hamiltonian, load_fcidump
from qubitcc.cli import SCHEMES, RunConfig, main, run_scheme
from qubitcc.ilcap import dress_with_combination, solve_ilcap
from qubitcc.pauli import PauliSum, ReferenceState
from qubitcc.qcc import dress, qcc_energy_and_gradient, run_iqcc
from qubitcc.screen import gradients, ising_decompose

from conftest import DATA_DIR, conjugation_energy_and_gradient, random_even_sum

GOLDEN = DATA_DIR / "golden_h2.txt"
H2 = str(DATA_DIR / "h2_r1p4.fcidump")
RANDOM_SEED = 20240817


def _random_hamiltonian() -> tuple[PauliSum, ReferenceState]:
    h = random_even_sum(random.Random(RANDOM_SEED), 6, 24)
    return h, ReferenceState(6, 3)


def _invoke(args: list[str]) -> str:
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 0, res.output
    return res.output


def _checkpoint(workdir: Path, name: str, h: PauliSum, n_elec: int) -> str:
    """Last iQCC checkpoint file of a 2 x 2 run on h."""
    text = workdir / f"{name}.txt"
    text.write_text(h.to_text() + "\n", encoding="utf-8")
    ckdir = workdir / f"{name}_ck"
    _invoke(["iqcc", str(text), "--n-elec", str(n_elec), "--n-qubits", str(h.n),
             "--gens", "2", "--iterations", "2", "--checkpoint-dir", str(ckdir)])
    last = sorted(ckdir.iterdir())[-1]
    return f"## iqcc checkpoint {name} {last.name}\n" + last.read_text(encoding="utf-8")


def _combination_dressed(name: str, h: PauliSum, ref: ReferenceState) -> str:
    ranked = gradients(ising_decompose(h), ref)
    acs = build_anticommuting_set(h.n, list(ranked.masks), None)
    sol = solve_ilcap(h, acs.generators, ref)
    dressed = dress_with_combination(h, acs.generators, sol.t, sol.alphas)
    return f"## ilcap-pre dressed {name}\n" + dressed.to_text() + "\n"


def render() -> str:
    """Every pinned output, concatenated with section headers."""
    parts = []
    for mu in ("0", "1"):
        parts.append(f"## transform mu={mu}\n" + _invoke(["transform", H2, "--mu", mu]))

    data = load_fcidump(H2)
    h2, ref2 = jw_hamiltonian(data), hf_reference(data)
    hr, refr = _random_hamiltonian()
    for name, h, ref in (("h2", h2, ref2), ("random6", hr, refr)):
        for scheme in SCHEMES:
            cfg = RunConfig(scheme=scheme, generators_per_iteration=2, iterations=2)
            rows = run_scheme(h, ref, cfg)
            parts.append(f"## run_scheme {name} {scheme}\n"
                         + "".join(f"{k} {v!r}\n" for k, v in rows.items()))

    with tempfile.TemporaryDirectory() as tmp:
        parts.append(_checkpoint(Path(tmp), "h2", h2, ref2.n_elec))
        parts.append(_checkpoint(Path(tmp), "random6", hr, refr.n_elec))

    parts.append(_combination_dressed("h2", h2, ref2))
    parts.append(_combination_dressed("random6", hr, refr))
    return "".join(parts)


def test_outputs_match_golden_file():
    # the seeded 6-qubit Hamiltonian's ilcap-post EN meets one degenerate
    # gap, in the sector that flips qubit 1
    with pytest.warns(UserWarning, match="sector 0x2 skipped"):
        got = render()
    want = GOLDEN.read_text(encoding="utf-8")
    if got != want:
        for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines()), start=1):
            assert a == b, f"golden line {i} differs"
        assert got == want, "golden output length differs"


def test_objective_matches_conjugation_on_golden_inputs():
    """The subspace objective against whole-Hamiltonian conjugation.

    Replays the golden 2 x 2 iQCC runs and compares both objectives on
    each iteration's Hamiltonian, at the optimized amplitudes and away
    from them.
    """
    data = load_fcidump(H2)
    for h, ref in ((jw_hamiltonian(data), hf_reference(data)), _random_hamiltonian()):
        state = run_iqcc(h, ref, generators_per_iteration=2, max_iterations=2)
        assert state.records
        for rec in state.records:
            for ts in (rec.amplitudes, [t + 0.3 for t in rec.amplitudes]):
                energy, grad = qcc_energy_and_gradient(h, rec.generators, ts, ref)
                want_energy, want_grad = conjugation_energy_and_gradient(
                    h, rec.generators, ts, ref
                )
                assert abs(energy - want_energy) <= 1e-12
                assert np.all(np.abs(grad - want_grad) <= 1e-12)
            h = dress(h, rec.generators, rec.amplitudes, truncation_threshold=1e-8)
        assert h == state.hamiltonian
