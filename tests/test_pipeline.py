import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import qubitcc
from qubitcc import (
    RunConfig,
    build_anticommuting_set,
    bw_correct,
    dress_with_combination,
    en_correct,
    gradients,
    hf_reference,
    ilcap,
    ising_decompose,
    jw_hamiltonian,
    load_fcidump,
    pipeline,
    run_iqcc,
    run_scheme,
    solve_ilcap,
)

from conftest import DATA_DIR, fresh_interpreter, random_even_sum


def test_library_import_leaves_out_cli():
    # a fresh interpreter, so modules imported by other tests cannot hide a leak
    src = str(Path(qubitcc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    check = ("import sys, qubitcc; "
             "print(sorted({'click', 'qubitcc.cli'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", check], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_library_and_cli_import_leave_out_scipy(tmp_path):
    # no module of the package imports scipy, so neither do the oracle's commands
    fcidump = str(DATA_DIR / "h2_r1p4.fcidump")
    text, csv = str(tmp_path / "h2.txt"), str(tmp_path / "scan.csv")
    check = (
        "import sys, qubitcc, qubitcc.oracle, qubitcc.cli; "
        "from qubitcc.cli import main; "
        f"main(['transform', {fcidump!r}, '-o', {text!r}], standalone_mode=False); "
        f"main(['exact', {text!r}, '--n-elec', '2'], standalone_mode=False); "
        f"main(['scan', {fcidump!r}, '--radii', '1.4', '--mu', '0.5', '-o', {csv!r}], "
        "standalone_mode=False); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = fresh_interpreter(check).splitlines()
    assert out[-1] == "[]"
    assert any(line.startswith("ground energy: ") for line in out)
    assert "E_exact" in Path(csv).read_text().splitlines()[0]


def test_ilcap_pre_leaves_out_scipy_optimize():
    fcidump = Path(__file__).parent / "data" / "h2_r1p4.fcidump"
    check = (
        "import sys; "
        "from qubitcc import RunConfig, hf_reference, jw_hamiltonian, load_fcidump, run_scheme; "
        f"data = load_fcidump({str(fcidump)!r}); "
        "run_scheme(jw_hamiltonian(data), hf_reference(data), RunConfig(scheme='ilcap-pre')); "
        "print('scipy.optimize' in sys.modules)"
    )
    assert fresh_interpreter(check) == "False"


def test_single_generator_iqcc_leaves_out_scipy_optimize(tmp_path):
    # the default --gens 1 takes every step in closed form
    fcidump = Path(__file__).parent / "data" / "h2_r1p4.fcidump"
    text = tmp_path / "h2.txt"
    check = (
        "import sys; "
        "from qubitcc.cli import main; "
        f"main(['transform', {str(fcidump)!r}, '-o', {str(text)!r}], standalone_mode=False); "
        f"main(['iqcc', {str(text)!r}, '--n-elec', '2'], standalone_mode=False); "
        "print('scipy.optimize' in sys.modules)"
    )
    assert fresh_interpreter(check).splitlines()[-1] == "False"


def test_two_generator_iqcc_leaves_out_scipy_optimize(tmp_path):
    # --gens 2 takes every step as an exact pair step; on H2 only one generator has a
    # nonzero gradient, so the golden random6 Hamiltonian is the input
    h = random_even_sum(random.Random(20240817), 6, 24)
    text = tmp_path / "random6.txt"
    text.write_text(h.to_text() + "\n", encoding="utf-8")
    ckdir = tmp_path / "ck"
    check = (
        "import sys; "
        "from qubitcc.cli import main; "
        f"main(['iqcc', {str(text)!r}, '--n-elec', '3', '--n-qubits', '6', '--gens', '2', "
        f"'--iterations', '2', '--checkpoint-dir', {str(ckdir)!r}], standalone_mode=False); "
        "print('scipy.optimize' in sys.modules)"
    )
    assert fresh_interpreter(check).splitlines()[-1] == "False"
    checkpoints = sorted(ckdir.iterdir())
    assert len(checkpoints) == 2
    for path in checkpoints:
        generators = next(line for line in path.read_text().splitlines()
                          if line.startswith("# generators: "))
        assert len(generators.split(" | ")) == 2


def test_ilcap_energies_are_the_ilcap_solutions():
    # the ILCAP cells are BW's uncorrected energy, the same float solve_ilcap
    # takes from the same matrix, bare (ilcap-pre) and after iQCC (ilcap-post)
    data = load_fcidump(str(DATA_DIR / "h4_r2p0.fcidump"))
    h, ref = jw_hamiltonian(data), hf_reference(data)

    def solved(op):
        acs = build_anticommuting_set(op.n, gradients(ising_decompose(op), ref).masks)
        return solve_ilcap(op, acs.generators, ref).energy.hex()

    pre = run_scheme(h, ref, RunConfig(scheme="ilcap-pre"))
    assert pre["E_ILCAP"].hex() == solved(h)
    post = run_scheme(h, ref, RunConfig(scheme="ilcap-post", generators_per_iteration=2, iterations=2))
    hd = run_iqcc(h, ref, generators_per_iteration=2, max_iterations=2).hamiltonian
    assert post["E_QCC(2)+ILCAP"].hex() == solved(hd)


@pytest.mark.parametrize("scheme", ["ilcap-pre", "ilcap-post"])
def test_ilcap_family_decomposes_each_hamiltonian_once(monkeypatch, scheme):
    # the family's cells are the public functions' energies, to the bit, from one
    # decomposition per Hamiltonian and one bracket table; ilcap-post's EN goes
    # through the public en_correct, which takes its own decomposition
    data = load_fcidump(str(DATA_DIR / "h4_r2p0.fcidump"))
    h, ref = jw_hamiltonian(data), hf_reference(data)
    cfg = RunConfig(scheme=scheme, generators_per_iteration=2, iterations=2)
    op = h if scheme == "ilcap-pre" else run_iqcc(h, ref, generators_per_iteration=2,
                                                  max_iterations=2).hamiltonian
    acs = build_anticommuting_set(op.n, gradients(ising_decompose(op), ref).masks)
    excluded = [m for m in ising_decompose(op).sectors if m not in {g.x for g in acs.generators}]
    bw = bw_correct(op, acs.generators, excluded, ref)
    sol = solve_ilcap(op, acs.generators, ref)
    dressed_en = en_correct(dress_with_combination(op, acs.generators, sol.t, sol.alphas), ref)
    en = en_correct(op, ref)

    seen = []
    for module in (pipeline, ilcap):
        real = module.ising_decompose

        def counted(ham, real=real):
            seen.append(ham)
            return real(ham)

        monkeypatch.setattr(module, "ising_decompose", counted)
    if scheme == "ilcap-pre":
        row = run_scheme(h, ref, cfg)
        assert [row["E_ILCAP"].hex(), row["E_ILCAP+BW"].hex(), row["E_ILCAP+EN"].hex()] == [
            bw.uncorrected_energy.hex(), bw.energy.hex(), dressed_en.energy.hex()]
        assert len(seen) == 2 and seen[0] is h  # h, then the dressed Hamiltonian
    else:
        row = run_scheme(h, ref, cfg)  # run_iqcc's own decompositions go through qcc
        assert [row["E_QCC(2)+EN"].hex(), row["E_QCC(2)+ILCAP+BW"].hex()] == [
            en.energy.hex(), bw.energy.hex()]
        assert seen == [op, op]  # en_correct's, then the family's
