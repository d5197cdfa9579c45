"""Command-line driver: transform, screen, solve, scan, fit.

Every command reads defaults from an INI config (section named after
the command, falling back to [run]) with explicit flags winning; keys
that name no option of the command are ignored.  Each solver starts
from a fixed vector, so a run repeats exactly.  The INI values reach
the options through Click's default_map, so they pass the same type
and choice checks as flags, and a config value satisfies a required
option; float options reject nan and inf, and tolerances must be >= 0.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import math
from concurrent.futures import ProcessPoolExecutor

import click

from . import oracle
from .acset import build_anticommuting_set
from .chemio import add_spin_penalty, hf_reference, jw_hamiltonian, load_fcidump
from .fci import fci_ground_energy
from .morse import fit_morse
from .pauli import PauliSum, PauliWord, ReferenceState
from .pipeline import SCHEMES, RunConfig, run_scheme
from .qcc import run_iqcc
from .screen import gradients, ising_decompose

__all__ = ["main"]

_RUN = RunConfig()


class _FiniteFloat(click.FloatRange):
    """A FloatRange that also rejects nan and inf, which FloatRange lets through."""

    def convert(self, value, param, ctx):
        result = super().convert(value, param, ctx)
        if not math.isfinite(result):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return result


_TOLERANCE = _FiniteFloat(min=0)


def _stacked(*decorators):
    """One decorator applying these in order, so their parameters list in this order."""
    def apply(command):
        for decorator in reversed(decorators):
            command = decorator(command)
        return command
    return apply


# The text Hamiltonian and its reference of screen, acset, iqcc and ilcap.
_hamiltonian_options = _stacked(
    click.argument("hamiltonian", type=click.Path(exists=True, dir_okay=False)),
    click.option("--n-elec", type=int, required=True, help="Occupied qubits in the reference."),
    click.option("--n-qubits", type=int, default=None, help="Override the inferred qubit count."),
)

# The RunConfig options of ilcap and scan; parameter names are the INI keys.
_run_options = _stacked(
    click.option("--max-generators", type=click.IntRange(min=0), default=_RUN.max_generators),
    click.option("--gens", type=click.IntRange(min=1), default=_RUN.generators_per_iteration),
    click.option("--iterations", type=click.IntRange(min=0), default=_RUN.iterations),
    click.option("--grad-tol", type=_TOLERANCE, default=_RUN.gradient_tol),
    click.option("--trunc-threshold", type=_TOLERANCE, default=_RUN.truncation_threshold),
)


def _run_config(scheme, max_generators, gens, iterations, grad_tol, trunc_threshold) -> RunConfig:
    return RunConfig(
        scheme=scheme,
        generators_per_iteration=gens,
        iterations=iterations,
        max_generators=max_generators,
        gradient_tol=grad_tol,
        truncation_threshold=trunc_threshold,
    )


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _load(path: str, n: int | None, n_elec: int | None):
    """The text Hamiltonian and, given n_elec, its reference; bad input is a usage error."""
    try:  # UnicodeDecodeError is a ValueError too
        with open(path, "r", encoding="utf-8") as fh:
            h = PauliSum.from_text(fh.read(), n)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'HAMILTONIAN'") from None
    try:
        return h, None if n_elec is None else ReferenceState(h.n, n_elec)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'--n-elec'") from None


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="INI config with per-command sections.")
@click.pass_context
def main(ctx: click.Context, config_path: str | None) -> None:
    """Anti-commuting generator sets and qubit coupled cluster, end to end."""
    parser = configparser.ConfigParser()
    try:
        if config_path is not None:
            parser.read(config_path)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise click.BadParameter(str(exc), param_hint="'--config'") from None
    ctx.default_map = {
        name: {**sections.get("run", {}), **sections.get(name, {})}
        for name in ctx.command.commands
    }


@main.command()
@click.argument("fcidump", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="Output text Hamiltonian (stdout when omitted).")
@click.option("--mu", type=_FiniteFloat(), default=0.0,
              help="Spin penalty weight, folded as mu/2 W.")
@click.option("--drop-threshold", type=_TOLERANCE, default=1e-12,
              help="Drop transformed terms below this magnitude (default 1e-12).")
def transform(fcidump, output, mu, drop_threshold):
    """Map an FCIDUMP to a qubit Hamiltonian in the text word format."""
    try:
        data = load_fcidump(fcidump)
        h = jw_hamiltonian(data, drop_threshold=drop_threshold)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="'FCIDUMP'") from None
    if mu:
        h = add_spin_penalty(h, data.n_orb, mu)
    header = (
        f"# qubits: {h.n}\n"
        f"# electrons: {data.n_elec}\n"
        f"# terms: {len(h)}\n"
    )
    text = header + h.to_text() + "\n"
    if output is None:
        click.echo(text, nl=False)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        click.echo(f"wrote {len(h)} terms on {h.n} qubits to {output}")


@main.command()
@_hamiltonian_options
@click.option("--top", type=click.IntRange(min=0), default=0,
              help="Show only the strongest sectors (0 shows all).")
def screen(hamiltonian, n_elec, n_qubits, top):
    """Rank the X sectors of a Hamiltonian by reference gradient."""
    h, ref = _load(hamiltonian, n_qubits, n_elec)
    ranked = gradients(ising_decompose(h), ref)
    rows = list(zip(ranked.masks, ranked.weights))
    if top:
        rows = rows[:top]
    click.echo(f"{'rank':>4}  {'gradient':>18}  x-word")
    for rank, (mask, weight) in enumerate(rows, start=1):
        word = PauliWord(h.n, mask, 0).to_text()
        click.echo(f"{rank:>4}  {_fmt(weight):>18}  {word}")


@main.command("acset")
@_hamiltonian_options
@click.option("--max-generators", type=click.IntRange(min=0), default=None,
              help="Keep only the first M generators.")
@click.option("--drop-zero/--keep-zero", default=False,
              help="Drop zero-gradient X words before building the set.")
def acset_cmd(hamiltonian, n_elec, n_qubits, max_generators, drop_zero):
    """Build the anti-commuting generator set from ranked X words."""
    h, ref = _load(hamiltonian, n_qubits, n_elec)
    ranked = gradients(ising_decompose(h), ref, drop_zero=drop_zero)
    acs = build_anticommuting_set(h.n, ranked.masks, max_generators)
    click.echo(f"{len(acs)} generators from {len(ranked)} ranked X words on {h.n} qubits")
    for gen, col, kind in zip(acs.generators, acs.source_columns, acs.kinds):
        click.echo(f"{kind:>9}  rank {col + 1:>3}  {gen.to_text()}")


@main.command()
@_hamiltonian_options
@click.option("--gens", type=click.IntRange(min=1), default=1,
              help="Generators optimized jointly per iteration (default 1).")
@click.option("--iterations", type=click.IntRange(min=0), default=10,
              help="Outer-loop cap (default 10).")
@click.option("--grad-tol", type=_TOLERANCE, default=1e-7)
@click.option("--trunc-threshold", type=_TOLERANCE, default=1e-8)
@click.option("--checkpoint-dir", type=click.Path(file_okay=False), default=None)
def iqcc(hamiltonian, n_elec, n_qubits, gens, iterations, grad_tol, trunc_threshold,
         checkpoint_dir):
    """Run the iterative solver and report the energy trajectory."""
    h, ref = _load(hamiltonian, n_qubits, n_elec)
    state = run_iqcc(
        h, ref,
        generators_per_iteration=gens,
        max_iterations=iterations,
        gradient_tol=grad_tol,
        truncation_threshold=trunc_threshold,
        checkpoint_dir=checkpoint_dir,
    )
    click.echo(f"{'iter':>4}  {'energy':>18}  {'top gradient':>14}  terms")
    click.echo(f"{0:>4}  {_fmt(state.energy_history[0]):>18}  {'':>14}  {len(h)}")
    for rec in state.records:
        click.echo(
            f"{rec.iteration:>4}  {_fmt(rec.energy):>18}  "
            f"{rec.top_gradient:>14.6e}  {rec.n_terms}"
        )
    click.echo(f"converged: {'yes' if state.converged else 'no'}")
    click.echo(f"energy: {_fmt(state.energy)}")


@main.command("ilcap")
@_hamiltonian_options
@click.option("--scheme", type=click.Choice([s for s in SCHEMES if s.startswith("ilcap")]),
              default=_RUN.scheme)
@_run_options
def ilcap_cmd(hamiltonian, n_elec, n_qubits, **run_options):
    """Single-point combination-ansatz estimators with corrections."""
    h, ref = _load(hamiltonian, n_qubits, n_elec)
    for label, value in run_scheme(h, ref, _run_config(**run_options)).items():
        click.echo(f"{label:<24} {_fmt(value)}")


def _scan_point(payload: tuple) -> tuple[int, dict[str, float] | None, list[str]]:
    """One scan coordinate; returns (index, row or None, warning messages).

    E_exact comes from the direct CI on the integrals.  With a spin
    penalty it comes from the Pauli-sector oracle instead, as W = S^2 - S_z
    is not spin free: no single S_z block holds the sector's minimum.
    The estimators and the exact solve fail independently: either one's
    cells still come through when the other raises, and a solver's
    refusal (a size cap) is the point's E_exact warning.
    """
    index, path, mu, cfg = payload
    try:
        data = load_fcidump(path)
        h = jw_hamiltonian(data)
        if mu:
            h = add_spin_penalty(h, data.n_orb, mu)
        ref = hf_reference(data)
    except Exception as exc:  # noqa: BLE001 - a bad point must not sink the scan
        return index, None, [f"{path}: {exc}"]
    row: dict[str, float] = {}
    messages = []
    try:
        row.update(run_scheme(h, ref, cfg))
    except Exception as exc:  # noqa: BLE001
        messages.append(f"{path}: {exc}")
    try:
        if not mu:
            row["E_exact"] = fci_ground_energy(data)
        else:
            row["E_exact"] = oracle.ground_energy(h, n_elec=data.n_elec)
    except Exception as exc:  # noqa: BLE001
        messages.append(f"{path}: E_exact: {exc}")
    return index, row or None, messages


@main.command()
@click.argument("fcidumps", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--radii", required=True,
              help="Comma-separated bond lengths, one per FCIDUMP, in bohr.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True)
@click.option("--scheme", type=click.Choice(SCHEMES), default=_RUN.scheme)
@click.option("--mu", type=_FiniteFloat(), default=0.0, help="Spin penalty weight.")
@_run_options
@click.option("--workers", type=click.IntRange(min=1), default=1,
              help="Parallel scan workers (default 1).")
def scan(fcidumps, radii, output, mu, workers, **run_options):
    """Run an estimator family over a bond scan and write a CSV."""
    r_values = []
    for tok in filter(str.strip, radii.split(",")):
        try:
            value = float(tok)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise click.UsageError(
                f"--radii must be a comma-separated list of finite numbers, got {tok.strip()!r}"
            )
        r_values.append(value)
    if len(r_values) != len(fcidumps):
        raise click.UsageError(
            f"{len(fcidumps)} FCIDUMP files but {len(r_values)} radii"
        )
    cfg = _run_config(**run_options)

    order = sorted(range(len(r_values)), key=lambda i: r_values[i])
    payloads = [(i, fcidumps[i], mu, cfg) for i in order]
    results: dict[int, dict[str, float] | None] = {}
    with contextlib.ExitStack() as stack:
        mapper = map
        if workers > 1:
            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        for index, row, messages in mapper(_scan_point, payloads):
            for message in messages:
                click.echo(f"warning: {message}", err=True)
            results[index] = row

    columns: list[str] = []
    for i in order:
        row = results.get(i)
        if row:
            for key in row:
                if key not in columns:
                    columns.append(key)
    columns.sort(key=lambda key: key == "E_exact")  # stable: E_exact last
    with open(output, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r"] + columns)
        for i in order:
            row = results.get(i)
            cells = [_fmt(r_values[i])]
            cells += ["" if not row or key not in row else _fmt(row[key]) for key in columns]
            writer.writerow(cells)
    click.echo(f"wrote {len(order)} rows to {output}")


@main.command("fit-morse")
@click.argument("scan_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--column", default="E_exact", help="Energy column to fit (default E_exact).")
@click.option("--mu-amu", type=_FiniteFloat(min=0, min_open=True), required=True,
              help="Reduced mass in amu.")
def fit_morse_cmd(scan_csv, column, mu_amu):
    """Fit a Morse well to a scan CSV column and report constants."""
    with open(scan_csv, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for name in ("r", column):
            if reader.fieldnames is None or name not in reader.fieldnames:
                raise click.UsageError(f"column {name!r} not present in {scan_csv}")
        r, e = [], []
        try:  # too few points, repeated radii, or a cell that is not a number
            for record in reader:
                if record[column]:
                    r.append(float(record["r"]))
                    e.append(float(record[column]))
            fit = fit_morse(r, e, mu_amu)
        except (TypeError, ValueError) as exc:
            raise click.BadParameter(f"{scan_csv}: {exc}", param_hint="'SCAN_CSV'") from None
        except RuntimeError as exc:  # the fit did not converge to a physical well
            raise click.ClickException(f"{scan_csv}: {exc}") from None
    click.echo(f"D_e (hartree):        {_fmt(fit.d_e)}")
    click.echo(f"a (1/bohr):           {_fmt(fit.a)}")
    click.echo(f"r_e (bohr):           {_fmt(fit.r_e)}")
    click.echo(f"E_min (hartree):      {_fmt(fit.e_min)}")
    click.echo(f"omega_e (cm^-1):      {_fmt(fit.omega_e)}")
    click.echo(f"omega_e x_e (cm^-1):  {_fmt(fit.omega_e_x_e)}")
    click.echo(f"residual rms:         {_fmt(fit.residual_rms)}")


@main.command()
@click.argument("hamiltonian", type=click.Path(exists=True, dir_okay=False))
@click.option("--n-elec", type=int, default=None,
              help="Solve this electron-count sector (whole space when omitted, "
                   "up to 14 qubits).")
@click.option("--n-qubits", type=int, default=None)
def exact(hamiltonian, n_elec, n_qubits):
    """Oracle ground-state energy of a text Hamiltonian."""
    h, ref = _load(hamiltonian, n_qubits, n_elec)
    try:
        energy = oracle.ground_energy(h, n_elec=n_elec)
    except ValueError as exc:  # a size cap, or h does not conserve n_elec
        raise click.BadParameter(str(exc), param_hint="'HAMILTONIAN'") from None
    click.echo(f"ground energy: {_fmt(energy)}")
    if ref is not None:
        click.echo(f"reference energy: {_fmt(ref.expectation(h))}")


if __name__ == "__main__":
    main()
