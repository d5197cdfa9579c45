"""Command-line driver: transform, screen, solve, scan, fit.

Every command reads defaults from an INI config (section named after
the command, falling back to [run]) with explicit flags winning, and
takes a seed so optimizer randomness is reproducible.
"""

from __future__ import annotations

import configparser
import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import click

from . import oracle
from .acset import build_anticommuting_set
from .chemio import add_spin_penalty, hf_reference, jw_hamiltonian, load_fcidump
from .ilcap import bw_correct, dress_with_combination, en_correct, solve_ilcap
from .morse import fit_morse
from .pauli import PauliSum, PauliWord, ReferenceState
from .qcc import run_iqcc
from .screen import gradients, ising_decompose

__all__ = ["RunConfig", "run_scheme", "main"]

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
    seed: int = 0


def _ilcap_family(h: PauliSum, ref: ReferenceState, cfg: RunConfig, prefix: str,
                  with_en: bool = True) -> dict[str, float]:
    """E_prefix, +BW, and optionally +EN for the combination ansatz on h."""
    dec = ising_decompose(h)
    ranked = gradients(dec, ref)
    acs = build_anticommuting_set(h.n, list(ranked.masks), cfg.max_generators)
    sol = solve_ilcap(h, acs.generators, ref)
    used = {g.x for g in acs.generators}
    excluded = [m for m in dec.sectors if m not in used]
    bw = bw_correct(h, acs.generators, excluded, ref)
    out = {prefix: sol.energy, f"{prefix}+BW": bw.energy}
    if with_en:
        dressed = dress_with_combination(h, acs.generators, sol.t, sol.alphas)
        out[f"{prefix}+EN"] = en_correct(dressed, ref).energy
    return out


def run_scheme(h: PauliSum, ref: ReferenceState, cfg: RunConfig) -> dict[str, float]:
    """Estimator labels to energies for one Hamiltonian.

    scheme 'iqcc' runs the plain iterative solver; 'ilcap-pre' applies
    the combination ansatz and its corrections to the bare Hamiltonian;
    'ilcap-post' runs the iterative solver first and applies the
    corrections to the dressed Hamiltonian it leaves behind.
    """
    if cfg.scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {cfg.scheme!r}; pick one of {SCHEMES}")
    if cfg.scheme == "ilcap-pre":
        return _ilcap_family(h, ref, cfg, "E_ILCAP")
    state = run_iqcc(
        h,
        ref,
        generators_per_iteration=cfg.generators_per_iteration,
        max_iterations=cfg.iterations,
        gradient_tol=cfg.gradient_tol,
        truncation_threshold=cfg.truncation_threshold,
        seed=cfg.seed,
    )
    label = f"E_QCC({cfg.iterations})"
    if cfg.scheme == "iqcc":
        return {label: state.energy}
    hd = state.hamiltonian
    en = en_correct(hd, ref)
    family = _ilcap_family(hd, ref, cfg, f"{label}+ILCAP", with_en=False)
    return {label: state.energy, f"{label}+EN": en.energy, **family}


# -- config plumbing ------------------------------------------------------

def _resolve(cfg: configparser.ConfigParser, command: str, key: str, flag, cast, default):
    if flag is not None:
        return flag
    for section in (command, "run"):
        if cfg.has_option(section, key):
            raw = cfg.get(section, key)
            if cast is bool:
                return raw.strip().lower() in {"1", "true", "yes", "on"}
            return cast(raw)
    return default


def _run_config(obj, command: str, scheme, gens_per_iter, iterations, max_generators,
                grad_tol, trunc_threshold, seed) -> RunConfig:
    """RunConfig from flags, falling back to the command's INI section, then [run]."""
    return RunConfig(
        scheme=_resolve(obj, command, "scheme", scheme, str, "ilcap-pre"),
        generators_per_iteration=_resolve(obj, command, "gens", gens_per_iter, int, 1),
        iterations=_resolve(obj, command, "iterations", iterations, int, 1),
        max_generators=_resolve(obj, command, "max_generators", max_generators, int, None),
        gradient_tol=_resolve(obj, command, "grad_tol", grad_tol, float, 1e-7),
        truncation_threshold=_resolve(obj, command, "trunc_threshold", trunc_threshold,
                                      float, 1e-8),
        seed=_resolve(obj, command, "seed", seed, int, 0),
    )


def _require(value, name: str):
    if value is None:
        raise click.UsageError(f"{name} is required (flag or config)")
    return value


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _load_hamiltonian(path: str, n: int | None) -> PauliSum:
    with open(path, "r", encoding="utf-8") as fh:
        return PauliSum.from_text(fh.read(), n)


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="INI config with per-command sections.")
@click.pass_context
def main(ctx: click.Context, config_path: str | None) -> None:
    """Anti-commuting generator sets and qubit coupled cluster, end to end."""
    parser = configparser.ConfigParser()
    if config_path is not None:
        parser.read(config_path)
    ctx.obj = parser


@main.command()
@click.argument("fcidump", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="Output text Hamiltonian (stdout when omitted).")
@click.option("--mu", type=float, default=None, help="Spin penalty weight, folded as mu/2 W.")
@click.option("--drop-threshold", type=float, default=None,
              help="Drop transformed terms below this magnitude (default 1e-12).")
@click.pass_context
def transform(ctx, fcidump, output, mu, drop_threshold):
    """Map an FCIDUMP to a qubit Hamiltonian in the text word format."""
    mu = _resolve(ctx.obj, "transform", "mu", mu, float, 0.0)
    drop = _resolve(ctx.obj, "transform", "drop_threshold", drop_threshold, float, 1e-12)
    data = load_fcidump(fcidump)
    h = jw_hamiltonian(data, drop_threshold=drop)
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
@click.argument("hamiltonian", type=click.Path(exists=True, dir_okay=False))
@click.option("--n-elec", type=int, default=None, help="Occupied qubits in the reference.")
@click.option("--n-qubits", type=int, default=None, help="Override the inferred qubit count.")
@click.option("--top", type=int, default=None, help="Show only the strongest sectors.")
@click.pass_context
def screen(ctx, hamiltonian, n_elec, n_qubits, top):
    """Rank the X sectors of a Hamiltonian by reference gradient."""
    n_elec = _require(_resolve(ctx.obj, "screen", "n_elec", n_elec, int, None), "--n-elec")
    top = _resolve(ctx.obj, "screen", "top", top, int, 0)
    h = _load_hamiltonian(hamiltonian, n_qubits)
    ref = ReferenceState(h.n, n_elec)
    ranked = gradients(ising_decompose(h), ref)
    rows = list(zip(ranked.masks, ranked.weights))
    if top:
        rows = rows[:top]
    click.echo(f"{'rank':>4}  {'gradient':>18}  x-word")
    for rank, (mask, weight) in enumerate(rows, start=1):
        word = PauliWord(h.n, mask, 0).to_text()
        click.echo(f"{rank:>4}  {_fmt(weight):>18}  {word}")


@main.command("acset")
@click.argument("hamiltonian", type=click.Path(exists=True, dir_okay=False))
@click.option("--n-elec", type=int, default=None)
@click.option("--n-qubits", type=int, default=None)
@click.option("--max-generators", type=int, default=None, help="Keep only the first M generators.")
@click.option("--drop-zero/--keep-zero", default=False,
              help="Drop zero-gradient X words before building the set.")
@click.pass_context
def acset_cmd(ctx, hamiltonian, n_elec, n_qubits, max_generators, drop_zero):
    """Build the anti-commuting generator set from ranked X words."""
    n_elec = _require(_resolve(ctx.obj, "acset", "n_elec", n_elec, int, None), "--n-elec")
    max_generators = _resolve(ctx.obj, "acset", "max_generators", max_generators, int, None)
    h = _load_hamiltonian(hamiltonian, n_qubits)
    ref = ReferenceState(h.n, n_elec)
    ranked = gradients(ising_decompose(h), ref, drop_zero=drop_zero)
    acs = build_anticommuting_set(h.n, list(ranked.masks), max_generators)
    click.echo(f"{len(acs)} generators from {len(ranked)} ranked X words on {h.n} qubits")
    for gen, col, kind in zip(acs.generators, acs.source_columns, acs.kinds):
        click.echo(f"{kind:>9}  rank {col + 1:>3}  {gen.to_text()}")


@main.command()
@click.argument("hamiltonian", type=click.Path(exists=True, dir_okay=False))
@click.option("--n-elec", type=int, default=None)
@click.option("--n-qubits", type=int, default=None)
@click.option("--gens", "gens_per_iter", type=int, default=None,
              help="Generators optimized jointly per iteration (default 1).")
@click.option("--iterations", type=int, default=None, help="Outer-loop cap (default 10).")
@click.option("--grad-tol", type=float, default=None)
@click.option("--trunc-threshold", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--checkpoint-dir", type=click.Path(file_okay=False), default=None)
@click.pass_context
def iqcc(ctx, hamiltonian, n_elec, n_qubits, gens_per_iter, iterations, grad_tol,
         trunc_threshold, seed, checkpoint_dir):
    """Run the iterative solver and report the energy trajectory."""
    obj = ctx.obj
    n_elec = _require(_resolve(obj, "iqcc", "n_elec", n_elec, int, None), "--n-elec")
    gens_per_iter = _resolve(obj, "iqcc", "gens", gens_per_iter, int, 1)
    iterations = _resolve(obj, "iqcc", "iterations", iterations, int, 10)
    grad_tol = _resolve(obj, "iqcc", "grad_tol", grad_tol, float, 1e-7)
    trunc = _resolve(obj, "iqcc", "trunc_threshold", trunc_threshold, float, 1e-8)
    seed = _resolve(obj, "iqcc", "seed", seed, int, 0)
    h = _load_hamiltonian(hamiltonian, n_qubits)
    ref = ReferenceState(h.n, n_elec)
    state = run_iqcc(
        h, ref,
        generators_per_iteration=gens_per_iter,
        max_iterations=iterations,
        gradient_tol=grad_tol,
        truncation_threshold=trunc,
        seed=seed,
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
@click.argument("hamiltonian", type=click.Path(exists=True, dir_okay=False))
@click.option("--n-elec", type=int, default=None)
@click.option("--n-qubits", type=int, default=None)
@click.option("--scheme", type=click.Choice(["ilcap-pre", "ilcap-post"]), default=None)
@click.option("--max-generators", type=int, default=None)
@click.option("--gens", "gens_per_iter", type=int, default=None)
@click.option("--iterations", type=int, default=None)
@click.option("--grad-tol", type=float, default=None)
@click.option("--trunc-threshold", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.pass_context
def ilcap_cmd(ctx, hamiltonian, n_elec, n_qubits, scheme, max_generators, gens_per_iter,
              iterations, grad_tol, trunc_threshold, seed):
    """Single-point combination-ansatz estimators with corrections."""
    obj = ctx.obj
    n_elec = _require(_resolve(obj, "ilcap", "n_elec", n_elec, int, None), "--n-elec")
    cfg = _run_config(obj, "ilcap", scheme, gens_per_iter, iterations, max_generators,
                      grad_tol, trunc_threshold, seed)
    h = _load_hamiltonian(hamiltonian, n_qubits)
    ref = ReferenceState(h.n, n_elec)
    for label, value in run_scheme(h, ref, cfg).items():
        click.echo(f"{label:<24} {_fmt(value)}")


def _scan_point(payload: tuple) -> tuple[int, dict[str, float] | None, str]:
    """One scan coordinate; returns (index, estimator row or None, message)."""
    index, path, mu, cfg = payload
    try:
        data = load_fcidump(path)
        h = jw_hamiltonian(data)
        if mu:
            h = add_spin_penalty(h, data.n_orb, mu)
        ref = hf_reference(data)
        row = run_scheme(h, ref, cfg)
        if h.n <= oracle.APPLY_QUBIT_CAP:
            row["E_exact"] = oracle.ground_energy(h)
        return index, row, ""
    except Exception as exc:  # noqa: BLE001 - a bad point must not sink the scan
        return index, None, f"{path}: {exc}"


@main.command()
@click.argument("fcidumps", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--radii", required=True,
              help="Comma-separated bond lengths, one per FCIDUMP, in bohr.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True)
@click.option("--scheme", type=click.Choice(list(SCHEMES)), default=None)
@click.option("--mu", type=float, default=None, help="Spin penalty weight.")
@click.option("--max-generators", type=int, default=None)
@click.option("--gens", "gens_per_iter", type=int, default=None)
@click.option("--iterations", type=int, default=None)
@click.option("--grad-tol", type=float, default=None)
@click.option("--trunc-threshold", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--workers", type=int, default=None, help="Parallel scan workers (default 1).")
@click.pass_context
def scan(ctx, fcidumps, radii, output, scheme, mu, max_generators, gens_per_iter,
         iterations, grad_tol, trunc_threshold, seed, workers):
    """Run an estimator family over a bond scan and write a CSV."""
    obj = ctx.obj
    try:
        r_values = [float(tok) for tok in radii.split(",") if tok.strip()]
    except ValueError:
        raise click.UsageError("--radii must be a comma-separated list of numbers")
    if len(r_values) != len(fcidumps):
        raise click.UsageError(
            f"{len(fcidumps)} FCIDUMP files but {len(r_values)} radii"
        )
    mu = _resolve(obj, "scan", "mu", mu, float, 0.0)
    workers = _resolve(obj, "scan", "workers", workers, int, 1)
    cfg = _run_config(obj, "scan", scheme, gens_per_iter, iterations, max_generators,
                      grad_tol, trunc_threshold, seed)
    if cfg.scheme not in SCHEMES:
        raise click.UsageError(f"unknown scheme {cfg.scheme!r}")

    order = sorted(range(len(r_values)), key=lambda i: r_values[i])
    payloads = [(i, fcidumps[i], mu, cfg) for i in order]
    results: dict[int, dict[str, float] | None] = {}
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for index, row, message in pool.map(_scan_point, payloads):
                if message:
                    click.echo(f"warning: {message}", err=True)
                results[index] = row
    else:
        for payload in payloads:
            index, row, message = _scan_point(payload)
            if message:
                click.echo(f"warning: {message}", err=True)
            results[index] = row

    columns: list[str] = []
    for i in order:
        row = results.get(i)
        if row:
            for key in row:
                if key not in columns:
                    columns.append(key)
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
@click.option("--column", default=None, help="Energy column to fit (default E_exact).")
@click.option("--mu-amu", type=float, default=None, help="Reduced mass in amu.")
@click.pass_context
def fit_morse_cmd(ctx, scan_csv, column, mu_amu):
    """Fit a Morse well to a scan CSV column and report constants."""
    column = _resolve(ctx.obj, "fit-morse", "column", column, str, "E_exact")
    mu_amu = _require(_resolve(ctx.obj, "fit-morse", "mu_amu", mu_amu, float, None), "--mu-amu")
    with open(scan_csv, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or column not in reader.fieldnames:
            raise click.UsageError(f"column {column!r} not present in {scan_csv}")
        r, e = [], []
        for record in reader:
            if record[column]:
                r.append(float(record["r"]))
                e.append(float(record[column]))
    fit = fit_morse(r, e, mu_amu)
    click.echo(f"D_e (hartree):        {_fmt(fit.d_e)}")
    click.echo(f"a (1/bohr):           {_fmt(fit.a)}")
    click.echo(f"r_e (bohr):           {_fmt(fit.r_e)}")
    click.echo(f"E_min (hartree):      {_fmt(fit.e_min)}")
    click.echo(f"omega_e (cm^-1):      {_fmt(fit.omega_e)}")
    click.echo(f"omega_e x_e (cm^-1):  {_fmt(fit.omega_e_x_e)}")
    click.echo(f"residual rms:         {_fmt(fit.residual_rms)}")


@main.command()
@click.argument("hamiltonian", type=click.Path(exists=True, dir_okay=False))
@click.option("--n-elec", type=int, default=None)
@click.option("--n-qubits", type=int, default=None)
@click.pass_context
def exact(ctx, hamiltonian, n_elec, n_qubits):
    """Oracle ground-state energy of a text Hamiltonian."""
    h = _load_hamiltonian(hamiltonian, n_qubits)
    energy = oracle.ground_energy(h)
    click.echo(f"ground energy: {_fmt(energy)}")
    n_elec = _resolve(ctx.obj, "exact", "n_elec", n_elec, int, None)
    if n_elec is not None:
        ref = ReferenceState(h.n, n_elec)
        click.echo(f"reference energy: {_fmt(ref.expectation(h))}")


if __name__ == "__main__":
    main()
