"""The benchmark's workloads: their inputs, the timed user path, checks.

Each workload writes H_n-chain FCIDUMPs (``make`` says how the bond
lengths are chosen), drives the real entry points on them
(``qubitcc.cli.main`` for ``scan`` and ``fit-morse``,
``qubitcc.run_scheme`` for single points), and checks every energy
against the sector energy computed in ``exact``.  A missing, blank or
non-finite value, an exception, or a violated bound counts as one
failed operation; nothing is retried.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import exact
import hchain

ROOT = hchain.ROOT
WARMUP_FCIDUMP = ROOT / "tests" / "data" / "h2_r1p4.fcidump"
EXACT_TOL = 1e-8  # |E_exact - sector energy|, Eh
VARIATIONAL_SLACK = 1e-6  # how far below exact a variational energy may land, Eh
MU_AMU = 0.503913  # the README's fit-morse mass; only differences of omega_e are reported
_VARIATIONAL = re.compile(r"^E_QCC\(\d+\)$|^E_ILCAP$|\+ILCAP$")
_OMEGA = re.compile(r"^omega_e \(cm\^-1\):\s+(\S+)", re.MULTILINE)


@dataclass
class Point:
    """One generated geometry and its reference numbers."""

    index: int
    path: Path
    chain: hchain.Chain
    e_sector: float = math.nan  # exact, N = n_elec and S_z = 0
    e_ref: float = math.nan  # reference determinant energy from the terms


@dataclass
class Outcome:
    """What one timed repeat produced, before checking."""

    values: dict[tuple[int, str], float | None] = field(default_factory=dict)
    omega: dict[str, float | None] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)  # program warnings and errors


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    err_mEh: float = math.nan
    omega_e_err_cm: float | None = None


class NullTrace:
    """Stand-in for a Tracer in untraced repeats: no spans, no wrappers."""

    point = None

    @contextlib.contextmanager
    def span(self, name):
        yield None


def _number(cell) -> float | None:
    """A CSV cell or parsed field as a float; None when blank or not a number."""
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _cli(args: list[str]) -> tuple[str, str]:
    """Run the console entry point in-process; return (stdout, stderr)."""
    from qubitcc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cli.main(args, standalone_mode=False)
    return out.getvalue(), err.getvalue()


@dataclass
class Workload:
    """A chain size, its bond lengths, and the estimator family run on it.

    scan=True drives ``qubitcc scan`` over every point (with E_exact from
    the program's oracle) and fits Morse curves to E_exact and to the
    headline column; otherwise each point goes through ``run_scheme``.
    """

    name: str
    n_atoms: int
    radii: list[float]
    scheme: str
    gens: int
    iterations: int
    labels: tuple[str, ...]
    headline: str
    scan: bool = False
    points: list[Point] = field(default_factory=list)

    # -- set-up (counted in setup_s) -------------------------------------

    def prepare(self, workdir: Path) -> None:
        """Write one FCIDUMP per bond length; the SCF check raises on failure."""
        self.points = []
        for i, r in enumerate(sorted(self.radii)):
            path = workdir / f"h{self.n_atoms}_{i:02d}.fcidump"
            chain = hchain.write_chain_fcidump(path, self.n_atoms, r)
            self.points.append(Point(i, path, chain))

    def warm_up(self, workdir: Path) -> None:
        """One pass of the H2 fixture through the same path as the timed body."""
        if self.scan:
            _cli(self._scan_args([WARMUP_FCIDUMP], [1.4], workdir / "warmup.csv"))
        else:
            self._run_point(WARMUP_FCIDUMP)

    # -- reference numbers (outside every timed window) -------------------

    def reference(self) -> None:
        """Sector energies and reference energies straight from the term masks."""
        import qubitcc

        for p in self.points:
            data = qubitcc.load_fcidump(str(p.path))
            h = qubitcc.jw_hamiltonian(data)
            terms = [(w.x, w.z, c) for w, c in h.items()]
            p.e_sector = exact.sector_ground_energy(terms, h.n, data.n_elec)
            p.e_ref = exact.reference_energy(terms, data.n_elec)

    # -- the timed body ---------------------------------------------------

    def _config(self):
        import qubitcc

        return qubitcc.RunConfig(
            scheme=self.scheme,
            generators_per_iteration=self.gens,
            iterations=self.iterations,
        )

    def _scan_args(self, paths, radii, out_csv: Path) -> list[str]:
        return [
            "scan", *map(str, paths),
            "--radii", ",".join(repr(r) for r in radii),
            "-o", str(out_csv),
            "--scheme", self.scheme,
            "--gens", str(self.gens),
            "--iterations", str(self.iterations),
            "--workers", "1",
        ]

    def _run_point(self, path: Path) -> dict[str, float]:
        import qubitcc

        data = qubitcc.load_fcidump(str(path))
        h = qubitcc.jw_hamiltonian(data)
        return qubitcc.run_scheme(h, qubitcc.hf_reference(data), self._config())

    def body(self, workdir: Path, trace=NullTrace()) -> Outcome:
        """The user path whose wall time is run_s."""
        outcome = Outcome()
        if not self.scan:
            for p in self.points:
                try:
                    row = self._run_point(p.path)
                except Exception as exc:  # noqa: BLE001 - a failed point is counted, not fatal
                    outcome.messages.append(f"point {p.index}: {type(exc).__name__}: {exc}")
                    row = {}
                for label in self.labels:
                    outcome.values[(p.index, label)] = row.get(label)
            return outcome

        out_csv = workdir / "scan.csv"
        out_csv.unlink(missing_ok=True)
        try:
            with trace.span("cli.scan"):
                _, err = _cli(self._scan_args([p.path for p in self.points],
                                              [p.chain.r for p in self.points], out_csv))
            outcome.messages += [line for line in err.splitlines() if line.strip()]
        except Exception as exc:  # noqa: BLE001
            outcome.messages.append(f"scan: {type(exc).__name__}: {exc}")
        trace.point = None
        for p, row in zip(self.points, self._scan_rows(out_csv, outcome)):
            for label in self.labels:
                outcome.values[(p.index, label)] = _number(row.get(label))
        for column in ("E_exact", self.headline):
            outcome.omega[column] = None
            try:
                with trace.span("cli.fit_morse"):
                    out, _ = _cli(["fit-morse", str(out_csv), "--column", column,
                                   "--mu-amu", str(MU_AMU)])
                match = _OMEGA.search(out)
                outcome.omega[column] = _number(match.group(1)) if match else None
            except Exception as exc:  # noqa: BLE001
                outcome.messages.append(f"fit-morse {column}: {type(exc).__name__}: {exc}")
        return outcome

    def _scan_rows(self, out_csv: Path, outcome: Outcome) -> list[dict]:
        """One CSV row per point, in point order; an empty row where none fits."""
        try:
            with open(out_csv, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            outcome.messages.append(f"scan CSV unreadable: {exc}")
            rows = []
        if len(rows) != len(self.points):
            outcome.messages.append(f"scan CSV has {len(rows)} rows for {len(self.points)} points")
            return [{}] * len(self.points)
        for i, (p, row) in enumerate(zip(self.points, rows)):
            r = _number(row.get("r"))
            if r is None or not math.isclose(r, p.chain.r, abs_tol=1e-9):
                outcome.messages.append(f"scan row {i} has r = {row.get('r')}, expected {p.chain.r}")
                rows[i] = {}
        return rows

    # -- checks -------------------------------------------------------------

    def _problem(self, p: Point, label: str, value: float | None) -> str | None:
        if value is None:
            return "missing"
        if not math.isfinite(value):
            return f"not finite ({value})"
        if label == "E_exact" and abs(value - p.e_sector) > EXACT_TOL:
            return f"differs from the sector energy {p.e_sector!r} by {value - p.e_sector:.3e}"
        if _VARIATIONAL.search(label):
            if value < p.e_sector - VARIATIONAL_SLACK:
                return f"{value!r} lies below the exact {p.e_sector!r}"
            if value > p.e_ref:
                return f"{value!r} lies above the reference {p.e_ref!r}"
        return None

    def check(self, outcome: Outcome, first: Outcome | None = None) -> Check:
        """Count operations and failures; first is the run's first repeat."""
        result = Check()
        errors = []
        for p in self.points:
            for label in self.labels:
                value = outcome.values.get((p.index, label))
                problem = self._problem(p, label, value)
                if problem is None and first is not None and value != first.values.get((p.index, label)):
                    problem = "differs from the first repeat"
                result.attempted += 1
                if problem is not None:
                    result.failed += 1
                    result.reasons.append(f"point {p.index} (r = {p.chain.r}) {label}: {problem}")
                elif label == self.headline:
                    errors.append(abs(value - p.e_sector) * 1e3)
        for column, omega in outcome.omega.items():
            result.attempted += 1
            problem = None
            if omega is None or not math.isfinite(omega):
                problem = "no omega_e"
            elif first is not None and omega != first.omega.get(column):
                problem = "differs from the first repeat"
            if problem is not None:
                result.failed += 1
                result.reasons.append(f"fit-morse {column}: {problem}")
        if errors:
            result.err_mEh = max(errors)
        if self.scan and result.failed == 0:
            result.omega_e_err_cm = abs(outcome.omega[self.headline] - outcome.omega["E_exact"])
        return result


# Bond lengths, in bohr.  The program's work jumps with the last bits of
# the geometry: a BFGS amplitude optimization that ends in precision
# loss costs about four times the usual energy+gradient calls (about
# one H4 point in five, at random), and whether the symmetry-forbidden
# combination weights of H8 come out as exact zeros or as ~1e-17
# changes its dressing from 154k to 396k terms.  Seeded geometries
# would make run_s differ between seeds by up to 2.6x for those reasons
# alone, so the scan sits at the twelve cell centres and H8 at 1.8; only
# H6 is seeded, inside a window where its optimizer makes 43 calls.
H4_SCAN = (1.2, 3.4, 12)
H6_WINDOW = (1.803, 1.807)
H8_R = 1.8


def make(name: str, seed: int) -> Workload:
    """The named workload; the seed draws the H6 bond length."""
    if name == "h4-scan":
        lo, hi, cells = H4_SCAN
        width = (hi - lo) / cells
        radii = [round(lo + (i + 0.5) * width, 6) for i in range(cells)]
        return Workload(
            name, 4, radii, "ilcap-post", 2, 2,
            ("E_QCC(2)", "E_QCC(2)+EN", "E_QCC(2)+ILCAP", "E_QCC(2)+ILCAP+BW", "E_exact"),
            "E_QCC(2)+ILCAP+BW", scan=True,
        )
    if name == "h6-iqcc":
        r = round(np.random.default_rng(seed).uniform(*H6_WINDOW), 6)
        return Workload(name, 6, [r], "iqcc", 1, 10, ("E_QCC(10)",), "E_QCC(10)")
    if name == "h8-ilcap":
        return Workload(name, 8, [H8_R], "ilcap-pre", 1, 1,
                        ("E_ILCAP", "E_ILCAP+BW", "E_ILCAP+EN"), "E_ILCAP+BW")
    raise ValueError(f"unknown workload {name!r}")
