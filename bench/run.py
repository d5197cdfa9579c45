#!/usr/bin/env python3
"""Benchmark of the FCIDUMP -> energies -> Morse pipeline on H_n chains.

Usage, from the repository root:

    python3 bench/run.py --workload h4-scan --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each exists): h4-scan, h6-iqcc,
h8-ilcap.  One process runs one workload: set-up (imports, seeded input
generation, one warm-up pass of the H2 fixture) is timed, then the
workload body repeats while it fits in --seconds (at least once) and
run_s is the median repeat.  setup_s is the median over this process
and four fresh set-up-only processes.  Every repeat's energies are
checked against sector energies computed independently (bench/exact.py).

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time
untraced and half traced and prints the per-layer metrics of the traced
repeat with the median run time.  The last stdout line is one JSON
object; details, the run environment and spans go to .bench_out/.
BLAS and OpenMP are pinned to one thread and the scan runs one worker.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (stdlib only; workloads pulls in numpy after the thread pin)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
REQUIRED = ("src/qubitcc/__init__.py", "tools/make_h2_fcidump.py", "tests/data/h2_r1p4.fcidump")
SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("h4-scan", "h6-iqcc", "h8-ilcap")


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).exists():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "scan_workers": 1,
        "seed": seed,
        "commit": commit,
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description="qubitcc H-chain benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="How long the timed repeats run (at least one repeat).")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child_setup_s(args) -> float:
    """Set-up time of a fresh process that stops after set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


@dataclass
class Rep:
    run_s: float
    outcome: object
    check: object
    tracer: tracing.Tracer | None


def repeat(wl, workdir: Path, seconds: float, first, tracer_factory=None) -> list[Rep]:
    """Run the workload body at least once, and again while it fits in seconds.

    Another repeat starts only while the elapsed time plus the median
    repeat so far stays within seconds, so a run never overshoots by a
    whole repeat.

    first is the outcome every repeat must reproduce bit for bit (None
    makes the first repeat the one to match).  With a tracer_factory,
    each repeat gets a fresh tracer whose wrappers are installed outside
    the timed window and whose root span is the timed window.
    """
    reps: list[Rep] = []
    start = perf_counter()
    while not reps or (perf_counter() - start
                       + statistics.median(r.run_s for r in reps) <= seconds):
        gc.collect()
        if tracer_factory is None:
            tracer = None
            t = perf_counter()
            outcome = wl.body(workdir)
            run_s = perf_counter() - t
        else:
            tracer = tracer_factory()
            with tracer.installed():
                t = perf_counter()
                with tracer.span(tracing.ROOT_SPAN):
                    outcome = wl.body(workdir, tracer)
                run_s = perf_counter() - t
        reps.append(Rep(run_s, outcome, wl.check(outcome, first), tracer))
        first = first or outcome
    return reps


def points_failed(wl, outcome) -> int:
    return sum(
        any(outcome.values.get((p.index, label)) is None for label in wl.labels)
        for p in wl.points
    )


def measure(wl, workdir: Path, seconds: float, trace: bool):
    """Timed repeats and their metrics: (metrics, reps, chosen traced rep)."""
    wl.reference()
    if not trace:
        reps = repeat(wl, workdir, seconds, None)
        first = reps[0].check
        metrics = {
            "run_s": (statistics.median(r.run_s for r in reps), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "err_mEh": (first.err_mEh, "mEh"),
        }
        return metrics, reps, None
    point_of = {str(p.path): p.index for p in wl.points}
    plain = repeat(wl, workdir, seconds / 2, None)
    traced = repeat(wl, workdir, seconds / 2, plain[0].outcome,
                    lambda: tracing.Tracer(point_of))
    chosen = sorted(traced, key=lambda r: r.run_s)[len(traced) // 2]
    metrics = tracing.layer_metrics(chosen.tracer)
    metrics["cli.points_failed"] = (points_failed(wl, chosen.outcome), "count")
    metrics["trace.overhead_s"] = (
        statistics.median(r.run_s for r in traced) - statistics.median(r.run_s for r in plain),
        "s",
    )
    return metrics, plain + traced, chosen


def _run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT, timeout=600).returncode)
    return worst


def main(argv=None) -> int:
    args = _parse(argv)
    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"error: not a qubitcc checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return _run_all(args)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, args.seed)
        wl.prepare(workdir)
        wl.warm_up(workdir)
        setup_s = perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_samples = [setup_s]
        if not args.trace:
            setup_samples += [_child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics, reps, chosen = measure(wl, workdir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics = {"setup_s": (statistics.median(setup_samples), "s"), **metrics}

    attempted = sum(r.check.attempted for r in reps)
    failed = sum(r.check.failed for r in reps)
    reasons = [reason for r in reps for reason in r.check.reasons]
    first = reps[0]
    missing_targets = chosen.tracer.missing if chosen else []
    # a non-finite value (no headline energy survived) is left out and
    # marks the run incorrect
    result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if math.isfinite(v)}
    correct = failed == 0 and len(result) == len(metrics)

    tag = f"{args.workload}-seed{args.seed}"
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(args.seed),
        "inputs": [
            {"r": p.chain.r, "e_hf": p.chain.e_hf, "max_fock_ov": p.chain.max_fock_ov,
             "scf_iterations": p.chain.scf_iterations, "e_sector": p.e_sector,
             "e_ref": p.e_ref}
            for p in wl.points
        ],
        "energies": {f"{i}:{label}": v for (i, label), v in first.outcome.values.items()},
        "omega_e": first.outcome.omega,
        "omega_e_err_cm": first.check.omega_e_err_cm,
        "setup_samples_s": setup_samples,
        "run_samples_s": [r.run_s for r in reps],
        "traced_repeats": sum(r.tracer is not None for r in reps),
        "ops_total": attempted,
        "ops_failed": failed,
        "failures": reasons,
        "program_messages": first.outcome.messages,
        "missing_trace_targets": missing_targets,
        "metrics": result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(details, indent=1) + "\n")
    if chosen:
        spans_path = OUT / f"{tag}.spans.jsonl"
        spans_path.unlink(missing_ok=True)
        for index, rep in enumerate(r for r in reps if r.tracer is not None):
            rep.tracer.write_jsonl(spans_path, repeat=index, workload=args.workload)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"radii {' '.join(str(p.chain.r) for p in wl.points)} bohr")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    if first.check.omega_e_err_cm is not None:
        print(f"  {'omega_e_err_cm':<28} {first.check.omega_e_err_cm:.6g} cm-1")
    print(f"  {'ops_failed':<28} {failed} count")
    print(f"  {'ops_total':<28} {attempted} count")
    for message in first.outcome.messages[:20]:
        print(f"program: {message}", file=sys.stderr)
    for reason in reasons[:20]:
        print(f"failed: {reason}", file=sys.stderr)
    if missing_targets:
        print(f"trace targets not found: {', '.join(missing_targets)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
