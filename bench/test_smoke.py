"""Smoke test of the benchmark harness on tiny forms of its workloads.

Each tiny form keeps its workload's path and options but shrinks the
input: an H2 scan over five bond lengths for h4-scan, one H4 point for
h6-iqcc and h8-ilcap.  Run from the repository root with

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str) -> workloads.Workload:
    full = workloads.make(name, seed=0)
    if full.scan:
        return workloads.Workload(name, 2, [1.0, 1.2, 1.4, 1.8, 2.4], full.scheme, full.gens,
                                  full.iterations, full.labels, full.headline, scan=True)
    if full.scheme == "iqcc":
        return workloads.Workload(name, 4, [1.8], "iqcc", 1, 2, ("E_QCC(2)",), "E_QCC(2)")
    return workloads.Workload(name, 4, [1.8], full.scheme, full.gens, full.iterations,
                              full.labels, full.headline)


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def prepared(request, tmp_path_factory):
    wl = tiny(request.param)
    workdir = tmp_path_factory.mktemp(request.param)
    wl.prepare(workdir)
    wl.warm_up(workdir)
    return wl, workdir


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


def test_every_metric_present_with_its_unit(prepared):
    wl, workdir = prepared
    metrics, reps, _ = run.measure(wl, workdir, 0.0, trace=False)
    metrics["setup_s"] = (1.0, "s")
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: unit for k, (_, unit) in metrics.items()
    }
    assert all(math.isfinite(v) and v > 0 for v, _ in metrics.values())
    assert sum(r.check.failed for r in reps) == 0, [r.check.reasons for r in reps]

    layer, reps, chosen = run.measure(wl, workdir, 0.0, trace=True)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: unit for k, (_, unit) in layer.items()
    }
    assert sum(r.check.failed for r in reps) == 0
    assert chosen.tracer.missing == []
    self_total = sum(layer[f"{name}.self_s"][0] for name in tracing.LAYERS)
    assert self_total + layer["trace.unattributed_s"][0] == pytest.approx(
        layer["trace.run_s"][0], rel=1e-9)


def test_repeats_are_bit_identical(prepared):
    wl, workdir = prepared
    first, second = wl.body(workdir), wl.body(workdir)
    assert first.values and first.values == second.values
    assert first.omega == second.omega
    wl.reference()
    assert wl.check(second, first).failed == 0


def test_missing_target_is_reported_not_raised(monkeypatch, prepared):
    wl, workdir = prepared
    targets = dict(tracing.TARGETS)
    targets["chemio.jw"] = ("qubitcc.chemio", "no_such_function", {})
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span(tracing.ROOT_SPAN):
        wl.body(workdir, tracer)
    metrics = tracing.layer_metrics(tracer)
    assert tracer.missing == ["chemio.jw"]
    assert "chemio.jw_s" not in metrics and "chemio.load_s" in metrics
