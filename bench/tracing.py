"""Spans around calls into the qubitcc layers, recorded from outside.

``Tracer.installed()`` swaps timing wrappers in for the public
functions listed in TARGETS, in every ``qubitcc.*`` namespace that
holds the same function object, and puts the originals back on exit.
Per-term helpers (``multiply``, ``commutes``) are never wrapped.  Each
span records its name, start, end, parent and the scan point it
belongs to (the point of the most recently loaded FCIDUMP); spans stay
in memory until ``write_jsonl``.  A target that no longer exists is
listed in ``missing`` and the metrics that need it are left out.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
from dataclasses import asdict, dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    point: int | None = None
    counts: dict[str, float] = field(default_factory=dict)


def _n(value) -> int:
    return len(value)


# span name -> (module, attribute, counters); counters map a name to a
# function of (args, result).  A dotted attribute is a method on a class.
TARGETS = {
    "cli.run_scheme": ("qubitcc.cli", "run_scheme", {}),
    "chemio.load": ("qubitcc.chemio", "load_fcidump", {}),
    "chemio.jw": ("qubitcc.chemio", "jw_hamiltonian", {"terms": lambda a, r: _n(r)}),
    "screen.decompose": ("qubitcc.screen", "ising_decompose", {
        "terms_in": lambda a, r: _n(a[0]),
        "sectors": lambda a, r: _n(r.sectors),
    }),
    "screen.gradients": ("qubitcc.screen", "gradients", {}),
    "gf2.rref": ("qubitcc.gf2", "rref_with_transform", {"cols": lambda a, r: a[0].n_cols}),
    "acset.build": ("qubitcc.acset", "build_anticommuting_set", {
        "generators": lambda a, r: _n(r),
        "words": lambda a, r: _n(a[1]),
    }),
    "pauli.conjugate": ("qubitcc.pauli", "conjugate_by_word", {"terms_out": lambda a, r: _n(r)}),
    "pauli.half_commutator": ("qubitcc.pauli", "half_commutator", {}),
    "pauli.truncate": ("qubitcc.pauli", "PauliSum.truncate", {
        "terms_in": lambda a, r: _n(a[0]),
        "kept": lambda a, r: _n(r),
    }),
    "pauli.expectation": ("qubitcc.pauli", "ReferenceState.expectation", {}),
    "qcc.iqcc": ("qubitcc.qcc", "run_iqcc", {"terms_final": lambda a, r: _n(r.hamiltonian)}),
    "qcc.optimize": ("qubitcc.qcc", "optimize_amplitudes", {
        "nit": lambda a, r: r.iterations,
        "restarts": lambda a, r: r.restarts_used,
        "unconverged": lambda a, r: int(not r.converged),
    }),
    "qcc.energy_grad": ("qubitcc.qcc", "qcc_energy_and_gradient", {}),
    "qcc.dress": ("qubitcc.qcc", "dress", {}),
    "ilcap.solve": ("qubitcc.ilcap", "solve_ilcap", {}),
    "ilcap.matrix": ("qubitcc.ilcap", "build_h_matrix", {"dim": lambda a, r: r.shape[0]}),
    "ilcap.bw": ("qubitcc.ilcap", "bw_correct", {
        "iterations": lambda a, r: r.iterations,
        "skipped": lambda a, r: _n(r.skipped_sectors),
    }),
    "ilcap.combo_dress": ("qubitcc.ilcap", "dress_with_combination", {
        "terms_out": lambda a, r: _n(r),
    }),
    "ilcap.en": ("qubitcc.ilcap", "en_correct", {
        "terms_in": lambda a, r: _n(a[0]),
        "skipped": lambda a, r: _n(r.skipped_sectors),
    }),
    "oracle.ground": ("qubitcc.oracle", "ground_energy", {}),
    "oracle.eigh": ("qubitcc.oracle", "ground_state", {"dim": lambda a, r: _n(r[1])}),
    "oracle.to_dense": ("qubitcc.oracle", "to_dense", {}),
    "morse.fit": ("qubitcc.morse", "fit_morse", {}),
}

LAYERS = ("cli", "chemio", "screen", "gf2", "acset", "pauli", "qcc", "ilcap", "oracle", "morse")
ROOT_SPAN = "run"


class Tracer:
    """In-memory span recorder; one instance per traced repeat."""

    def __init__(self, point_of: dict[str, int] | None = None):
        self.spans: list[Span] = []
        self.point: int | None = None
        self.point_of = point_of or {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent=parent, point=self.point))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _wrap(self, name: str, fn, counters):
        tracer = self

        def wrapper(*args, **kwargs):
            if name == "chemio.load":
                tracer.point = tracer.point_of.get(str(args[0]))
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.spans[index].counts["raised"] = 1
                raise
            finally:
                tracer._close(index)
            counts = tracer.spans[index].counts
            for key, count in counters.items():
                counts[key] = count(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every reachable target for the duration of the block."""
        undo: list[tuple[object, str, object]] = []
        self.missing = []
        try:
            for name, (module_name, attr, counters) in TARGETS.items():
                try:
                    owner = importlib.import_module(module_name)
                    *path, leaf = attr.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = getattr(owner, leaf)
                except (ImportError, AttributeError):
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original, counters)
                if path:  # a method: one class attribute
                    homes = [(owner, leaf)]
                else:
                    homes = [
                        (mod, key)
                        for mod_name, mod in list(sys.modules.items())
                        if mod is not None
                        and (mod_name == "qubitcc" or mod_name.startswith("qubitcc."))
                        for key, value in list(vars(mod).items())
                        if value is original
                    ]
                for home, key in homes:
                    undo.append((home, key, original))
                    setattr(home, key, wrapper)
            yield self
        finally:
            for home, key, original in reversed(undo):
                setattr(home, key, original)

    def write_jsonl(self, path, **tags) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **asdict(span), **tags}) + "\n")


@dataclass
class _Totals:
    inclusive: float = 0.0
    self_time: float = 0.0
    calls: int = 0
    counts: dict[str, float] = field(default_factory=dict)


def summarize(spans: list[Span]) -> tuple[dict[str, _Totals], dict[str, float]]:
    """Per span name totals, and per layer self time (root span under 'run')."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    by_name: dict[str, _Totals] = {}
    by_layer: dict[str, float] = {}
    for span, inner in zip(spans, covered):
        duration = span.end - span.start
        totals = by_name.setdefault(span.name, _Totals())
        totals.inclusive += duration
        totals.self_time += duration - inner
        totals.calls += 1
        for key, value in span.counts.items():
            old = totals.counts.get(key, 0)
            # a dimension is a size, kept as the largest seen; counts add up
            totals.counts[key] = max(old, value) if key == "dim" else old + value
        layer = span.name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + duration - inner
    return by_name, by_layer


def _incl(name):
    return name, lambda t: t.inclusive


def _self(name):
    return name, lambda t: t.self_time


def _calls(name):
    return name, lambda t: t.calls


def _count(name, key):
    return name, lambda t: t.counts.get(key, 0)


def _ratio(name, num, den):
    return name, lambda t: t.counts.get(num, 0) / t.counts[den] if t.counts.get(den) else 0.0


# metric -> (unit, (span name, value of that span name's totals))
SPAN_METRICS = {
    "cli.scan_s": ("s", _incl("cli.scan")),
    "cli.run_scheme_s": ("s", _incl("cli.run_scheme")),
    "chemio.load_s": ("s", _incl("chemio.load")),
    "chemio.jw_s": ("s", _incl("chemio.jw")),
    "chemio.jw_terms": ("count", _count("chemio.jw", "terms")),
    "screen.decompose_s": ("s", _incl("screen.decompose")),
    "screen.decompose_calls": ("count", _calls("screen.decompose")),
    "screen.decompose_terms_in": ("count", _count("screen.decompose", "terms_in")),
    "screen.sectors": ("count", _count("screen.decompose", "sectors")),
    "screen.gradients_s": ("s", _incl("screen.gradients")),
    "gf2.rref_s": ("s", _incl("gf2.rref")),
    "gf2.rref_cols": ("count", _count("gf2.rref", "cols")),
    "acset.build_s": ("s", _incl("acset.build")),
    "acset.generators": ("count", _count("acset.build", "generators")),
    "acset.absorb_ratio": ("ratio", _ratio("acset.build", "generators", "words")),
    "pauli.conjugate_s": ("s", _incl("pauli.conjugate")),
    "pauli.conjugate_calls": ("count", _calls("pauli.conjugate")),
    "pauli.conjugate_terms_out": ("count", _count("pauli.conjugate", "terms_out")),
    "pauli.half_commutator_s": ("s", _incl("pauli.half_commutator")),
    "pauli.half_commutator_calls": ("count", _calls("pauli.half_commutator")),
    "pauli.truncate_s": ("s", _incl("pauli.truncate")),
    "pauli.truncate_kept_ratio": ("ratio", _ratio("pauli.truncate", "kept", "terms_in")),
    "pauli.expectation_s": ("s", _incl("pauli.expectation")),
    "pauli.expectation_calls": ("count", _calls("pauli.expectation")),
    "qcc.iqcc_s": ("s", _incl("qcc.iqcc")),
    "qcc.optimize_s": ("s", _incl("qcc.optimize")),
    "qcc.optimize_calls": ("count", _calls("qcc.optimize")),
    "qcc.bfgs_nit": ("count", _count("qcc.optimize", "nit")),
    "qcc.restarts": ("count", _count("qcc.optimize", "restarts")),
    "qcc.unconverged": ("count", _count("qcc.optimize", "unconverged")),
    "qcc.energy_grad_s": ("s", _incl("qcc.energy_grad")),
    "qcc.energy_grad_calls": ("count", _calls("qcc.energy_grad")),
    "qcc.dress_s": ("s", _incl("qcc.dress")),
    "qcc.terms_final": ("count", _count("qcc.iqcc", "terms_final")),
    "ilcap.solve_s": ("s", _incl("ilcap.solve")),
    "ilcap.matrix_s": ("s", _incl("ilcap.matrix")),
    "ilcap.matrix_dim": ("count", _count("ilcap.matrix", "dim")),
    "ilcap.bw_s": ("s", _incl("ilcap.bw")),
    "ilcap.bw_iterations": ("count", _count("ilcap.bw", "iterations")),
    "ilcap.bw_skipped": ("count", _count("ilcap.bw", "skipped")),
    "ilcap.bw_failed": ("count", _count("ilcap.bw", "raised")),
    "ilcap.combo_dress_s": ("s", _incl("ilcap.combo_dress")),
    "ilcap.combo_terms_out": ("count", _count("ilcap.combo_dress", "terms_out")),
    "ilcap.en_s": ("s", _incl("ilcap.en")),
    "ilcap.en_terms_in": ("count", _count("ilcap.en", "terms_in")),
    "ilcap.en_skipped": ("count", _count("ilcap.en", "skipped")),
    "oracle.ground_s": ("s", _incl("oracle.ground")),
    "oracle.to_dense_s": ("s", _incl("oracle.to_dense")),
    "oracle.eigh_s": ("s", _self("oracle.eigh")),
    "oracle.dim": ("count", _count("oracle.eigh", "dim")),
    "morse.fit_s": ("s", _incl("morse.fit")),
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metric values from one traced repeat.

    Layer self times plus ``trace.unattributed_s`` (the root span's own
    time) add up to ``trace.run_s``, the root span's duration.
    """
    by_name, by_layer = summarize(tracer.spans)
    out: dict[str, tuple[float, str]] = {}
    for metric, (unit, (name, value)) in SPAN_METRICS.items():
        if name in tracer.missing:
            continue
        out[metric] = (float(value(by_name.get(name, _Totals()))), unit)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (by_layer.get(layer, 0.0), "s")
    root = by_name.get(ROOT_SPAN, _Totals())
    out["trace.run_s"] = (root.inclusive, "s")
    out["trace.unattributed_s"] = (root.self_time, "s")
    return out
