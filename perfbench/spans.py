"""In-memory spans around pfikit's public functions, and the per-layer metrics.

The tracer replaces a function on the module that *calls* it (for example
``pfikit.curves.charge_fractions``, the name ``generate_curve`` looks up), so
no pfikit source is edited.  Each span records its name, parent span, the
benchmark operation it belongs to, start, end, the exception it raised, and a
small per-layer detail taken from the result.  Spans stay in memory until the
run ends and are then written as JSON lines.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable

NOTE_HUMP = "launch at or below the hump"
NOTE_EMPTY = "integration window empty"


def _step_detail(result) -> tuple[int, str]:
    note = result.note
    if note.startswith(NOTE_HUMP):
        regime = "hump_certain"
    elif note.startswith(NOTE_EMPTY):
        regime = "empty_window"
    elif note:
        regime = "quad_warned"
    else:
        regime = "integrated"
    return result.n_evaluations, regime


# (module key, attribute, span name, detail taken from the result)
WRAPPED: tuple[tuple[str, str, str, Callable[[Any], Any] | None], ...] = (
    ("tunneling", "pfi_step_probability", "tunneling.step", _step_detail),
    ("curves", "charge_fractions", "tunneling.fractions", None),
    ("curves", "generate_curve", "curves.generate", None),
    ("curves", "write_curve_csv", "curves.write_csv", None),
    ("curves", "read_curve_csv", "curves.read_csv", None),
    ("pipeline", "read_curve_csv", "curves.read_csv", None),
    ("curves", "find_f50", "curves.f50", None),
    ("calibrate", "find_f50", "curves.f50", None),
    ("pipeline", "csr_to_field", "curves.invert", None),
    ("calibrate", "fit_z_offset", "calibrate.fit", None),
    ("calibrate", "fit_ie", "calibrate.fit", None),
    ("calibrate", "sensitivity_scan", "calibrate.scan", None),
    ("spectrum", "read_peaks_csv", "spectrum.read_peaks", None),
    ("pipeline", "read_peaks_csv", "spectrum.read_peaks", None),
    ("spectrum", "isotopologue_distribution", "spectrum.isotopologue", None),
    ("spectrum", "build_overlap_matrix", "spectrum.matrix", lambda m: int(m.values.size)),
    ("spectrum", "deconvolve", "spectrum.deconv", None),
    ("pipeline", "run_pipeline", "pipeline.run", lambda report: len(report.flags)),
    ("pipeline", "audit_consistency", "pipeline.audit", None),
)


class Tracer:
    """Span recorder; ``install`` patches pfikit modules, ``remove`` restores them."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def span(self, name: str, fn: Callable, *args, detail=None, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else None
        record = {"id": len(self.spans), "parent": parent["id"] if parent else None,
                  "op": parent["op"] if parent else len(self.spans), "name": name,
                  "start": 0.0, "end": 0.0, "error": None, "detail": None}
        self.spans.append(record)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        if detail is not None:
            record["detail"] = detail(result)
        return result

    def install(self, modules: dict) -> None:
        for key, attr, name, detail in WRAPPED:
            module = modules[key]
            original = getattr(module, attr)

            @functools.wraps(original)
            def traced(*args, _fn=original, _name=name, _detail=detail, **kwargs):
                return self.span(_name, _fn, *args, detail=_detail, **kwargs)

            setattr(module, attr, traced)
            self._patched.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict], pass_s: float, overhead_frac: float,
                  startup: dict[str, float], failed_frac: float,
                  known_defects: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, with units, from the spans of one traced pass.

    Layer times are shares of the traced pass's wall time ``pass_s``
    (``busy_frac``, ``self_frac``): a layer a workload never enters reads 0,
    which as a time would read the same on every run.  Multiply by
    ``trace.pass_s`` for seconds.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _duration(s)

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def busy(name: str) -> float:
        return sum(_duration(s) for s in named(name)) / pass_s

    def self_time(name: str) -> float:
        return sum(_duration(s) - child_time.get(s["id"], 0.0) for s in named(name)) / pass_s

    def under(span: dict, ancestor: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] == ancestor:
                return True
            parent = by_id[parent]["parent"]
        return False

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    steps = named("tunneling.step")
    done = [s for s in steps if s["error"] is None]
    regimes = [s["detail"][1] for s in done]
    evals = sum(s["detail"][0] for s in done)
    integrated_busy = sum(_duration(s) for s in done if s["detail"][0] > 0)
    f50s = named("curves.f50")
    roots = [s for s in f50s if s["error"] is None]
    f50_in_fit = [s for s in f50s if under(s, "calibrate.fit")]
    fits = named("calibrate.fit")
    csr_evals_in_f50 = [s for s in named("tunneling.fractions") if under(s, "curves.f50")]
    count, share = "count", "ratio"
    return {
        "tunneling.step.calls": (len(steps), count),
        "tunneling.step.busy_frac": (busy("tunneling.step"), share),
        "tunneling.step.evals": (evals, count),
        "tunneling.step.evals_per_s": (ratio(evals, integrated_busy), "1/s"),
        "tunneling.step.integrated": (
            sum(r in ("integrated", "quad_warned") for r in regimes), count),
        "tunneling.step.hump_certain": (regimes.count("hump_certain"), count),
        "tunneling.step.empty_window": (regimes.count("empty_window"), count),
        "tunneling.step.quad_warned": (regimes.count("quad_warned"), count),
        "tunneling.step.failed": (len(steps) - len(done), count),
        "tunneling.fractions.calls": (len(named("tunneling.fractions")), count),
        "tunneling.fractions.self_frac": (self_time("tunneling.fractions"), share),
        "curves.generate.calls": (len(named("curves.generate")), count),
        "curves.generate.self_frac": (self_time("curves.generate"), share),
        "curves.write_csv.busy_frac": (busy("curves.write_csv"), share),
        "curves.read_csv.calls": (len(named("curves.read_csv")), count),
        "curves.read_csv.busy_frac": (busy("curves.read_csv"), share),
        "curves.invert.calls": (len(named("curves.invert")), count),
        "curves.invert.busy_frac": (busy("curves.invert"), share),
        "curves.f50.calls": (len(f50s), count),
        "curves.f50.self_frac": (self_time("curves.f50"), share),
        "curves.f50.csr_evals_per_root": (ratio(len(csr_evals_in_f50), len(roots)), share),
        "curves.f50.failed": (len(f50s) - len(roots), count),
        "calibrate.fit.calls": (len(fits), count),
        "calibrate.fit.self_frac": (self_time("calibrate.fit"), share),
        "calibrate.fit.f50_per_fit": (ratio(len(f50_in_fit), len(fits)), share),
        "calibrate.fit.probe_useful_ratio": (ratio(
            sum(s["error"] is None for s in f50_in_fit), len(f50_in_fit)), share),
        "calibrate.scan.busy_frac": (busy("calibrate.scan"), share),
        "spectrum.read_peaks.busy_frac": (busy("spectrum.read_peaks"), share),
        "spectrum.isotopologue.calls": (len(named("spectrum.isotopologue")), count),
        "spectrum.isotopologue.busy_frac": (busy("spectrum.isotopologue"), share),
        "spectrum.matrix.busy_frac": (busy("spectrum.matrix"), share),
        "spectrum.matrix.cells": (
            sum(s["detail"] or 0 for s in named("spectrum.matrix")), count),
        "spectrum.deconv.calls": (len(named("spectrum.deconv")), count),
        "spectrum.deconv.busy_frac": (busy("spectrum.deconv"), share),
        "spectrum.deconv.degenerate": (sum(s["error"] == "DegenerateMatrixError"
                                           for s in named("spectrum.deconv")), count),
        "pipeline.run.self_frac": (self_time("pipeline.run"), share),
        "pipeline.audit.busy_frac": (busy("pipeline.audit"), share),
        "pipeline.flags": (sum(s["detail"] or 0 for s in named("pipeline.run")), count),
        "trace.pass_s": (pass_s, "s"),
        "trace.overhead_frac": (overhead_frac, share),
        "startup.import_s": (startup["import_s"], "s"),
        "startup.load_s": (startup["load_s"], "s"),
        "ops_failed_frac": (failed_frac, share),
        "known_defects": (known_defects, count),
    }
