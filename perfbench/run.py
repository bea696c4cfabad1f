"""pfikit benchmark: curve-sweep, calibrate and spectrum workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload curve-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # all three, timed and traced

``--trace 0`` times whole passes over the workload's seeded inputs and reports
the end-to-end metrics; ``--trace 1`` runs one pass untraced and the same pass
traced and reports per-layer metrics.  Every output is checked; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when a check fails.  See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_LAUNCHES = 5
SETUP_TIMEOUT_S = 60
# A fresh interpreter importing a fixed set of modules and no pfikit code.  It
# runs before and after every set-up launch; its time tracks how fast the
# host starts processes and imports, as the in-process probe cannot.
REFERENCE_LAUNCH = "import csv, dataclasses, json, numpy, scipy.linalg"
NOMINAL_REFERENCE_LAUNCH_S = 0.45  # its wall time on this host in its fast phase
PFIKIT_MODULES = ("tunneling", "curves", "calibrate", "spectrum", "pipeline",
                  "geometry", "species", "zmodel", "errors", "cli")
# A fresh interpreter importing pfikit and loading the shipped data; it
# prints its own split between the import and the loads.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pfikit
from pfikit.cli import NAMED_ZMODELS
t1 = time.perf_counter()
species = pfikit.builtin_species()
zmodels = [pfikit.load_zmodel(pfikit.species.asset_path(f)) for f in NAMED_ZMODELS.values()]
isotopes = pfikit.load_isotopes()
t2 = time.perf_counter()
assert species and len(zmodels) == 3 and isotopes.elements
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
"""
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PRIMARY_KIND = {"curve-sweep": "curve", "calibrate": "f50", "spectrum": "spectrum"}
TAIL_SAMPLES = 10


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_pfikit() -> dict:
    """Import pfikit from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "pfikit", "__init__.py")):
        fail(f"no pfikit source under {SRC}; run from a full checkout")
    if not os.path.isdir(FIXTURES):
        fail(f"no fixtures under {FIXTURES}; run from a full checkout")
    sys.path.insert(0, SRC)
    modules = {name: importlib.import_module(f"pfikit.{name}") for name in PFIKIT_MODULES}
    origin = os.path.realpath(modules["curves"].__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        fail(f"pfikit imported from {origin}, not from {SRC}")
    return modules


def _launch(args: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        fail(f"launch of {args[:2]} failed:\n{done.stderr}")
    return elapsed, done.stdout


def measure_setup() -> dict[str, list[float]]:
    """Wall time of fresh interpreters that import pfikit and load its data.

    ``setup_s`` scales each launch by NOMINAL_REFERENCE_LAUNCH_S over the mean
    of the reference launches just before and after it.
    """
    walls, imports, loads = [], [], []
    references = [_launch(["-c", REFERENCE_LAUNCH])[0]]
    for _ in range(SETUP_LAUNCHES):
        elapsed, out = _launch(["-c", SETUP_CODE, SRC])
        walls.append(elapsed)
        references.append(_launch(["-c", REFERENCE_LAUNCH])[0])
        split = json.loads(out.strip().splitlines()[-1])
        imports.append(split["import_s"])
        loads.append(split["load_s"])
    corrected = [wall * 2.0 * NOMINAL_REFERENCE_LAUNCH_S / (before + after)
                 for wall, before, after in zip(walls, references, references[1:])]
    return {"setup_s": corrected, "setup_wall_s": walls, "import_s": imports,
            "load_s": loads}


@dataclass(slots=True)
class Record:
    """Outcome of one operation.  Slots keep thousands of them from moving peak RSS."""

    kind: str
    label: str
    start: float
    seconds: float
    ok: bool  # neither raised where a result was expected nor missed a check
    completed: bool  # returned a result, or raised the error that is the result
    work: int
    why: str
    problems: list[str]
    norm: float = 0.0  # seconds at the nominal host speed


def run_pass(ops, probe: HostProbe, tracer=None) -> list[Record]:
    """Run each operation once; time ``run`` only, then check its output.

    The probe samples host speed between operations; each record's ``norm``
    is its wall time scaled to the nominal host speed.
    """
    records = []
    probe.sample_if_due()
    for op in ops:
        error = result = None
        t0 = time.perf_counter()
        try:
            result = tracer.span(f"op.{op.kind}", op.run) if tracer else op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        t1 = time.perf_counter()
        inside, probe.inside = probe.inside, 0.0
        problems: list[str] = []
        missed: list[str] = []
        if op.expect is not None:
            if error is None:
                problems.append(f"{op.label}: expected {op.expect.__name__}, got a result")
            elif not isinstance(error, op.expect):
                missed.append(f"{type(error).__name__}: {error}")
        elif error is not None:
            missed.append(f"{type(error).__name__}: {error}")
        else:
            problems = op.check(result)
            missed = op.expectations(result)
        ok = not (problems or missed)
        completed = error is None or (op.expect is not None and isinstance(error, op.expect))
        records.append(Record(op.kind, op.label, t0, t1 - t0 - inside, ok, completed,
                              op.work(result) if error is None else int(completed),
                              "; ".join(problems + missed), problems))
        probe.sample_if_due()
    for r in records:
        r.norm = r.seconds * probe.factor(r.start, r.start + r.seconds)
    return records


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """Highest percentile with at least TAIL_SAMPLES samples beyond it."""
    n = len(values)
    if n <= TAIL_SAMPLES:
        return None
    k = n - TAIL_SAMPLES  # 1-based rank of the value with TAIL_SAMPLES above it
    return sorted(values)[k - 1], 100.0 * k / n, n


def rate(records: list[Record], kinds: tuple[str, ...], clock: str = "norm") -> float:
    """Work per second of the operations that completed, over their own time."""
    done = [r for r in records if r.completed and r.kind in kinds]
    seconds = sum(getattr(r, clock) for r in done)
    return sum(r.work for r in done) / seconds if seconds else 0.0


def median_seconds(records: list[Record], kinds: tuple[str, ...], clock: str = "norm") -> float:
    times = [getattr(r, clock) for r in records if r.completed and r.kind in kinds]
    return statistics.median(times) if times else 0.0


def end_to_end(workload: str, records: list[Record], setup: dict) -> tuple[dict, list]:
    """Metrics for BENCHMARK.json, and the named per-workload figures for the report."""
    kinds = tuple({r.kind for r in records})
    primary = PRIMARY_KIND[workload]
    metrics = {
        "setup_s": (statistics.median(setup["setup_s"]), "s"),
        "work_per_s": (rate(records, kinds), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    named = [("ops_failed_frac", failed_frac(records), "ratio"),
             ("setup_s wall", statistics.median(setup["setup_wall_s"]), "s"),
             ("work_per_s wall", rate(records, kinds, clock="seconds"), "1/s"),
             ("op_s_p50", median_seconds(records, (primary,)), "s"),
             ("op_s_p50 wall", median_seconds(records, (primary,), clock="seconds"), "s")]
    if workload == "curve-sweep":
        named.append(("curve_pts_per_s", rate(records, ("curve",)), "1/s"))
    elif workload == "calibrate":
        named.append(("f50_s_p50", median_seconds(records, ("f50",)), "s"))
        f50_tail = tail([r.norm for r in records if r.completed and r.kind == "f50"])
        if f50_tail:
            named.append((f"f50_s_tail (p{f50_tail[1]:.1f}, n={f50_tail[2]})",
                          f50_tail[0], "s"))
        named.append(("fit_s_p50", median_seconds(records, ("fit_z", "fit_ie")), "s"))
    else:
        named.append(("spectra_per_s", rate(records, ("spectrum",)), "1/s"))
        named.append(("pipeline_runs_per_s", rate(records, ("pipeline",)), "1/s"))
    return metrics, named


def print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:40s} {value:>16.6g} {unit}")


def failed_frac(records: list[Record]) -> float:
    return sum(not r.ok for r in records) / len(records)


def timed_run(args, ops_for, setup: dict, probe: HostProbe,
              modules: dict) -> tuple[list[Record], dict]:
    """Whole passes until ``--seconds`` of operations are measured.

    The probe samples host speed inside long operations too, at each
    ``charge_fractions`` call that finds a sample due; that time is taken out
    of the operation's.
    """
    records, measured, rates = [], [], []
    probe.install(modules["curves"], "charge_fractions")
    try:
        while True:
            ops = ops_for(len(measured), f"p{len(measured)}")
            done = run_pass(ops, probe)
            records += done
            measured.append(sum(r.seconds for r in done))
            rates.append(rate(done, tuple({r.kind for r in done})))
            if sum(measured) >= args.seconds:
                break
    finally:
        probe.remove()
    metrics, named = end_to_end(args.workload, records, setup)
    print(f"perfbench: {len(measured)} pass(es), {sum(measured):.2f} s measured; "
          f"work_per_s by pass: {' '.join(f'{r:.4g}' for r in rates)}")
    print_table("end-to-end:", [(k, v, u) for k, (v, u) in metrics.items()] + named)
    return records, metrics


def traced_run(args, ops_for, setup: dict, probe: HostProbe, modules: dict,
               defects: list[str]) -> tuple[list[Record], dict]:
    """Pass 0 untraced, then the same inputs traced; per-layer metrics from the spans."""
    from spans import Tracer, layer_metrics

    records = run_pass(ops_for(0, "untraced"), probe)
    ops = ops_for(0, "traced")
    tracer = Tracer()
    tracer.install(modules)
    try:
        traced = run_pass(ops, probe, tracer)
    finally:
        tracer.remove()
    # Host-speed-corrected pass times, so that drift does not read as overhead.
    overhead = sum(r.norm for r in traced) / sum(r.norm for r in records) - 1.0
    records += traced
    startup = {k: statistics.median(setup[k]) for k in ("import_s", "load_s")}
    metrics = layer_metrics(tracer.spans, sum(r.seconds for r in traced), overhead,
                            startup, failed_frac(records), len(defects))
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(path)
    print(f"perfbench: {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    print_table("per-layer (one traced pass):", [(k, v, u) for k, (v, u) in metrics.items()])
    return records, metrics


def run_workload(args) -> int:
    # Imported here so that a bare directory fails on the missing source first.
    modules = load_pfikit()
    import numpy
    import scipy

    import workloads
    from hostspeed import HostProbe

    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__}")
    if not os.path.isfile(REFERENCE):
        fail(f"{REFERENCE} missing; regenerate it with perfbench/make_reference.py")
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        ctx = workloads.Context(modules, workdir, FIXTURES, reference)

        def ops_for(pass_index: int, tag: str):
            tasks = workloads.make_inputs(args.workload, args.seed, pass_index,
                                          ctx.isotope_rows(), FIXTURES)
            return workloads.build_ops(tasks, ctx, tag)

        defects = workloads.known_defects(ctx)
        for label in defects:
            print(f"perfbench: known defect, not exercised by the workload: {label}")
        probe = HostProbe()
        setup = measure_setup()
        if args.trace:
            records, metrics = traced_run(args, ops_for, setup, probe, modules, defects)
        else:
            records, metrics = timed_run(args, ops_for, setup, probe, modules)
        try:
            anchors = workloads.anchor_problems(args.workload, ctx)
        except Exception as exc:  # an anchor that raises is a wrong answer
            anchors = [f"anchor check raised {type(exc).__name__}: {exc}"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return report(records, anchors, metrics)


def report(records: list[Record], anchors: list[str], metrics: dict) -> int:
    """Print failures and the result line; the exit code is 1 when a check failed."""
    failed = [r for r in records if not r.ok]
    problems = anchors + [p for r in records for p in r.problems]
    for r in failed[:20]:
        print(f"perfbench: failed {r.kind} {r.label}: {r.why}"[:300])
    for p in anchors:
        print(f"perfbench: {p}"[:300])
    print(json.dumps({"correct": not problems, "attempted": len(records),
                      "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Each workload timed, then traced, each run in its own fresh interpreter."""
    results, status = {}, 0
    for name in ("curve-sweep", "calibrate", "spectrum"):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = done.stdout.rstrip("\n").splitlines()
            if done.returncode not in (0, 1) or not lines:
                fail(f"workload {name} exited with {done.returncode}")
            print("\n".join(lines[:-1]), flush=True)
            results[(name, trace)] = json.loads(lines[-1])
            status = max(status, done.returncode)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for (name, _), r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("curve-sweep", "calibrate", "spectrum", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # One thread per native pool, set before numpy loads; children inherit it.
    os.environ.update({var: "1" for var in THREAD_VARS})
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
