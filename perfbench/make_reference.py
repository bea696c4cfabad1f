"""Regenerate perfbench/reference.json from the seed-0 inputs.

The reference holds the 2+/1+ CSR of every seed-0 curve-sweep curve that
completes and the F50 of every seed-0 calibrate crossover and scan point.
The benchmark compares seed-0 runs against it with the tolerances stated in
workloads.py.  Regenerate it only when a change is meant to move these
numbers, and say so in that change.

Usage, from the repository root:  python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def main() -> None:
    modules = run.load_pfikit()
    os.makedirs(run.WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=run.WORK_DIR)
    try:
        reference = _reference(modules, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")


def _reference(modules: dict, workdir: str) -> dict:
    ctx = workloads.Context(modules, workdir, run.FIXTURES, reference=None)
    reference = {"curve_csr": {}, "f50_vnm": {}}
    for name in ("curve-sweep", "calibrate"):
        ops = workloads.build_ops(workloads.make_inputs(name, 0), ctx, "ref")
        for op in ops:
            try:
                result = op.run()
            except modules["errors"].NumericalError as exc:
                print(f"{op.label}: {exc}", file=sys.stderr)
                continue
            if op.kind == "curve":
                reference["curve_csr"][op.label] = [float(f"{v:.12g}") for v in result[0].csr]
            elif op.kind == "f50":
                reference["f50_vnm"][op.label] = result.f50_vnm
            elif op.kind == "scan":
                for point in result:
                    reference["f50_vnm"][f"{op.label}={point.value:.4f}"] = point.f50_vnm
    return reference


if __name__ == "__main__":
    main()
