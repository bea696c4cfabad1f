"""Golden CLI transcripts: the command list, how each runs, and how to re-record them.

Each command runs in-process through ``pfikit.cli.main`` from the repository root, and its
transcript is its exit code, stderr and stdout; a ``curves`` command keeps the sha256 of its
stdout in place of the CSV text.  ``tests/test_golden.py`` compares every transcript with
``transcripts.json``.  A change that moves a transcript re-records them:

    python tests/golden/record.py

and lists the commands that changed, and the largest numeric change, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
TRANSCRIPTS = os.path.join(HERE, "transcripts.json")

SPECIES = ("si", "si2", "si3", "si4", "rh")
CURVES = [f"curves --species {sp} --zmodel {z} --lambda {lam}"
          for sp in SPECIES for z in ("kingham", "si3", "si4") for lam in ("0", "0.1")]
EVERY_SPECIES = " ".join(f"--species {sp}" for sp in SPECIES)
COMMANDS = CURVES + [
    *(f"f50 {EVERY_SPECIES} --format {fmt}" for fmt in ("text", "json", "csv")),
    "f50 --species rh --phi 4.8",
    *(f"scan --species si3 --parameter {p} --values {v} --format {fmt}"
      for p, v in (("m_q", "3,5,7,9"), ("phi", "4.7,4.8,4.9,5.0,5.1"))
      for fmt in ("csv", "json")),
    "scan --species si3 --parameter phi --values 3.92,4.41,4.9,5.39,5.88",  # phi +-20 %
    "fit-z --species si3 --target 17.7",
    "fit-ie --species si3 --target 17.7",
    "fit-z --species si4 --target 17.0",
    "fit-ie --species si4 --target 17.0",  # 17.0 V/nm is a stand-in target
    "fit-ie --species si --target 30.1",
    "fit-ie --species rh --target 34.0",
    "fit-ie --species si4 --ie-index 3 --target 13.2",
    "resolve --config fixtures/as_pipeline.json",
    "resolve --config fixtures/as_pipeline.json --format json",
    "resolve --config fixtures/consistent_pipeline.json",
    "deconv --peaks fixtures/si2_overlap_peaks.csv",
    "csr --peaks fixtures/si2_overlap_peaks.csv --name Si2",
    "csr --peaks fixtures/si2_overlap_peaks.csv --name Si2 --raw",
    "field --curve fixtures/in_curve.csv --csr 0.0056 --two-sigma 0.0009",
    "kellogg --voltage 5600 --f0 35 --v0 7000",
    "kellogg --voltage 5600 --f0 35 --v0 7000 --format json",
    # refusals: exit 2 (configuration), 3 (numerical) and 4 (fit range)
    "curves --species si4 --zmodel si3 --phi 4.5 --lambda 0.2",
    "scan --species si3 --parameter m_q --values 100000",
    "scan --species si3 --parameter phi --values 4.9,5.0,5.1,12",
    "f50 --species si --grid 5:10:0.1",
    "f50 --species rh --species si --phi 4.2 --lambda 0.1",
    "f50 --species nosuch",
    "fit-z --species si --target 99",
    "fit-ie --species si --target 99",
    "fit-z --species si3 --target nan",
    "fit-ie --species si3 --ie-index 7 --target 17.7",
    "field --curve fixtures/in_curve.csv --csr 2",
    "kellogg --voltage -5600 --f0 35 --v0 7000",
    "curves --species si --species si2",
]


def transcript(command: str) -> dict:
    """Exit code, stderr and stdout (a sha256 for ``curves``) of one command."""
    from pfikit.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    stdout = out.getvalue()
    if command.startswith("curves"):
        stdout = "sha256:" + hashlib.sha256(stdout.encode()).hexdigest()
    return {"exit": code, "stderr": err.getvalue(), "stdout": stdout}


def record() -> dict:
    """Every command's transcript, run from the repository root."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return {command: transcript(command) for command in COMMANDS}
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(TRANSCRIPTS, "w") as fh:
        json.dump(record(), fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(COMMANDS)} transcripts to {os.path.relpath(TRANSCRIPTS, ROOT)}")
