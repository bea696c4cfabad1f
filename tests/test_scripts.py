"""Smoke test of the example scripts: each runs as ``PYTHONPATH=src python scripts/x.py``
from the repository root, exits 0, writes nothing to stderr and nothing into the checkout."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_the_scripts_are_found():
    assert SCRIPTS, ROOT / "scripts"


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_runs_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                      env.get("PYTHONPATH"))))
    # the scripts read fixtures/ by relative path; the one that writes curves writes them
    # under tmp_path
    writes = script.name == "si_cluster_curves.py"
    outdir = ["--outdir", str(tmp_path)] if writes else []
    done = subprocess.run([sys.executable, str(script), *outdir], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
    if writes:
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{name}_curve.csv" for name in ("si", "si2", "si3", "si4"))
