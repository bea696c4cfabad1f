"""Smoke test of the example scripts: each runs as ``PYTHONPATH=src python scripts/x.py``
from the repository root, exits 0, writes nothing to stderr and nothing into the checkout;
a bad flag value exits 2 with one error line, as the CLI does."""

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


def _run(script, *flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                      env.get("PYTHONPATH"))))
    # the scripts read fixtures/ by relative path
    return subprocess.run([sys.executable, str(script), *flags], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_runs_cleanly(script, tmp_path):
    # the one that writes curves writes them under tmp_path
    writes = script.name == "si_cluster_curves.py"
    done = _run(script, *(["--outdir", str(tmp_path)] if writes else []))
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
    if writes:
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{name}_curve.csv" for name in ("si", "si2", "si3", "si4"))


@pytest.mark.parametrize("name,flags", [
    ("rh_crossover.py", ["--field", "0"]),
    ("si_cluster_curves.py", ["--step", "0", "--outdir", "{tmp}"]),
    ("sensitivity_scan.py", ["--species", "nope"]),
    ("deconvolve_overlap.py", ["--peaks", "/nonexistent/peaks.csv"]),
    ("resolve_pipeline.py", ["--config", "/nonexistent/pipeline.json"]),
], ids=lambda v: v if isinstance(v, str) else None)
def test_script_reports_a_bad_flag_value_like_the_cli(name, flags, tmp_path):
    done = _run(ROOT / "scripts" / name, *(f.format(tmp=tmp_path) for f in flags))
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("pfikit: error: ") and done.stderr.count("\n") == 1, \
        done.stderr
    assert "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []
