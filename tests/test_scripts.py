"""Smoke test of the example script: it runs as ``PYTHONPATH=src python scripts/x.py``
from the repository root, exits 0 and writes nothing to stderr; a bad flag value exits 2
with one error line, as the CLI does."""

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
    return subprocess.run([sys.executable, str(script), *flags], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_runs_cleanly(script):
    done = _run(script)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout


def test_rh_crossover_says_where_the_crossing_has_vanished():
    # at 42 V/nm and 4.8 eV the Rh 1->2 crossing has vanished: L_c is 0, so there is
    # no K(L_c) to print, but P(1->2) and the F50 still are
    done = _run(ROOT / "scripts" / "rh_crossover.py", "--field", "42")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["field", "L_c,", "P(1->2)", "F50"]
    assert "crossing has vanished" in lines[1]
    assert lines[2].split()[1] == "1.0000"


@pytest.mark.parametrize("name,flags", [
    ("rh_crossover.py", ["--field", "0"]),
], ids=lambda v: v if isinstance(v, str) else None)
def test_script_reports_a_bad_flag_value_like_the_cli(name, flags):
    done = _run(ROOT / "scripts" / name, *flags)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("pfikit: error: ") and done.stderr.count("\n") == 1, \
        done.stderr
    assert "Traceback" not in done.stderr
