"""Exit-code fuzzing: ``cli.main`` on mutated fixture files and flag values.

Whatever the input, the CLI exits 0, 2, 3, 4 or 5 and reports a failure as
``pfikit: error: ...`` lines on stderr, never as a Python traceback or a
warning; ``field`` prints strict JSON, without NaN or Infinity.  Flag
values stay within what argparse accepts (a float flag gets a float literal,
``nan`` and ``inf`` included), so every case reaches pfikit's own checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings, strategies as st

from pfikit.cli import main
from pfikit.species import asset_path

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
EXIT_CODES = {0, 2, 3, 4, 5}
TOKENS = ("", "nan", "inf", "-inf", "-1", "0", "-0", "1e308", "1e-320", "1.5", "2", "3",
          "abc", "Si", "In:2:113", "Si:1:28;Si2:2:56", ";", ":", "\"", "null", "[]", "{}",
          "[1, 2]", "\"x\"", "true", "1e999", "\x00", "é")
FLOATS = st.one_of(st.sampled_from(("nan", "inf", "-inf", "0", "-0", "1e308", "-1e-308")),
                   st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr))
SMALL_INTS = st.integers(-2, 6).map(str)


@st.composite
def mutated(draw, text: str) -> str:
    """``text`` after one to three edits: a cell or JSON scalar replaced, a line
    dropped or repeated, two lines swapped, or the text cut short."""
    for _ in range(draw(st.integers(1, 3))):
        lines = text.split("\n")
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("cell", "scalar", "drop", "repeat", "swap", "cut")))
        if edit == "cell":
            cells = lines[i].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = ",".join(cells)
        elif edit == "scalar":
            spans = [m.span() for m in re.finditer(r'"[^"]*"|-?[\d.]+(?:e-?\d+)?', text)]
            if spans:
                lo, hi = draw(st.sampled_from(spans))
                text = text[:lo] + draw(st.sampled_from(TOKENS)) + text[hi:]
                continue
        elif edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            text = text[:draw(st.integers(0, len(text)))]
            continue
        text = "\n".join(lines)
    return text


def _fixture(name: str) -> str:
    with open(os.path.join(FIXTURES, name), newline="") as fh:
        return fh.read()


def _packaged(name: str) -> str:
    with open(asset_path(name)) as fh:
        return fh.read()


def _strict_json(text: str) -> None:
    """Parse ``text`` as JSON that has no NaN or Infinity (Python's json writes them)."""
    def refuse(constant: str):
        raise ValueError(f"{constant} is not JSON")

    json.loads(text, parse_constant=refuse)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")  # a warning would print to the CLI's stderr
        code = main(argv)
    assert not caught, (argv, [f"{w.filename}:{w.lineno}: {w.message}" for w in caught])
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    lines = err.getvalue().splitlines()
    assert all(line.startswith("pfikit: error: ") for line in lines), (argv, lines)
    assert (code == 0) == (not lines), (argv, code, lines)
    return code, out.getvalue(), err.getvalue()


def _write(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return path


PEAK_FILES = ("si2_overlap_peaks.csv", "consistent_peaks.csv", "as_peaks.csv")
CURVE_FILES = ("in_curve.csv", "as_curve.csv")
# derandomized: the suite replays the same cases on every run
FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@FUZZ
@given(st.data())
def test_peak_commands_on_mutated_peak_tables(data):
    name = data.draw(st.sampled_from(PEAK_FILES))
    text = data.draw(mutated(_fixture(name)))
    with tempfile.TemporaryDirectory() as tmp:
        peaks = _write(tmp, name, text)
        command = data.draw(st.sampled_from(("deconv", "csr", "csr-raw")))
        if command == "deconv":
            argv = ["deconv", f"--peaks={peaks}"]
        else:
            argv = ["csr", f"--peaks={peaks}",
                    f"--name={data.draw(st.sampled_from(('Si2', 'Si', 'In', 'Ga', 'As')))}",
                    f"--charge-low={data.draw(SMALL_INTS)}",
                    f"--charge-high={data.draw(SMALL_INTS)}"]
            if command == "csr-raw":
                argv.append("--raw")
        _run(argv)


@settings(FUZZ, max_examples=300)  # 60 do not reach a curve or flag that yields NaN
@given(st.data())
def test_field_on_mutated_curves_and_flags(data):
    name = data.draw(st.sampled_from(CURVE_FILES))
    text = data.draw(st.one_of(st.just(_fixture(name)), mutated(_fixture(name))))
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["field", f"--curve={_write(tmp, name, text)}",
                f"--csr={data.draw(st.one_of(FLOATS, st.floats(0.0, 1.0).map(repr)))}"]
        if data.draw(st.booleans()):
            argv.append(f"--two-sigma={data.draw(FLOATS)}")
        code, stdout, _ = _run(argv)
    if code == 0:
        _strict_json(stdout)


@FUZZ
@given(st.data())
def test_resolve_on_a_mutated_pipeline(data):
    config = data.draw(st.sampled_from(("as_pipeline.json", "consistent_pipeline.json")))
    with tempfile.TemporaryDirectory() as tmp:
        for name in os.listdir(FIXTURES):
            if name.endswith((".csv", ".json")):
                shutil.copy(os.path.join(FIXTURES, name), tmp)
        target = data.draw(st.sampled_from((config, "as_peaks.csv", "consistent_peaks.csv",
                                            "as_curve.csv", "in_curve.csv")))
        _write(tmp, target, data.draw(mutated(_fixture(target))))
        argv = ["resolve", f"--config={os.path.join(tmp, config)}", f"--base-dir={tmp}"]
        _run(argv + ["--format=json"] if data.draw(st.booleans()) else argv)


@FUZZ
@given(st.lists(FLOATS, min_size=3, max_size=3))
def test_kellogg_on_any_float_flags(values):
    voltage, f0, v0 = values
    _run(["kellogg", f"--voltage={voltage}", f"--f0={f0}", f"--v0={v0}"])


def _plausible_or_any(low: float, high: float):
    return st.one_of(st.floats(low, high).map(repr), FLOATS)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.data())
def test_model_commands_on_mutated_flags_and_files(data):
    with tempfile.TemporaryDirectory() as tmp:
        species = data.draw(st.sampled_from(("si", "rh", "species", "unknown")))
        if species == "species":
            species = _write(tmp, "rh.json", data.draw(mutated(_packaged("rh.json"))))
        zmodel = data.draw(st.sampled_from(("kingham", "si3", "zmodel", "nope")))
        if zmodel == "zmodel":
            zmodel = _write(tmp, "z.json", data.draw(mutated(_packaged("z_kingham.json"))))
        argv = [f"--species={species}", f"--zmodel={zmodel}"]
        if data.draw(st.booleans()):
            argv.append(f"--phi={data.draw(_plausible_or_any(4.0, 5.5))}")
        if data.draw(st.booleans()):
            argv.append(f"--lambda={data.draw(_plausible_or_any(0.0, 0.1))}")
        if data.draw(st.booleans()):
            grid = [data.draw(_plausible_or_any(5.0, 45.0)) for _ in range(2)]
            argv.append(f"--grid={grid[0]}:{grid[1]}:0.1")
        command = data.draw(st.sampled_from(("f50", "scan", "fit-ie")))
        if command == "scan":
            argv += ["--parameter=phi", f"--values={data.draw(_plausible_or_any(4.0, 5.5))},4.9"]
        elif command == "fit-ie":
            argv += [f"--target={data.draw(_plausible_or_any(10.0, 30.0))}",
                     f"--ie-index={data.draw(SMALL_INTS)}"]
        _run([command] + argv)


# JSON leaf values that no number in an input file may take, each with how an error
# message names it; Python's json reads and writes NaN and Infinity, RFC 8259 does not
BAD_LEAVES = ((10 ** 400, "1000000000"), (math.nan, "nan"), (math.inf, "inf"),
              (-math.inf, "-inf"), ("17.7", "'17.7'"), ([17.7], "[17.7]"),
              ({"value": 17.7}, "{'value': 17.7}"))
# the keys, and the keys of lists and objects, whose JSON values pfikit reads as floats
FLOAT_KEYS = {"c0", "c1", "mass_amu", "ie_ladder_ev", "abundance", "shared_mz",
              "nominal_fraction"}


def _leaf_paths(value, path=()):
    """Paths (keys and indices) to every non-container value inside a JSON value."""
    items = (value.items() if isinstance(value, dict) else enumerate(value)
             if isinstance(value, list) else None)
    if items is None:
        return [path]
    return [leaf for key, item in items for leaf in _leaf_paths(item, path + (key,))]


@st.composite
def leaf_replaced(draw, text: str):
    """``text`` with one leaf of its JSON value replaced by a bad value; also whether
    the leaf is a float pfikit reads, and how a message names the bad value."""
    root = json.loads(text)
    path = draw(st.sampled_from(_leaf_paths(root)))
    value, named = draw(st.sampled_from(BAD_LEAVES))
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    is_float = bool(FLOAT_KEYS & {k for k in path[-2:] if isinstance(k, str)})
    return json.dumps(root), is_float, named


# each JSON input file, how to read its shipped text, and the command that reads {file}
JSON_INPUTS = (
    ("rh.json", _packaged, ["f50", "--species={file}", "--phi=4.8"]),
    ("z_kingham.json", _packaged, ["f50", "--species=si", "--zmodel={file}"]),
    ("isotopes.json", _packaged,
     ["deconv", "--peaks={fixtures}/si2_overlap_peaks.csv", "--isotopes={file}"]),
    ("as_pipeline.json", _fixture, ["resolve", "--config={file}", "--base-dir={fixtures}"]),
    ("consistent_pipeline.json", _fixture,
     ["resolve", "--config={file}", "--base-dir={fixtures}"]),
)


@settings(FUZZ, max_examples=120)
@given(st.data())
def test_bad_json_leaf_values(data):
    # a bad value where a float is read is refused with exit 2, and the message names it
    name, read, command = data.draw(st.sampled_from(JSON_INPUTS))
    text, is_float, named = data.draw(leaf_replaced(read(name)))
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, name, text)
        argv = [arg.format(file=path, fixtures=FIXTURES) for arg in command]
        code, _, stderr = _run(argv)
    if is_float:
        assert code == 2 and named in stderr, (argv, text, code, stderr)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_curves_on_mutated_grids(data):
    # a tiny step must be refused before any point is built (5:45:1e-9 is 4e10 points)
    lo, hi = data.draw(_plausible_or_any(5.0, 25.0)), data.draw(_plausible_or_any(25.0, 45.0))
    step = data.draw(st.one_of(st.sampled_from(("1e-9", "1e-320", "2e-4", "0.5")), FLOATS,
                               st.floats(0.05, 20.0).map(repr)))
    _run(["curves", "--species=si", f"--grid={lo}:{hi}:{step}"])
