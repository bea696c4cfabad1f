"""End-to-end command-line interface checks (in-process)."""

from __future__ import annotations

import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import warnings

import pytest

import pfikit
from pfikit import builtin_species, read_curve_csv
from pfikit.cli import main
from pfikit.species import asset_path
from pfikit.tunneling import charge_fractions


def test_f50_json(capsys):
    assert main(["f50", "--species", "rh", "--phi", "4.8",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["Rh"]["f50_vnm"] == pytest.approx(24.6889, abs=2e-3)


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_f50_of_several_species_prints_their_single_solves(capsys, monkeypatch, fmt):
    # Si, Si2, Si3 and Rh, with two charge states, share one lockstep call per round: three
    # calls, where one call sequence per count of states made six; the rows keep the
    # command-line order and the bytes of each species solved alone
    names = ["si3", "rh", "si", "si2"]
    calls = []
    monkeypatch.setattr(pfikit.curves, "charge_fractions",
                        lambda *problem: calls.append(problem) or charge_fractions(*problem))
    assert main(["f50", *(a for n in names for a in ("--species", n)), "--format", fmt]) == 0
    together = capsys.readouterr().out.splitlines()
    assert len(calls) == 3
    alone = []
    for name in names:
        assert main(["f50", "--species", name, "--format", fmt]) == 0
        alone.append(capsys.readouterr().out.splitlines()[-1])
    assert together[-len(names):] == alone


def test_f50_json_refuses_a_repeated_species_name(tmp_path, capsys):
    # json keys its rows by species name, so a second Si, shipped or from a file, has no key
    twin = tmp_path / "si.json"
    twin.write_text(json.dumps({"name": "Si", "mass_amu": 28.0, "ie_ladder_ev": [8.15, 16.35],
                                "m_q": 3}))
    for second in ("si", str(twin)):
        assert main(["f50", "--species", "si", "--species", second, "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == ("pfikit: error: species Si is given more than once; "
                                     "--format json keys its output by species name\n")
    assert main(["f50", "--species", "si", "--species", "si", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["Si,19.8155406"] * 2


def test_f50_unknown_species(capsys):
    assert main(["f50", "--species", "unobtainium"]) == 2
    assert "unknown species" in capsys.readouterr().err


def test_a_shipped_name_is_not_read_from_a_directory(tmp_path, monkeypatch, capsys):
    # a folder named like a shipped species is not a species file
    (tmp_path / "si").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["f50", "--species", "si"]) == 0
    assert capsys.readouterr().out == "Si: F50 = 19.8155406 V/nm\n"


def test_missing_required_arguments_exit_2():
    with pytest.raises(SystemExit) as exc_info:
        main(["fit-z", "--species", "si3"])
    assert exc_info.value.code == 2


# each edit leaves as_pipeline.json with one missing or malformed key, named first
PIPELINE_CONFIG_FAULTS = (
    ("species", lambda c: c["reference"].pop("species")),
    ("shared_mz", lambda c: c["overlaps"][0].pop("shared_mz")),
    ("anchor", lambda c: c["overlaps"][0].pop("anchor")),
    ("partner_charge", lambda c: c["overlaps"][1].pop("partner_charge")),
    ("claimant", lambda c: c["overlaps"][0].pop("claimant")),
    ("anchor", lambda c: c["overlaps"][0].update(anchor=["As"])),
    ("shared_mz", lambda c: c["overlaps"][1].update(shared_mz="abc")),
    ("curves", lambda c: c.update(curves=sorted(c["curves"].values()))),
    ("compositions", lambda c: c.update(compositions={"As": ["As"]})),
    ("peaks", lambda c: c.update(peaks=-1)),
    ("overlaps", lambda c: c.update(overlaps=5)),
    ("nominal_fraction", lambda c: c.update(nominal_fraction="As")),
    ("partner_charge", lambda c: c["overlaps"][1].update(partner_charge=1.9)),
)


def test_config_validation_exits_2(fixtures_dir, tmp_path, capsys):
    assert main(["f50", "--species", "si", "--phi", "0.0"]) == 2
    assert main(["f50", "--species", "si", "--grid", "abc"]) == 2
    assert main(["f50", "--species", "si", "--grid", "5:45:nan"]) == 2
    assert main(["f50", "--species", "si", "--grid", "5:45:inf"]) == 2
    for value in ("nan", "inf", "1.5"):
        assert main(["scan", "--species", "si3", "--parameter", "m_q",
                     "--values", value]) == 2
    assert main(["kellogg", "--voltage", "nan", "--f0", "35", "--v0", "7000"]) == 2
    peaks = os.path.join(fixtures_dir, "si2_overlap_peaks.csv")
    assert main(["csr", "--peaks", peaks, "--name", "Si2",
                 "--charge-low", "2", "--charge-high", "1"]) == 2
    assert capsys.readouterr().err.count("pfikit: error") == 9
    # a non-finite fit target is rejected before any F50 is solved
    for command in ("fit-z", "fit-ie"):
        for value in ("nan", "inf"):
            assert main([command, "--species", "si3", "--target", value]) == 2
            assert "must be finite" in capsys.readouterr().err
    with open(os.path.join(fixtures_dir, "as_pipeline.json")) as fh:
        good = fh.read()
    for index, (key, edit) in enumerate(PIPELINE_CONFIG_FAULTS):
        config = json.loads(good)
        edit(config)
        path = tmp_path / f"fault{index}.json"
        path.write_text(json.dumps(config))
        assert main(["resolve", "--config", str(path), "--base-dir", fixtures_dir]) == 2
        assert f"'{key}'" in capsys.readouterr().err


SI_ENTRY = '"name": "Si", "cluster_size": 1, "mass_amu": 28.085'


@pytest.mark.parametrize("flag,text", [
    ("--zmodel", '{"c0": 1e999, "c1": 4.5}'),
    ("--zmodel", '{"c0": 1.0, "c1": NaN}'),
    ("--zmodel", '{"c0": -5, "c1": 4.5}'),
    ("--zmodel", '{"c0": 1.0, "c1": -1.0}'),
    ("--species", "-1"),
    ("--species", '{"species": 5}'),
    # a string ladder is not split into (7, 9), nor a fractional m_q truncated to 3
    ("--species", '{%s, "ie_ladder_ev": "79", "m_q": 3}' % SI_ENTRY),
    ("--species", '{%s, "ie_ladder_ev": [8.15, 16.35], "m_q": 3.9}' % SI_ENTRY),
], ids=["infinite-c0", "nan-c1", "c0-below-minus-1", "negative-c1", "species-number",
        "species-not-a-list", "string-ladder", "fractional-m-q"])
def test_malformed_model_files_exit_2(flag, text, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(text)
    species = [] if flag == "--species" else ["--species", "si"]
    assert main(["f50", *species, flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pfikit: error: ")
    assert captured.err.count("\n") == 1


def test_json_floats_must_be_finite_numbers(fixtures_dir, tmp_path, capsys):
    # a 400-digit c0 used to overflow float() with a traceback, and a NaN abundance used
    # to pass the isotope table and surface as "mass number 28 is not an isotopologue"
    zmodel = tmp_path / "z.json"
    zmodel.write_text('{"c0": 1%s, "c1": 1}' % ("0" * 400))
    assert main(["f50", "--species", "si", "--zmodel", str(zmodel)]) == 2
    err = capsys.readouterr().err
    assert "malformed Z-model file" in err and "got 1000000000" in err
    with open(asset_path("isotopes.json")) as fh:
        table = json.load(fh)
    table["elements"]["Si"][0]["abundance"] = math.nan
    isotopes = tmp_path / "isotopes.json"
    isotopes.write_text(json.dumps(table))
    assert main(["deconv", "--peaks", os.path.join(fixtures_dir, "si2_overlap_peaks.csv"),
                 "--isotopes", str(isotopes)]) == 2
    err = capsys.readouterr().err
    assert "malformed isotope file" in err and "got nan" in err


def test_isotope_mass_numbers_are_bounded(fixtures_dir, tmp_path, capsys):
    # a mass number of 10**300 used to size the isotope convolution array and fail in
    # numpy with a traceback
    with open(asset_path("isotopes.json")) as fh:
        table = json.load(fh)
    table["elements"]["Si"][2]["mass_number"] = 10 ** 300
    isotopes = tmp_path / "isotopes.json"
    isotopes.write_text(json.dumps(table))
    assert main(["deconv", "--peaks", os.path.join(fixtures_dir, "si2_overlap_peaks.csv"),
                 "--isotopes", str(isotopes)]) == 2
    assert f"mass numbers [28, 29, {10 ** 300}] must lie in [1, 300]" in capsys.readouterr().err


def test_cluster_sizes_are_bounded(tmp_path):
    # Si1000000 used to start a million-fold isotope convolution, quadratic in the size;
    # a process with a deadline shows that it is refused up front
    peaks = tmp_path / "peaks.csv"
    peaks.write_text("mz_Da,counts,assignments\n28000000,100,Si1000000:1:28000000\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(pfikit.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-m", "pfikit.cli", "deconv", "--peaks", str(peaks)],
                          env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 2
    assert "cluster size 1000000 must lie in [1, 100]" in done.stderr


def test_overflowing_model_exits_3_without_warnings(capsys):
    # a huge but finite c1 overflows the rate; the unresolved integral is the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit-z", "--species", "si3", "--target", "17.7", "--c1", "1e300"]) == 3
    assert "not resolved" in capsys.readouterr().err


@pytest.mark.parametrize("ladder,code,f50", [([7.0, 1e200], 4, None),
                                             ([7.0, 16.0, 1e308], 0, 18.879500828002666)])
def test_extreme_ladder_f50_without_warnings(tmp_path, capsys, ladder, code, f50):
    # I_{n+1} near the float limit overflows the step geometry; its crossing lies at infinity
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"name": "X", "mass_amu": 28.0, "ie_ladder_ev": ladder, "m_q": 3}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["f50", "--species", str(path), "--format", "json"]) == code
    out, err = capsys.readouterr()
    assert "Warning" not in err
    if f50 is not None:
        assert abs(json.loads(out)["X"]["f50_vnm"] - f50) <= 1e-9


def test_resolve_refuses_a_field_outside_an_analyte_curve(fixtures_dir, tmp_path, capsys):
    # the In reference puts the field near 21.3 V/nm; an As2 curve cut at 20 V/nm cannot
    # give that field's fractions
    for name in ("as_pipeline.json", "as_peaks.csv", "in_curve.csv", "as_curve.csv",
                 "as3_curve.csv", "as4_curve.csv"):
        shutil.copy(os.path.join(fixtures_dir, name), tmp_path / name)
    with open(os.path.join(fixtures_dir, "as2_curve.csv"), newline="") as fh:
        lines = fh.readlines()
    (tmp_path / "as2_curve.csv").write_text("".join(lines[:153]), newline="")
    assert main(["resolve", "--config", str(tmp_path / "as_pipeline.json")]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"pfikit: error: As2: field 21\.\d+ V/nm outside the curve grid "
                        r"\[5, 20\]\n", err), err


def test_resolve_needs_a_json_object(tmp_path, capsys):
    for text in ("-1", "[1, 2]", "\"peaks\""):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["resolve", "--config", str(path)]) == 2
        assert "pipeline config must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["deconv", "--peaks", "p.csv", "--species", "si"],
    ["csr", "--peaks", "p.csv", "--name", "Si", "--phi", "4.9"],
    ["field", "--curve", "c.csv", "--csr", "0.5", "--grid", "5:45:0.1"],
    ["resolve", "--config", "x.json", "--lambda", "0.1"],
    ["kellogg", "--voltage", "1", "--f0", "1", "--v0", "1", "--zmodel", "si3"],
    ["fit-z", "--species", "si3", "--target", "17.7", "--zmodel", "si4"],
], ids=lambda argv: f"{argv[0]}-{argv[-2]}")
def test_commands_reject_model_flags_they_ignore(argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2


@pytest.mark.parametrize("text,argv", [
    (None, ["deconv", "--peaks", "{path}"]),
    ("mz_Da,counts,assignments\nabc,100,Si:1:28\n", ["deconv", "--peaks", "{path}"]),
    ("field_Vnm,f1,f2,f3,csr\n10,0.5,0.5\n", ["field", "--csr", "0.5", "--curve", "{path}"]),
    ("mz_Da,counts,assignments\n28,100,Si:1:28\n",
     ["deconv", "--peaks", "{path}", "--isotopes", "{path}.json"]),
    ("mz_Da,counts,assignments\nnan,100,Si:1:28\n", ["deconv", "--peaks", "{path}"]),
    ("mz_Da,counts,assignments\n28,nan,Si:1:28\n", ["deconv", "--peaks", "{path}"]),
    ("mz_Da,counts,assignments\n28,inf,Si:1:28\n",
     ["csr", "--raw", "--name", "Si", "--peaks", "{path}"]),
    ("mz_Da,counts,assignments\n28,1e308,Si:1:28;Si2:2:56\n29,10,Si:1:29\n",
     ["deconv", "--peaks", "{path}"]),
    # fractions summing to 0.9; a csr cell that is not f2/(f1 + f2)
    ("field_Vnm,f1,f2,f3,csr\n10,0.5,0.4,0,0.5\n11,0.4,0.6,0,0.6\n",
     ["field", "--csr", "0.55", "--curve", "{path}"]),
    ("field_Vnm,f1,f2,f3,csr\n10,1,0,0,0.9\n11,0.4,0.6,0,0.6\n",
     ["field", "--csr", "0.7", "--curve", "{path}"]),
    # a fractional mass number is not truncated to 28
    ('{"elements": {"Si": [{"mass_number": 28.7, "mass_da": 27.977, "abundance": 0.9223}, '
     '{"mass_number": 29, "mass_da": 28.976, "abundance": 0.0467}, '
     '{"mass_number": 30, "mass_da": 29.974, "abundance": 0.031}]}}',
     ["deconv", "--peaks", "{fixtures}/si2_overlap_peaks.csv", "--isotopes", "{path}"]),
], ids=["missing-peaks", "bad-mz", "short-curve-row", "missing-isotopes", "nan-mz",
        "nan-counts", "inf-counts", "huge-counts", "curve-row-sum", "curve-csr-cell",
        "fractional-mass-number"])
def test_unreadable_inputs_exit_2(text, argv, fixtures_dir, tmp_path, capsys):
    path = tmp_path / "input.csv"
    if text is not None:
        path.write_text(text)
    assert main([arg.format(path=path, fixtures=fixtures_dir) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pfikit: error:" in captured.err


# each file flag, and the command that reads it; {file} is the input under test
FILE_FLAGS = {
    "--config": ["resolve", "--config", "{file}"],
    "--species": ["f50", "--species", "{file}"],
    "--zmodel": ["f50", "--species", "si", "--zmodel", "{file}"],
    "--isotopes": ["deconv", "--peaks", "{fixtures}/si2_overlap_peaks.csv",
                   "--isotopes", "{file}"],
    "--peaks": ["deconv", "--peaks", "{file}"],
    "--curve": ["field", "--csr", "0.5", "--curve", "{file}"],
}
JSON_FLAGS = ("--config", "--species", "--zmodel", "--isotopes")
FILE_CASES = [pytest.param(FILE_FLAGS[flag], kind, id=f"{flag[2:]}-{kind}")
              for flag in FILE_FLAGS for kind in ("missing", "directory", "undecodable")
              + (("deep",) if flag in JSON_FLAGS else ())]
OUT_CASES = [
    pytest.param(["kellogg", "--voltage", "5600", "--f0", "35", "--v0", "7000",
                  "--out", "{tmp}/nodir/x.txt"], "out", id="kellogg-out-missing-dir"),
    pytest.param(["f50", "--species", "si", "--out", "{tmp}/nodir/x"], "out",
                 id="f50-out-missing-dir"),
    pytest.param(["curves", "--species", "si", "--species", "si2", "--out", "{file}"],
                 "existing-out", id="curves-out-existing-file"),
]


@pytest.mark.parametrize("argv,kind", FILE_CASES + OUT_CASES)
def test_unreadable_files_and_unwritable_out_exit_2(argv, kind, fixtures_dir, tmp_path,
                                                    capsys):
    file = tmp_path / "input"
    if kind == "directory":
        file.mkdir()
    elif kind == "undecodable":
        file.write_bytes(b"\xff\xfe")
    elif kind == "deep":
        file.write_text("[" * 100000)
    elif kind == "existing-out":
        file.write_text("")
    argv = [a.format(file=file, fixtures=fixtures_dir, tmp=tmp_path) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pfikit: error: ")
    assert captured.err.count("\n") == 1


# per command: arguments, the formats it writes (default first), and whether it
# reads --verbose and --dry-run
COMMANDS = {
    "curves": (["--species", "si", "--grid", "19:20:0.5"], ("csv",), True, True),
    "f50": (["--species", "si"], ("text", "json", "csv"), False, True),
    "fit-z": (["--species", "si3", "--target", "17.7"], ("json",), False, True),
    "fit-ie": (["--species", "si3", "--target", "17.7"], ("json",), False, True),
    "scan": (["--species", "si3", "--parameter", "phi", "--values", "3.92"],
             ("csv", "json"), False, True),
    "deconv": (["--peaks", "{fixtures}/si2_overlap_peaks.csv"], ("json",), False, False),
    "csr": (["--peaks", "{fixtures}/si2_overlap_peaks.csv", "--name", "Si2"], ("json",),
            False, False),
    "field": (["--curve", "{fixtures}/in_curve.csv", "--csr", "0.0056"], ("json",),
              False, False),
    "resolve": (["--config", "{fixtures}/as_pipeline.json"], ("text", "json"), False, False),
    "kellogg": (["--voltage", "5600", "--f0", "35", "--v0", "7000"], ("text", "json"),
                False, False),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_take_only_the_formats_and_flags_they_read(command, fixtures_dir, capsys):
    args, formats, verbose, dry_run = COMMANDS[command]
    argv = [command] + [arg.format(fixtures=fixtures_dir) for arg in args]
    assert main(argv) == 0
    default = capsys.readouterr().out
    outputs = []
    for fmt in formats:
        assert main(argv + ["--format", fmt]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == default
    assert len(set(outputs)) == len(formats)
    refused = [["--format", fmt] for fmt in ("text", "json", "csv") if fmt not in formats]
    refused += [[flag] for flag, read in (("--verbose", verbose), ("--dry-run", dry_run))
                if not read]
    for extra in refused:
        with pytest.raises(SystemExit) as exc_info:
            main(argv + extra)
        assert exc_info.value.code == 2, extra
    assert capsys.readouterr().out == ""


def test_curves_stdout(capsys):
    assert main(["curves", "--species", "si", "--grid", "19:20:0.5"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "# species: Si"
    assert lines[1] == "field_Vnm,f1,f2,f3,csr"
    assert len(lines) == 5


def test_curves_stdout_matches_out_file(tmp_path, capsysbinary):
    args = ["curves", "--species", "si", "--grid", "19:20:0.5"]
    assert main(args) == 0
    stdout = capsysbinary.readouterr().out
    out = tmp_path / "si.csv"
    assert main(args + ["--out", str(out)]) == 0
    assert stdout == out.read_bytes()


def test_curves_to_directory_and_determinism(tmp_path, capsys):
    args = ["curves", "--species", "si", "--species", "si2",
            "--grid", "17:19:1"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    for name in ("si_curve.csv", "si2_curve.csv"):
        first = (out_a / name).read_bytes()
        second = (out_b / name).read_bytes()
        assert first == second
        curve = read_curve_csv(out_a / name)
        assert list(curve.csr) == sorted(curve.csr)


def test_screened_rh_curve_evaluates_and_its_csr_never_falls(tmp_path, capsys):
    # Rh at phi 4.5 eV and lambda 0.1 nm: near 41 V/nm the barrier zone begins above z_c,
    # and until both of its ends were cuts, K31 and G15 disagreed there (exit 3)
    out = tmp_path / "rh.csv"
    assert main(["curves", "--species", "rh", "--phi", "4.5", "--lambda", "0.1",
                 "--out", str(out)]) == 0
    curve = read_curve_csv(out)
    assert len(curve.csr) == 401
    assert list(curve.csr) == sorted(curve.csr)


@pytest.mark.parametrize("entry", [
    {"ie_ladder_ev": [-2.0, 0.0]},   # divides by zero in the kernel
    {"ie_ladder_ev": [-2.0, -1.0]},  # a square root of a negative I
    {"name": "Si,x"},                # a 3-cell f50 csv row under a 2-cell header
    {"name": "Si\nx"},               # a curve file that field --curve cannot read
    {"name": "../esc"},              # a curve file outside --out DIR
], ids=["zero-ie", "negative-ie", "comma-name", "line-break-name", "path-name"])
def test_species_that_would_break_a_command_or_its_files_exit_2(entry, tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"name": "X", "mass_amu": 28.0, "ie_ladder_ev": [8.15, 16.35],
                                "m_q": 3, **entry}))
    out = tmp_path / "out"
    out.mkdir()
    for argv in (["f50", "--format", "csv", "--out", str(out / "f50.csv")],
                 ["curves", "--out", str(out / "n.csv")],
                 ["curves", "--species", "si", "--out", str(out)],
                 ["scan", "--parameter", "phi", "--values", "4.9", "--out", str(out / "s.csv")]):
        assert main([argv[0], "--species", str(path), *argv[1:]]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("pfikit: error: "), argv
    assert sorted(tmp_path.rglob("*")) == [out, path]


def test_curves_multiple_species_need_out(capsys):
    assert main(["curves", "--species", "si", "--species", "si2"]) == 2
    assert "--out" in capsys.readouterr().err


def test_curves_refuse_two_species_for_one_file(tmp_path, capsys, monkeypatch):
    # the same species twice, or a species file named like a shipped one, would write one
    # DIR/si_curve.csv twice; the refusal comes before any curve is computed
    twin = tmp_path / "twin.json"
    twin.write_text(json.dumps({"name": "SI", "mass_amu": 28.0, "ie_ladder_ev": [8.15, 16.35],
                                "m_q": 3}))
    out = tmp_path / "curves"
    monkeypatch.setattr(pfikit.curves, "generate_curve", None)
    for second in ("si", str(twin)):
        assert main(["curves", "--species", "si", "--species", "si2", "--species", second,
                     "--out", str(out), "--verbose"]) == 2
        assert capsys.readouterr().err == (
            f"pfikit: error: several species would be written to {out / 'si_curve.csv'}; "
            "give each name once\n")
    assert not out.exists()


def test_unresolved_screened_si4_curve_keeps_its_exit_and_message(capsys):
    # K21 and K31 both refuse Si4 step 2->3 at 19.5 V/nm here, and the error names K31's value
    # and estimate
    assert main(["curves", "--species", "si4", "--zmodel", "si3", "--phi", "4.5",
                 "--lambda", "0.2"]) == 3
    assert capsys.readouterr().err == (
        "pfikit: error: Si4 step 2->3 at 19.5 V/nm: step integral 9.726518e-01 not resolved "
        "(P error estimate 1.56e-06 > 1e-06)\n")


def test_curves_refuses_a_grid_too_fine_to_build(capsys):
    # 5:45:1e-9 would be 4e10 points
    assert main(["curves", "--species", "si", "--grid", "5:45:1e-9"]) == 2
    assert "more than 200000 points" in capsys.readouterr().err


def test_dry_run_writes_nothing(tmp_path, capsys):
    out = tmp_path / "curves"
    assert main(["curves", "--species", "si", "--out", str(out),
                 "--dry-run"]) == 0
    assert not out.exists()
    assert "dry run" in capsys.readouterr().err
    # the species count is still checked without running anything
    assert main(["fit-z", "--species", "si", "--species", "si3", "--target", "17.7",
                 "--dry-run"]) == 2
    assert main(["curves", "--dry-run"]) == 2


def test_fit_z_json(capsys):
    assert main(["fit-z", "--species", "si3", "--target", "17.7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["parameter"] == "c0"
    assert payload["fitted_value"] == pytest.approx(0.5545, abs=2e-3)
    assert abs(payload["residual_vnm"]) < 0.05


def test_fit_z_out_of_range_exits_4(capsys):
    assert main(["fit-z", "--species", "si3", "--target", "99"]) == 4
    assert "achievable" in capsys.readouterr().err


def test_fit_ie_json(capsys):
    assert main(["fit-ie", "--species", "si3", "--target", "17.7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["parameter"] == "I2"
    assert 15.70 <= payload["fitted_value"] <= 15.90
    assert payload["fitted_value"] == pytest.approx(15.737, abs=0.01)


def test_scan_csv(capsys):
    assert main(["scan", "--species", "si3", "--parameter", "phi",
                 "--values", "3.92"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "parameter,value,f50_Vnm"
    parameter, value, f50 = lines[1].split(",")
    assert parameter == "phi"
    assert float(value) == pytest.approx(3.92)
    assert float(f50) == pytest.approx(15.7830, abs=2e-3)


def test_scan_reports_a_crossover_jump(capsys):
    # at m_q 100000 the Si3 CSR leaps over 0.5 where the launch reaches the hump
    assert main(["scan", "--species", "si3", "--parameter", "m_q", "--values", "100000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("pfikit: error: Si3: CSR jumps over 0.5 near 20.892 V/nm "
                            "(reaches 0.1751); the crossover is discontinuous\n")


def test_phi_flag_and_phi_scan_share_one_bound(capsys):
    # Environment owns the (0, 10] bound, so a scanned work function outside it exits 2
    # before any F50 is solved, with the message of --phi, also after good values
    for argv in (["scan", "--species", "si3", "--parameter", "phi", "--values", "12"],
                 ["scan", "--species", "si3", "--parameter", "phi", "--values",
                  "4.9,5.0,5.1,12"],
                 ["scan", "--species", "si3", "--phi", "12", "--parameter", "m_q",
                  "--values", "3"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "pfikit: error: work function 12.0 eV outside (0, 10]\n"


def test_f50_on_an_empty_pair_exits_4(tmp_path, capsys):
    # Si3 with I2 = 18.72 eV: the CSR stays near 0 until the 1+/2+ pair empties
    path = tmp_path / "si3_stiff.json"
    path.write_text('{"name": "Si3", "cluster_size": 3, "mass_amu": 84.255, '
                    '"ie_ladder_ev": [8.22, 18.72, 20.18], "m_q": 3}')
    assert main(["f50", "--species", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pfikit: error: Si3: CSR reaches at most ")
    assert captured.err.count("\n") == 1 and "pair empties" in captured.err


def test_deconv_fixture(fixtures_dir, capsys):
    peaks = os.path.join(fixtures_dir, "si2_overlap_peaks.csv")
    assert main(["deconv", "--peaks", peaks]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["totals"]["Si:1+"] == pytest.approx(99997.1, abs=0.5)
    assert payload["totals"]["Si2:2+"] == pytest.approx(5432.9, abs=0.5)
    assert payload["totals"]["Si4:2+"] == pytest.approx(5991.2, abs=0.5)
    assert payload["residual_norm"] < 50.0


def test_degenerate_matrix_exits_5(tmp_path, capsys):
    peaks = tmp_path / "degenerate.csv"
    peaks.write_text("mz_Da,counts,assignments\n"
                     "75.0,100,As:1:75;As3:3:225\n")
    assert main(["deconv", "--peaks", str(peaks)]) == 5
    assert main(["csr", "--peaks", str(peaks), "--name", "As"]) == 5
    err = capsys.readouterr().err
    assert "rank deficient" in err


def test_csr_raw_and_deconvolved(fixtures_dir, capsys):
    as_peaks = os.path.join(fixtures_dir, "as_peaks.csv")
    assert main(["csr", "--peaks", as_peaks, "--name", "In", "--raw"]) == 0
    raw = json.loads(capsys.readouterr().out)
    assert raw["value"] == pytest.approx(0.0056, abs=1e-6)
    si2_peaks = os.path.join(fixtures_dir, "si2_overlap_peaks.csv")
    assert main(["csr", "--peaks", si2_peaks, "--name", "Si2"]) == 0
    est = json.loads(capsys.readouterr().out)
    assert est["value"] == pytest.approx(0.5432, abs=5e-4)
    assert est["two_sigma"] > 0.0


def test_field_inversion(fixtures_dir, capsys):
    curve = os.path.join(fixtures_dir, "in_curve.csv")
    assert main(["field", "--curve", curve, "--csr", "0.0056",
                 "--two-sigma", "0.0009"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["field_vnm"] == pytest.approx(21.3, abs=0.05)
    lo, hi = payload["interval_vnm"]
    assert lo < payload["field_vnm"] < hi



def test_field_refuses_a_curve_with_a_nan_field(fixtures_dir, tmp_path, capsys):
    with open(os.path.join(fixtures_dir, "in_curve.csv"), newline="") as fh:
        text = fh.read()
    assert "\n24.5," in text
    path = tmp_path / "in_curve.csv"
    path.write_bytes(text.replace("\n24.5,", "\nnan,").encode())
    assert main(["field", "--curve", str(path), "--csr", "0.0271378524"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pfikit: error: ")


def test_resolve_json_and_text(fixtures_dir, capsys):
    config = os.path.join(fixtures_dir, "as_pipeline.json")
    assert main(["resolve", "--config", config, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["flags"]) == 4
    assert payload["flags"][0]["kind"] == "composition_exceeds_nominal"
    assert "As3" in payload["narrative"]
    # the config's own directory is the default base dir
    assert main(["resolve", "--config", config]) == 0
    assert "flags (4):" in capsys.readouterr().out


def test_resolve_needs_the_tabulated_reference_pair(fixtures_dir, tmp_path, capsys):
    # the curves tabulate 2+/(1+ + 2+); another pair cannot be inverted on them
    with open(os.path.join(fixtures_dir, "as_pipeline.json")) as fh:
        config = json.load(fh)
    config["reference"]["charge_pair"] = [2, 1]
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(config))
    assert main(["resolve", "--config", str(path), "--base-dir", fixtures_dir]) == 2
    assert "charge_pair" in capsys.readouterr().err


def _overlap_twice(config, _):
    # 75.0 and 75.1 Da name one ranged peak; resolving it twice took its counts from As+
    # twice (As 1+ read -55482 after)
    overlap = {"shared_mz": 75.0, "anchor": ["As2", 1], "partner_charge": 2,
               "claimant": ["As", 1]}
    config["overlaps"] = [overlap, dict(overlap, shared_mz=75.1)]


def _two_peaks_equally_near(config, peaks):
    # 75.0625 Da lies 0.0625 Da from the 75 Da peak and from one added at 75.125 Da
    with open(peaks, "a") as fh:
        fh.write("75.125,200,As:1:75\n")
    config.update(peaks=peaks)
    config["overlaps"][0].update(shared_mz=75.0625)


# edits of as_pipeline.json that fail a check of run_pipeline after every file is read;
# the peak table given to each edit is as_peaks.csv with an unassigned peak at 300 Da
RESOLVE_FAULTS = [
    pytest.param(lambda c, _: c["overlaps"][0].update(shared_mz=80.0),
                 "no ranged peak at 80 Da", id="shared-mz-not-ranged"),
    pytest.param(lambda c, _: c["curves"].pop("In"),
                 "reference species 'In' has no curve", id="reference-without-curve"),
    pytest.param(lambda c, peaks: (c.update(peaks=peaks),
                                   c["overlaps"][0].update(shared_mz=300.0)),
                 "shared peak at 300 Da has no assignments", id="unassigned-shared-peak"),
    pytest.param(_overlap_twice, "overlaps 0 and 1 both resolve the shared peak at 75 Da",
                 id="shared-peak-resolved-twice"),
    pytest.param(_two_peaks_equally_near,
                 "ranged peaks at 75 and 75.125 Da lie equally near 75.0625 Da",
                 id="shared-mz-between-two-peaks"),
]


@pytest.mark.parametrize("edit,message", RESOLVE_FAULTS)
def test_resolve_refusals_exit_2(edit, message, fixtures_dir, tmp_path, capsys):
    with open(os.path.join(fixtures_dir, "as_pipeline.json")) as fh:
        config = json.load(fh)
    with open(os.path.join(fixtures_dir, "as_peaks.csv")) as fh:
        peaks = tmp_path / "as_peaks.csv"
        peaks.write_text(fh.read() + "300,100,\n")
    edit(config, str(peaks))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["resolve", "--config", str(path), "--base-dir", fixtures_dir]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pfikit: error: {message}\n"


def test_fit_ie_without_a_window_exits_4(tmp_path, capsys):
    # I1 and I3 lie 1e-6 eV apart, so no I2 window keeps the ladder increasing
    path = tmp_path / "si3.json"
    path.write_text('{"name": "Si3", "mass_amu": 84.255, '
                    '"ie_ladder_ev": [8.0, 8.0000005, 8.000001], "m_q": 3}')
    assert main(["fit-ie", "--species", str(path), "--target", "17.7"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("pfikit: error: Si3: I2 window empty after keeping the ladder "
                            "strictly increasing\n")


def test_kellogg_formats(capsys):
    assert main(["kellogg", "--voltage", "5600", "--f0", "35",
                 "--v0", "7000"]) == 0
    assert capsys.readouterr().out.strip() == "28"
    assert main(["kellogg", "--voltage", "5500", "--f0", "35", "--v0", "7000",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["field_vnm"] == pytest.approx(27.5)
    assert main(["kellogg", "--voltage", "5600", "--f0", "35", "--v0", "0"]) == 2


def test_out_file_writes_instead_of_stdout(tmp_path, capsys):
    out = tmp_path / "kellogg.json"
    assert main(["kellogg", "--voltage", "5600", "--f0", "35", "--v0", "7000",
                 "--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["field_vnm"] == pytest.approx(28.0)


def test_assets_dir_override(tmp_path, monkeypatch):
    assets_src = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                              "pfikit", "assets")
    override = tmp_path / "assets"
    shutil.copytree(assets_src, override)
    rh_path = override / "rh.json"
    raw = json.loads(rh_path.read_text())
    raw["species"][0]["mass_amu"] = 99.0
    rh_path.write_text(json.dumps(raw))
    monkeypatch.setenv("PFIKIT_ASSETS", str(override))
    assert builtin_species()["rh"].mass_amu == 99.0
    monkeypatch.delenv("PFIKIT_ASSETS")
    assert builtin_species()["rh"].mass_amu == pytest.approx(102.906)
