"""End-to-end command-line interface checks (in-process)."""

from __future__ import annotations

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import warnings

import pytest

import pfikit
from pfikit import builtin_species, read_curve_csv
from pfikit.cli import main
from pfikit.species import asset_path


def test_f50_json(capsys):
    assert main(["f50", "--species", "rh", "--phi", "4.8",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["Rh"]["f50_vnm"] == pytest.approx(24.6889, abs=2e-3)


def test_f50_unknown_species(capsys):
    assert main(["f50", "--species", "unobtainium"]) == 2
    assert "unknown species" in capsys.readouterr().err


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
    ("--species", "-1"),
    ("--species", '{"species": 5}'),
    # a string ladder is not split into (7, 9), nor a fractional m_q truncated to 3
    ("--species", '{%s, "ie_ladder_ev": "79", "m_q": 3}' % SI_ENTRY),
    ("--species", '{%s, "ie_ladder_ev": [8.15, 16.35], "m_q": 3.9}' % SI_ENTRY),
], ids=["infinite-c0", "nan-c1", "c0-below-minus-1", "species-number", "species-not-a-list",
        "string-ladder", "fractional-m-q"])
def test_malformed_model_files_exit_2(flag, text, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(text)
    species = [] if flag == "--species" else ["--species", "si"]
    assert main(["f50", *species, flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pfikit: error: ")


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


def test_curves_multiple_species_need_out(capsys):
    assert main(["curves", "--species", "si", "--species", "si2"]) == 2
    assert "--out" in capsys.readouterr().err


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
