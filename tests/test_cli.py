"""End-to-end command-line interface checks (in-process)."""

from __future__ import annotations

import json
import os
import shutil

import pytest

from pfikit import builtin_species, read_curve_csv
from pfikit.cli import main


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


def test_config_validation_exits_2(capsys):
    assert main(["f50", "--species", "si", "--phi", "0.0"]) == 2
    assert main(["f50", "--species", "si", "--grid", "abc"]) == 2
    assert main(["f50", "--species", "si", "--grid", "5:45:nan"]) == 2
    assert main(["f50", "--species", "si", "--grid", "5:45:inf"]) == 2
    assert capsys.readouterr().err.count("pfikit: error") == 4


@pytest.mark.parametrize("text,argv", [
    (None, ["deconv", "--peaks", "{path}"]),
    ("mz_Da,counts,assignments\nabc,100,Si:1:28\n", ["deconv", "--peaks", "{path}"]),
    ("field_Vnm,f1,f2,f3,csr\n10,0.5,0.5\n", ["field", "--csr", "0.5", "--curve", "{path}"]),
    ("mz_Da,counts,assignments\n28,100,Si:1:28\n",
     ["deconv", "--peaks", "{path}", "--isotopes", "{path}.json"]),
], ids=["missing-peaks", "bad-mz", "short-curve-row", "missing-isotopes"])
def test_unreadable_inputs_exit_2(text, argv, tmp_path, capsys):
    path = tmp_path / "input.csv"
    if text is not None:
        path.write_text(text)
    assert main([arg.format(path=path) for arg in argv]) == 2
    assert "pfikit: error:" in capsys.readouterr().err


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
