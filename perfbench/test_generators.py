"""Input generators: the same seed gives identical inputs, seed 0 the README inputs.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURES = os.path.join(ROOT, "fixtures")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "src", "pfikit", "assets", "isotopes.json")) as _fh:
    ISOTOPES = {name: [(row["mass_number"], row["abundance"]) for row in rows]
                for name, rows in json.load(_fh)["elements"].items()}


def inputs(workload: str, seed: int, pass_index: int = 0) -> list[dict]:
    return workloads.make_inputs(workload, seed, pass_index, ISOTOPES, FIXTURES)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 12345, -3, 2 ** 70])
def test_same_seed_gives_identical_inputs(workload, seed):
    assert json.dumps(inputs(workload, seed, 1)) == json.dumps(inputs(workload, seed, 1))
    assert json.dumps(inputs(workload, seed)) == json.dumps(inputs(workload, seed))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_and_passes_differ(workload):
    assert json.dumps(inputs(workload, 1)) != json.dumps(inputs(workload, 2))
    assert json.dumps(inputs(workload, 1, 0)) != json.dumps(inputs(workload, 1, 1))


def test_seed0_curve_sweep_is_the_readme_sweep():
    tasks = inputs("curve-sweep", 0)
    assert [(t["species"], t["zmodel"]) for t in tasks] == [
        (s, z) for s in ("si", "si2", "si3", "rh") for z in ("kingham", "si3", "si4")]
    for t in tasks:
        assert t["grid"] == [5.0, 38.0, 0.1]
        assert t["phi_ev"] == (4.8 if t["species"] == "rh" else 4.9)
        assert t["readme"]


def test_jittered_sweep_keeps_the_point_count():
    for seed in range(1, 20):
        for t in inputs("curve-sweep", seed):
            low, high, step = t["grid"]
            assert 5.0 <= low < 5.0 + step and high - low == pytest.approx(33.0)
            assert abs(t["phi_ev"] - (4.8 if t["species"] == "rh" else 4.9)) <= 0.05
            assert not t["readme"]


def test_workloads_stay_clear_of_the_known_defects():
    defects = [(name, fields[0]) for _, name, _, _, _, fields in workloads.KNOWN_DEFECTS]
    lowest_defect_vnm = min(field for name, field in defects if name != "si4")
    assert ("si4", 19.6) in defects
    for seed in range(20):
        for workload in ("curve-sweep", "calibrate"):
            for t in inputs(workload, seed, seed % 3):
                assert t["species"] != "si4"
                if "grid" in t:
                    assert t["grid"][1] < lowest_defect_vnm - 2.0


def test_seed0_calibrate_holds_the_readme_calls():
    tasks = inputs("calibrate", 0)
    f50 = [(t["species"], t["zmodel"], t["phi_ev"]) for t in tasks if t["kind"] == "f50"]
    assert len(f50) == 36
    assert ("si", "kingham", 4.9) in f50 and ("rh", "kingham", 4.8) in f50
    fits = [(t["kind"], t["species"], t["target_vnm"]) for t in tasks
            if t["kind"].startswith("fit")]
    assert fits == [("fit_z", "si3", 17.7), ("fit_ie", "si3", 17.7)]
    scans = [(t["parameter"], t["values"]) for t in tasks if t["kind"] == "scan"]
    assert scans == [("m_q", [3, 5, 7, 9]), ("phi", [4.7, 4.8, 4.9, 5.0, 5.1])]


def test_seed0_spectrum_holds_the_readme_fixtures():
    tasks = inputs("spectrum", 0)
    si2 = tasks[0]
    assert si2["fixture"] == "si2_overlap_peaks.csv" and si2["readme"]
    assert si2["peaks"] == workloads.read_peak_rows(os.path.join(FIXTURES, si2["fixture"]))
    for name in ("as_pipeline.json", "consistent_pipeline.json"):
        runs = [t for t in tasks if t["kind"] == "pipeline" and t["fixture"] == name]
        with open(os.path.join(FIXTURES, name)) as fh:
            peaks = workloads.read_peak_rows(os.path.join(FIXTURES, json.load(fh)["peaks"]))
        assert runs[0]["readme"] and runs[0]["peaks"] == peaks
        assert not any(t["readme"] for t in runs[1:])


def test_synthetic_spectra_cover_both_classes():
    tasks = [t for t in inputs("spectrum", 7) if t["kind"] == "spectrum" and "truth" in t
             and t.get("fixture") is None]
    degenerate = [t for t in tasks if t["degenerate"]]
    noiseless = [t for t in tasks if t["noiseless"]]
    assert degenerate and noiseless and len(degenerate) < len(tasks) / 2
    for t in tasks:
        charges = {q for _, q, _ in t["truth"]}
        assert charges <= {1, 2, 3}
        for mz, counts, assignments in t["peaks"]:
            assert counts >= 0.0 and assignments
            for a in assignments:
                _, charge, mass = a.split(":")
                assert abs(mz - int(mass) / int(charge)) < 1e-6


def test_metric_names_and_units_match_benchmark_json():
    import run
    import spans

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    record = run.Record("curve", "si/kingham", 0.0, 1.0, True, True, 331, "", [], 1.0)
    e2e, _ = run.end_to_end("curve-sweep", [record], {"setup_s": [0.8], "setup_wall_s": [0.9]})
    assert {k: u for k, (_, u) in e2e.items()} == {
        m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = spans.layer_metrics([], 1.0, 0.0, {"import_s": 0.7, "load_s": 0.01}, 0.0, 3)
    assert {k: u for k, (_, u) in layers.items()} == {
        m["name"]: m["unit"] for m in bench["per_layer"]}


def test_outcomes_are_classified_and_reported(capsys):
    import hostspeed
    import run
    from workloads import Op

    class Degenerate(Exception):
        pass

    def boom():
        raise ValueError("no result")

    def degenerate():
        raise Degenerate("expected")

    ops = [
        Op("x", "fine", lambda: 1, lambda r: []),
        Op("x", "raises", boom, lambda r: []),
        Op("x", "misses the model", lambda: 1, lambda r: [], lambda r: ["falls"]),
        Op("x", "wrong", lambda: 1, lambda r: ["wrong number"]),
        Op("x", "expected error", degenerate, lambda r: [], expect=Degenerate),
        Op("x", "no expected error", lambda: 1, lambda r: [], expect=Degenerate),
    ]
    records = run.run_pass(ops, hostspeed.HostProbe())
    assert [(r.ok, r.completed) for r in records] == [
        (True, True), (False, False), (False, True), (False, True), (True, True),
        (False, True)]
    assert all(r.norm > 0.0 for r in records)
    assert run.report(records, [], {"work_per_s": (1.0, "1/s")}) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result == {"correct": False, "attempted": 6, "failed": 4,
                      "metrics": {"work_per_s": {"value": 1.0, "unit": "1/s"}}}
    assert run.report(records[:3], [], {}) == 0
