"""Field estimation, overlap resolution, and the consistency audit."""

from __future__ import annotations

import dataclasses
import os

import pytest

from pfikit import (
    Assignment,
    ConfigError,
    DomainError,
    FLAG_KINDS,
    OverlapCase,
    Peak,
    RangedPeakSet,
    audit_consistency,
    csr_to_field,
    fraction_at,
    kellogg_field,
    load_pipeline_config,
    raw_csr,
    read_curve_csv,
    read_peaks_csv,
    resolve_overlap,
    run_pipeline,
)


# the first overlap of as_pipeline.json: As+ and As2 2+ share the 75 Da peak, and the
# As 2+ anchor predicts its As+ partner
CASE = OverlapCase(75.0, ("As", 2), 1, ("As2", 2))


@pytest.fixture(scope="module")
def as_report(fixtures_dir):
    config = load_pipeline_config(os.path.join(fixtures_dir, "as_pipeline.json"))
    return run_pipeline(config, base_dir=fixtures_dir)


def test_kellogg_rescaling():
    assert kellogg_field(7000.0, 35.0, 7000.0) == pytest.approx(35.0)
    assert kellogg_field(5500.0, 35.0, 7000.0) == pytest.approx(27.5)
    assert kellogg_field(5600.0, 35.0, 7000.0) == pytest.approx(28.0)
    with pytest.raises(DomainError):
        kellogg_field(5600.0, 35.0, 0.0)
    with pytest.raises(DomainError):
        kellogg_field(5600.0, -35.0, 7000.0)


def test_field_estimate_from_reference_species(fixtures_dir):
    peak_set = read_peaks_csv(os.path.join(fixtures_dir, "as_peaks.csv"))
    reference = raw_csr(peak_set, "In")
    assert reference.value == pytest.approx(392.0 / 70000.0, rel=1e-12)
    curve = read_curve_csv(os.path.join(fixtures_dir, "in_curve.csv"))
    estimate = csr_to_field(curve, reference.value, reference.two_sigma)
    assert estimate.field_vnm == pytest.approx(21.3, abs=0.05)
    lo, hi = estimate.interval_vnm
    assert lo < estimate.field_vnm < hi
    assert hi - lo < 0.5


def test_fraction_at_interpolates_columns(fixtures_dir):
    curve = read_curve_csv(os.path.join(fixtures_dir, "as_curve.csv"))
    f1 = fraction_at(curve, 21.3, 1)
    f2 = fraction_at(curve, 21.3, 2)
    assert f1 + f2 == pytest.approx(1.0, abs=1e-9)
    assert f2 / (f1 + f2) == pytest.approx(0.0143, abs=2e-4)
    # charges beyond the stored columns carry nothing
    assert fraction_at(curve, 21.3, 5) == 0.0
    with pytest.raises(DomainError):
        fraction_at(curve, 999.0, 1)
    with pytest.raises(DomainError):
        fraction_at(curve, 21.3, 0)


def test_resolve_overlap_budget():
    res = resolve_overlap(950.0, 1000.0, 0.2, 0.8, CASE)
    assert res.predicted_counts == pytest.approx(250.0)
    assert res.assigned_counts == pytest.approx(250.0)
    assert res.remainder_counts == pytest.approx(700.0)
    assert res.deficit_counts == 0.0
    assert res.assigned_counts + res.remainder_counts == res.shared_counts
    assert res.case is CASE


def test_resolve_overlap_infeasible_prediction_is_clamped():
    res = resolve_overlap(100.0, 1000.0, 0.9, 0.1, CASE)
    assert res.predicted_counts == pytest.approx(9000.0)
    assert res.assigned_counts == 100.0
    assert res.remainder_counts == 0.0
    assert res.deficit_counts == pytest.approx(8900.0)


def test_resolve_overlap_edge_cases():
    # nothing predicted: the claimant keeps the whole peak
    res = resolve_overlap(500.0, 1000.0, 0.0, 0.8, CASE)
    assert res.assigned_counts == 0.0
    assert res.remainder_counts == 500.0
    # an anchor with zero model fraction but observed counts cannot be scaled
    with pytest.raises(DomainError, match="saturates"):
        resolve_overlap(500.0, 1000.0, 0.2, 0.0, CASE)
    # unless the anchor is empty too
    assert resolve_overlap(500.0, 0.0, 0.2, 0.0, CASE).predicted_counts == 0.0
    with pytest.raises(DomainError):
        resolve_overlap(-1.0, 0.0, 0.2, 0.8, CASE)
    with pytest.raises(DomainError):
        resolve_overlap(1.0, 0.0, 1.2, 0.8, CASE)


def test_overlap_case_validation():
    with pytest.raises(DomainError):
        OverlapCase(75.0, ("As", 2), 2, ("As2", 2))
    case = OverlapCase(75.0, ("As", 2), 1, ("As2", 2))
    assert case.partner_charge != case.anchor[1]


def test_audit_is_deterministic():
    peaks = RangedPeakSet((Peak(28.0, 100.0, (Assignment("Si", 1, 28),)),))
    resolved = {("Si", 1): 100.0}
    fractions = {"Si": {1: 0.6, 2: 0.4}}
    first = audit_consistency(peaks, resolved, fractions)
    second = audit_consistency(peaks, resolved, fractions)
    assert first == second


def test_audit_orders_flags_by_kind():
    # a ranged singles-only spectrum against a model that expects doubles
    peaks = RangedPeakSet((Peak(28.0, 100.0, (Assignment("Si", 1, 28),)),))
    resolved = {("Si", 1): 100.0}
    fractions = {"Si": {1: 0.6, 2: 0.4}}
    flags = audit_consistency(peaks, resolved, fractions)
    kinds = [f.kind for f in flags]
    assert kinds == ["missing_expected_peak", "csr_prediction_mismatch"]
    assert flags[0].subject == "Si:2+"
    order = {kind: i for i, kind in enumerate(FLAG_KINDS)}
    assert [order[k] for k in kinds] == sorted(order[k] for k in kinds)


def test_audit_reads_an_empty_model_pair_as_csr_1():
    # every ion promoted past 2+: the model CSR is 1 by convention, and the
    # resolved singles and doubles are compared against it
    peaks = RangedPeakSet((Peak(28.0, 60.0, (Assignment("Si", 1, 28),)),
                           Peak(14.0, 40.0, (Assignment("Si", 2, 28),))))
    resolved = {("Si", 1): 60.0, ("Si", 2): 40.0}
    fractions = {"Si": {1: 0.0, 2: 0.0, 3: 1.0}}
    flags = [f for f in audit_consistency(peaks, resolved, fractions)
             if f.kind == "csr_prediction_mismatch"]
    assert [f.numbers for f in flags] == [(("predicted", 1.0), ("observed", 0.4))]


def test_report_text_reads_an_empty_model_pair_as_csr_1(as_report):
    report = dataclasses.replace(as_report, fractions={"Si": {1: 0.0, 2: 0.0, 3: 1.0}})
    assert "  Si: 1+ 0.0000  2+ 0.0000  3+ 1.0000  csr 1.0000\n" in report.to_text()


def test_as_fixture_reference_and_field(as_report):
    assert as_report.reference_species == "In"
    assert as_report.reference_csr.value == pytest.approx(0.0056, abs=1e-6)
    assert as_report.field.field_vnm == pytest.approx(21.3, abs=0.05)


def test_as_fixture_fraction_table(as_report):
    displayed = {}
    for species, table in as_report.fractions.items():
        f_lo, f_hi = table.get(1, 0.0), table.get(2, 0.0)
        displayed[species] = f"{f_hi / (f_lo + f_hi):.4f}"
    assert displayed["As"] == "0.0143"
    assert displayed["As2"] == "1.0000"
    assert displayed["As3"] == "0.9468"
    assert displayed["As4"] == "1.0000"


def test_as_fixture_raises_exactly_four_flags(as_report):
    kinds = [f.kind for f in as_report.flags]
    assert kinds == [
        "composition_exceeds_nominal",
        "predicted_counts_exceed_peak",
        "unexpected_charge_state_present",
        "csr_prediction_mismatch",
    ]
    subjects = [f.subject for f in as_report.flags]
    assert subjects[0] == "As"
    assert subjects[1].startswith("As:1+")
    assert subjects[2] == "As:3+"
    assert subjects[3] == "As3"


def test_as_fixture_composition_shift(as_report):
    assert as_report.composition_before["As"] == pytest.approx(0.4650, abs=1e-3)
    assert as_report.composition_after["As"] == pytest.approx(0.5300, abs=1e-3)
    assert as_report.composition_after["As"] > 0.5


def test_as_fixture_count_budget(as_report):
    first, second = as_report.resolutions
    # the predicted singles swamp the shared 75 Da peak
    assert first.deficit_counts > 0.0
    assert first.assigned_counts == first.shared_counts == 55482.0
    assert first.remainder_counts == 0.0
    # the drained dimer anchor predicts nothing at 150 Da
    assert second.predicted_counts == 0.0
    assert second.remainder_counts == second.shared_counts == 16330.0
    after = as_report.counts_after
    assert after[("As", 1)] == 55482.0
    assert after[("As2", 2)] == 0.0
    assert after[("As2", 1)] == 0.0
    assert after[("As4", 2)] == 16330.0
    assert after[("As", 3)] == 1200.0


def test_as_fixture_narrative_and_serializations(as_report):
    narrative = as_report.narrative()
    assert "As3" in narrative
    assert "exceeds the peak" in narrative
    text = as_report.to_text()
    assert "flags (4):" in text
    payload = as_report.to_json()
    assert '"composition_exceeds_nominal"' in payload
    assert payload == as_report.to_json()


def test_consistent_fixture_is_flag_free(fixtures_dir):
    config = load_pipeline_config(
        os.path.join(fixtures_dir, "consistent_pipeline.json"))
    report = run_pipeline(config, base_dir=fixtures_dir)
    assert report.flags == ()
    assert report.counts_after == report.counts_before


def test_pipeline_config_validation(fixtures_dir, tmp_path):
    with pytest.raises(ConfigError):
        run_pipeline({"peaks": "x.csv"}, base_dir=fixtures_dir)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_pipeline_config(bad)
