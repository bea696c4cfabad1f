"""CSR curves, F50 crossovers, curve inversion, and CSV round trips."""

from __future__ import annotations

import io
import math
import os

import numpy as np
import pytest

from pfikit import (
    KINGHAM_Z,
    AmbiguityError,
    BracketError,
    CrossoverResult,
    DomainError,
    Environment,
    FieldGrid,
    KinghamCurve,
    NumericalError,
    charge_fractions,
    csr_from_fractions,
    csr_to_field,
    evaluate_csr,
    find_f50,
    generate_curve,
    read_curve_csv,
    write_curve_csv,
)
from pfikit import curves

F50_ANCHORS = {
    "si": 19.8155,
    "si2": 18.0904,
    "si3": 14.4225,
    "si4": 13.0518,
}


def test_csr_from_fractions_conventions():
    assert csr_from_fractions((0.25, 0.75)) == pytest.approx(0.75)
    # all ions promoted past the pair: the higher state wins
    assert csr_from_fractions((0.0, 0.0, 1.0)) == 1.0


@pytest.mark.parametrize("name", sorted(F50_ANCHORS))
def test_silicon_family_crossovers(species_table, si_env, f50, name):
    assert f50(species_table[name], si_env) == pytest.approx(
        F50_ANCHORS[name], abs=2e-3)


def test_rhodium_crossover(species_table, rh_env, f50):
    assert f50(species_table["rh"], rh_env) == pytest.approx(24.6889, abs=2e-3)


def test_cluster_crossovers_fall_with_size(species_table, si_env, f50):
    values = [f50(species_table[n], si_env) for n in ("si4", "si3", "si2", "si")]
    assert values == sorted(values)


def test_crossover_result_is_validated():
    with pytest.raises(NumericalError):
        CrossoverResult(20.0, (5.0, 45.0), 0.6)
    with pytest.raises(NumericalError):
        CrossoverResult(50.0, (5.0, 45.0), 0.5)


def test_find_f50_reports_unreachable_bracket(species_table, si_env):
    with pytest.raises(BracketError) as exc_info:
        find_f50(species_table["si"], si_env, KINGHAM_Z, search_vnm=(5.0, 10.0))
    lo, hi = exc_info.value.achievable
    assert lo < 0.5 and hi < 0.5


def test_find_f50_rejects_bad_search_range(species_table, si_env):
    with pytest.raises(DomainError):
        find_f50(species_table["si"], si_env, KINGHAM_Z, search_vnm=(30.0, 10.0))
    with pytest.raises(DomainError):
        find_f50(species_table["si"], si_env, KINGHAM_Z, search_vnm=(5.0, 80.0))


def test_f50_is_the_lowest_upward_crossing(species_table):
    # Rh under Kingham Z at 4.7 eV reaches 0.5 three times: a proper crossing near
    # 24.9 V/nm, a fall near 39.6 and a jump back near 41.4
    rh, env = species_table["rh"], Environment(work_function_ev=4.7)
    assert evaluate_csr(rh, env, KINGHAM_Z, 39.6) > 0.5 > evaluate_csr(rh, env, KINGHAM_Z, 39.65)
    assert evaluate_csr(rh, env, KINGHAM_Z, 41.4) < 0.5 < evaluate_csr(rh, env, KINGHAM_Z, 41.45)
    result = find_f50(rh, env, KINGHAM_Z)
    assert result.f50_vnm == pytest.approx(24.8553, abs=5e-5)
    lo, hi = result.bracket_vnm
    assert lo < 24.8553 < hi


@pytest.mark.parametrize("name", ["si", "si2", "si3", "rh"])
def test_f50_takes_at_most_eight_fraction_calls(species_table, monkeypatch, name):
    # one batched bracket call, then Brent's steps inside its cell
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return charge_fractions(*args)

    monkeypatch.setattr(curves, "charge_fractions", counted)
    find_f50(species_table[name], Environment(work_function_ev=4.9), KINGHAM_Z)
    assert len(calls) <= 8
    assert np.size(calls[0]) == curves.F50_PROBES


def test_discontinuous_crossover_is_refused(species_table, si_env):
    # with I2 pushed up the CSR stays near 0 until f1 and f2 both reach 0 at
    # 32.737 V/nm, where the empty 1+/2+ pair reads 1.0: a jump, not a crossing
    stiff = species_table["si3"].with_ie(2, 18.72)
    with pytest.raises(NumericalError, match="discontinuous"):
        find_f50(stiff, si_env, KINGHAM_Z)


def test_grid_halving_leaves_inversion_stable(species_table, si_env):
    si = species_table["si"]
    coarse = generate_curve(si, si_env, KINGHAM_Z, FieldGrid(17.0, 22.0, 0.25))
    fine = generate_curve(si, si_env, KINGHAM_Z, FieldGrid(17.0, 22.0, 0.125))
    f_coarse = csr_to_field(coarse, 0.5).field_vnm
    f_fine = csr_to_field(fine, 0.5).field_vnm
    assert f_coarse == pytest.approx(f_fine, abs=1e-3)


def test_inversion_recovers_the_forward_model(species_table, si_env, f50):
    si = species_table["si"]
    curve = generate_curve(si, si_env, KINGHAM_Z, FieldGrid(17.0, 22.0, 0.25))
    crossover = f50(si, si_env)
    assert csr_to_field(curve, 0.5).field_vnm == pytest.approx(crossover, abs=1e-3)
    # a mid-run point away from the crossover inverts just as cleanly
    target = evaluate_csr(si, si_env, KINGHAM_Z, 20.6)
    assert csr_to_field(curve, target).field_vnm == pytest.approx(20.6, abs=1e-3)


def test_inversion_refuses_extrapolation(species_table, si_env):
    curve = generate_curve(species_table["si"], si_env, KINGHAM_Z,
                           FieldGrid(17.0, 19.0, 0.5))
    lo, hi = curve.csr.min(), curve.csr.max()
    with pytest.raises(DomainError):
        csr_to_field(curve, hi + 0.05)
    with pytest.raises(DomainError):
        csr_to_field(curve, lo - 0.05)


def _synthetic_curve(grid, ratios):
    rows = tuple((1.0 - c, c, 0.0) for c in ratios)
    return KinghamCurve("synthetic", grid, rows, tuple(ratios))


def test_inversion_flags_ambiguous_values():
    curve = _synthetic_curve((10.0, 11.0, 12.0), (0.2, 0.6, 0.3))
    with pytest.raises(AmbiguityError) as exc_info:
        csr_to_field(curve, 0.5)
    assert len(exc_info.value.branches) == 2
    # but a value reached on one branch only still inverts
    assert csr_to_field(curve, 0.25).field_vnm == pytest.approx(10.125, abs=1e-9)


def test_inversion_flags_flat_curves():
    curve = _synthetic_curve((10.0, 11.0, 12.0), (0.5, 0.5, 0.5))
    with pytest.raises(DomainError, match="flat"):
        csr_to_field(curve, 0.5)


def test_counting_band_is_tight_mid_curve(species_table, si_env):
    # a 10^4-ion sample puts the two-sigma field band within +/- 1 %
    si = species_table["si"]
    curve = generate_curve(si, si_env, KINGHAM_Z, FieldGrid(18.5, 21.0, 0.25))
    two_sigma = 2.0 * math.sqrt(0.5 * 0.5 / 10000.0)
    est = csr_to_field(curve, 0.5, two_sigma=two_sigma)
    lo, hi = est.interval_vnm
    assert lo < est.field_vnm < hi
    assert (hi - lo) / est.field_vnm <= 0.02


def test_counting_band_clamps_to_the_run(species_table, si_env):
    curve = generate_curve(species_table["si"], si_env, KINGHAM_Z,
                           FieldGrid(18.5, 21.0, 0.25))
    est = csr_to_field(curve, 0.5, two_sigma=0.45)
    lo, hi = est.interval_vnm
    assert curve.field_grid_vnm[0] <= lo < hi <= curve.field_grid_vnm[-1]
    with pytest.raises(DomainError):
        csr_to_field(curve, 0.5, two_sigma=-0.1)


def test_curve_csv_round_trip(tmp_path, species_table, si_env):
    si2 = species_table["si2"]
    curve = generate_curve(si2, si_env, KINGHAM_Z, FieldGrid(16.0, 20.0, 0.5))
    path = tmp_path / "si2_curve.csv"
    write_curve_csv(curve, path)
    back = read_curve_csv(path)
    assert not (back.field_grid_vnm.flags.writeable or back.fractions.flags.writeable
                or back.csr.flags.writeable)
    assert back.species_name == curve.species_name
    assert back.field_grid_vnm == pytest.approx(curve.field_grid_vnm, rel=1e-8)
    assert back.csr == pytest.approx(curve.csr, rel=1e-8, abs=1e-12)
    for row, orig in zip(back.fractions, curve.fractions):
        # construction already proved each row sums to 1 within 1e-12
        assert row[:len(orig)] == pytest.approx(orig, rel=1e-8, abs=1e-12)


def test_curve_csv_bytes(tmp_path):
    # an LF after the comment line, CRLF after every other line, %.9g cells, f3 = 0
    two_state = KinghamCurve("Si", (10.0, 12.5), ((0.75, 0.25, 0.0), (1 / 3, 2 / 3, 0.0)),
                             (0.25, 2 / 3))
    three_state = KinghamCurve("Si2", (20.0, 21.25, 22.5),
                               ((0.1, 0.7, 0.2), (1e-10, 0.5, 0.5 - 1e-10), (0.0, 0.0, 1.0)),
                               (0.875, 0.9999999998, 1.0))
    expected = (
        (two_state, "# species: Si\nfield_Vnm,f1,f2,f3,csr\r\n"
                    "10,0.75,0.25,0,0.25\r\n"
                    "12.5,0.333333333,0.666666667,0,0.666666667\r\n"),
        (three_state, "# species: Si2\nfield_Vnm,f1,f2,f3,csr\r\n"
                      "20,0.1,0.7,0.2,0.875\r\n"
                      "21.25,1e-10,0.5,0.5,1\r\n"
                      "22.5,0,0,1,1\r\n"),
    )
    for curve, text in expected:
        stream = io.StringIO(newline="")
        curves.dump_curve_csv(curve, stream)
        assert stream.getvalue() == text
        path = tmp_path / f"{curve.species_name}.csv"
        write_curve_csv(curve, path)
        assert path.read_bytes() == text.encode()


def test_reader_gives_each_rows_residue_to_its_largest_fraction(fixtures_dir):
    # the row-by-row rule the array reader replaces, as its bit-for-bit reference
    for name in ("in_curve.csv", "as3_curve.csv"):
        path = os.path.join(fixtures_dir, name)
        raw = np.loadtxt(path, delimiter=",", skiprows=2)
        for row, got in zip(raw[:, 1:4].tolist(), read_curve_csv(path).fractions.tolist()):
            row[row.index(max(row))] += 1.0 - sum(row)
            assert got == row


def _monotone_runs_walk(values):
    """The scalar walk that ``curves._monotone_runs`` replaces, as its reference."""
    runs, i = [], 0
    while i < len(values) - 1:
        if values[i + 1] == values[i]:
            i += 1
            continue
        sign = 1.0 if values[i + 1] > values[i] else -1.0
        j = i + 1
        while j < len(values) - 1 and sign * (values[j + 1] - values[j]) > 0.0:
            j += 1
        runs.append([i, j])
        i = j
    return runs


def test_monotone_runs_match_the_scalar_walk():
    rng = np.random.default_rng(5)
    for n in range(1, 40):
        values = rng.integers(0, 4, n).astype(float)  # repeated values make flat steps
        assert curves._monotone_runs(values).tolist() == _monotone_runs_walk(values)


def test_curve_csv_reader_validates(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("field_Vnm,f1,f2\n10,0.5,0.5\n")
    with pytest.raises(DomainError, match="header"):
        read_curve_csv(bad_header)
    empty = tmp_path / "empty.csv"
    empty.write_text("field_Vnm,f1,f2,f3,csr\n")
    with pytest.raises(DomainError, match="no data"):
        read_curve_csv(empty)


def test_curve_validation_rejects_bad_rows():
    with pytest.raises(DomainError):
        KinghamCurve("x", (10.0, 9.0), ((1.0, 0.0, 0.0),) * 2, (0.0, 0.0))
    with pytest.raises(DomainError):
        KinghamCurve("x", (10.0, 11.0), ((0.7, 0.2, 0.0),) * 2, (0.0, 0.0))
    with pytest.raises(DomainError):
        KinghamCurve("x", (10.0, 11.0), ((1.0, 0.0, 0.0),) * 2, (0.0, 1.5))
    # NaN compares false and inf is ascending, so each check must ask for the good case
    row = (1.0, 0.0, 0.0)
    for grid, rows in (((10.0, math.nan, 12.0), (row,) * 3),
                       ((10.0, 11.0, math.inf), (row,) * 3),
                       ((10.0, 11.0), (row, (1.5, -0.5, 0.0))),
                       ((10.0, 11.0), (row, (math.nan, 0.0, 0.0)))):
        with pytest.raises(DomainError):
            KinghamCurve("x", grid, rows, (0.0,) * len(grid))


def test_field_grid_points_hit_both_ends():
    grid = FieldGrid(5.0, 45.0, 0.1)
    pts = grid.points()
    assert pts[0] == 5.0
    assert pts[-1] == pytest.approx(45.0, abs=1e-9)
    assert len(pts) == 401
    with pytest.raises(DomainError):
        FieldGrid(10.0, 5.0, 0.1)
    with pytest.raises(DomainError):
        FieldGrid(5.0, 45.0, 0.0)


def test_field_grid_point_count_is_bounded_before_building():
    # 10^5 points pass; a step that would make 4e10 points is refused up front
    assert len(FieldGrid(5.0, 45.0, 0.0004).points()) == 100_001
    for step in (1e-9, 1e-320, 40.0 / curves.MAX_GRID_POINTS):
        with pytest.raises(DomainError, match="more than"):
            FieldGrid(5.0, 45.0, step)
