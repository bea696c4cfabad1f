"""CSR curves, F50 crossovers, curve inversion, and CSV round trips."""

from __future__ import annotations

import dataclasses
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
    fractions_at,
    generate_curve,
    read_curve_csv,
    write_curve_csv,
)
from pfikit import curves
from pfikit._numerics import DENSE, STENCIL

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


# the near-zone piece [z_c, z_hi] of step 1->2 is 2e-4 a.u. wide at 39.6 V/nm and gone at
# 39.7 V/nm, where the zone's weight and Coulomb factor switch off together
RH_NEAR_ZONE_CLOSES = pytest.mark.xfail(
    strict=True, reason="Rh under Kingham Z at 4.7 eV: the CSR falls from 1 to 0.7338 at "
    "39.6 V/nm, where the near zone of step 1->2 closes")


@pytest.mark.parametrize("name, zname, phi", [
    pytest.param(name, zname, phi, marks=RH_NEAR_ZONE_CLOSES)
    if (name, zname, phi) == ("rh", "kingham", 4.7) else (name, zname, phi)
    for name in ("si", "si2", "si3", "si4", "rh") for zname in ("kingham", "si3", "si4")
    for phi in (4.7, 4.8, 4.9, 5.0, 5.1)])
def test_csr_does_not_fall_with_field(species_table, named_zmodels, name, zname, phi):
    # every shipped species under every named Z model, at lambda 0 on the default grid
    curve = generate_curve(species_table[name], Environment(phi), named_zmodels[zname])
    falls = np.flatnonzero(np.diff(curve.csr) < 0.0)
    assert not falls.size, (f"CSR falls from {curve.csr[falls[0]]:.4g} to "
                            f"{curve.csr[falls[0] + 1]:.4g} at "
                            f"{curve.field_grid_vnm[falls[0] + 1]:.4g} V/nm")


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


def test_f50_ignores_a_fall_back_below_half_before_the_range_ends(species_table, si_env):
    # with I2 = 19.0 eV the Si CSR crosses 0.5 upward near 27.5 V/nm, the only upward
    # crossing, and falls back to about 2e-4 by 42.5 V/nm with its 1+/2+ pair full
    si = species_table["si"].with_ie(2, 19.0)
    fields = np.linspace(5.0, 45.0, 801)
    fractions = charge_fractions(si, si_env, KINGHAM_Z, fields)
    csr = csr_from_fractions(fractions)
    assert (fractions[0] + fractions[1] > 0.99).all() and csr[-1] < 1e-3
    assert np.flatnonzero((csr[:-1] < 0.5) & (csr[1:] >= 0.5)).tolist() == [449]
    result = find_f50(si, si_env, KINGHAM_Z)
    assert result.f50_vnm == pytest.approx(27.4995, abs=5e-5)
    assert result.bracket_vnm == (25.0, 27.5)


@pytest.mark.parametrize("name,phi", [("si", 4.9), ("si2", 4.9), ("si3", 4.9), ("si4", 4.9),
                                      ("rh", 4.8)])
def test_f50_takes_at_most_five_fraction_calls(species_table, monkeypatch, name, phi):
    # the bracket call on F50_PROBES fields, a dense round of DENSE fields close around the
    # interpolated root, and one round of STENCIL fields that straddles it within the
    # tolerance: three calls (the name keeps the bound of the earlier solver)
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return charge_fractions(*args)

    monkeypatch.setattr(curves, "charge_fractions", counted)
    find_f50(species_table[name], Environment(work_function_ev=phi), KINGHAM_Z)
    assert len(calls) == 3
    assert [np.size(fields) for fields in calls] == [curves.F50_PROBES, DENSE, STENCIL]


def test_default_curve_is_one_fraction_call(species_table, si_env, monkeypatch):
    # FIELD_BLOCK holds every shipped grid, so the kernel's set-up is paid once per curve
    calls = []

    def counted(*args):
        calls.append(np.size(args[-1]))
        return charge_fractions(*args)

    monkeypatch.setattr(curves, "charge_fractions", counted)
    generate_curve(species_table["si"], si_env, KINGHAM_Z)
    assert calls == [401]


def test_f50s_of_no_problems_are_none():
    assert curves.find_f50s((), (), ()) == ()


def test_empty_pair_is_an_unreachable_bracket(species_table, si_env, monkeypatch):
    # with I2 pushed up the CSR peaks near 0.02, and by the 32.5 V/nm probe f1 + f2 has
    # fallen below EMPTY_PAIR_FLOOR; the empty pair's 0 -> 1 flip is no crossing, so the
    # bracket call alone refuses it and Brent's method never runs
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return charge_fractions(*args)

    monkeypatch.setattr(curves, "charge_fractions", counted)
    stiff = species_table["si3"].with_ie(2, 18.72)
    with pytest.raises(BracketError, match=r"^Si3: CSR reaches at most 0\.02219 below 32\.5 "
                       r"V/nm, where the 1\+/2\+ pair empties; no 0\.5 crossing") as exc_info:
        find_f50(stiff, si_env, KINGHAM_Z)
    assert len(calls) == 1
    lo, hi = exc_info.value.achievable
    assert 0.0 <= lo < hi == pytest.approx(0.02219, abs=1e-5)


def test_empty_pair_at_the_first_probe_is_refused(species_table, si_env):
    stiff = species_table["si3"].with_ie(2, 18.72)
    with pytest.raises(BracketError, match=r"CSR has no value below 40 V/nm") as exc_info:
        find_f50(stiff, si_env, KINGHAM_Z, search_vnm=(40.0, 45.0))
    assert exc_info.value.achievable is None


def test_crossover_jump_of_a_full_pair_is_refused(species_table, si_env):
    # with very slow hopping, P(1->2) leaps from 0.16 to 1 between 20.89 and 20.90 V/nm,
    # where the launch reaches the hump; f1 + f2 stays 1, so this is no empty pair
    slow = dataclasses.replace(species_table["si3"], m_q=100000)
    f1, f2, _ = charge_fractions(slow, si_env, KINGHAM_Z, np.array([20.89, 20.90]))
    assert f2[0] == pytest.approx(0.1625, abs=1e-4) and f2[1] == pytest.approx(1.0)
    assert f1 + f2 == pytest.approx([1.0, 1.0], abs=1e-6)
    with pytest.raises(NumericalError, match=r"^Si3: CSR jumps over 0\.5 near 20\.892 V/nm "
                       r"\(reaches 0\.1751\); the crossover is discontinuous$"):
        find_f50(slow, si_env, KINGHAM_Z)


def test_inversion_skips_an_empty_pair(species_table, si_env):
    # the CSR peaks at 0.318 and the pair empties from 28.0 V/nm, where its 0 -> 1 flip
    # would otherwise invert as a branch at 28.45 V/nm
    curve = generate_curve(species_table["si3"].with_ie(2, 17.64), si_env, KINGHAM_Z)
    full = curve.fractions[:, 0] + curve.fractions[:, 1] >= curves.EMPTY_PAIR_FLOOR
    assert curve.csr[full].max() == pytest.approx(0.318, abs=1e-3)
    assert curve.field_grid_vnm[full.argmin()] == pytest.approx(28.0)
    for csr in (0.5, 0.99):
        with pytest.raises(DomainError, match=r"only where the 1\+/2\+ pair is empty, from 28 "):
            csr_to_field(curve, csr, 0.01)
    # 0.2 lies on the rise and the fall before 28 V/nm, not on the flip
    with pytest.raises(AmbiguityError) as exc_info:
        csr_to_field(curve, 0.2)
    assert len(exc_info.value.branches) == 2 and exc_info.value.branches[-1][1] < 28.0


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
        assert curves.curve_csv(curve) == text
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


def test_a_curve_without_rows_is_refused():
    with pytest.raises(DomainError, match=r"at least one field point \(N >= 1\)"):
        KinghamCurve("x", (), np.zeros((0, 3)), ())


def test_fractions_at_interpolates_columns(fixtures_dir):
    curve = read_curve_csv(os.path.join(fixtures_dir, "as_curve.csv"))
    f1, f2, _ = fractions_at(curve, 21.3)
    assert f1 + f2 == pytest.approx(1.0, abs=1e-9)
    assert f2 / (f1 + f2) == pytest.approx(0.0143, abs=2e-4)
    # the np.interp of each column, bit for bit, at a grid point and between two
    grid = curve.field_grid_vnm
    for field in (21.3, grid[7], grid[-1]):
        assert fractions_at(curve, field) == tuple(
            float(np.interp(field, grid, curve.fractions[:, k])) for k in range(3))
    for field in (999.0, grid[0] - 1e-9, math.nan):
        with pytest.raises(DomainError, match="outside the curve grid"):
            fractions_at(curve, field)


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
