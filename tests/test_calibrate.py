"""Z-offset and ionization-energy calibration fits plus sensitivity scans."""

from __future__ import annotations

import json

import numpy as np
import pytest
from scipy.optimize import brentq

from pfikit import (
    KINGHAM_Z,
    BracketError,
    CrossoverResult,
    DomainError,
    FitRangeError,
    FitReport,
    charge_fractions,
    csr_from_fractions,
    evaluate_csr,
    find_f50,
    fit_ie,
    fit_z_offset,
    sensitivity_scan,
)
from pfikit import calibrate, curves
from pfikit._numerics import DENSE, STENCIL
from pfikit.calibrate import _fit_1d
from pfikit.cli import main


def test_z_offset_fit_si3(species_table, si_env):
    report = fit_z_offset(species_table["si3"], si_env, 17.7)
    assert report.kind == "z_offset"
    assert report.parameter == "c0"
    assert report.fitted_value == pytest.approx(0.5545, abs=2e-3)
    assert abs(report.residual_vnm) < 0.05
    assert report.achieved_f50_vnm == pytest.approx(17.7, abs=0.05)


def test_z_offset_fit_si4(species_table, si_env):
    report = fit_z_offset(species_table["si4"], si_env, 17.0)
    assert report.fitted_value == pytest.approx(0.2664, abs=2e-3)


def test_z_offset_fit_recovers_the_default_model(species_table, si_env, f50):
    # fitting the default model's own crossover must return c0 = 1
    target = f50(species_table["si"], si_env)
    report = fit_z_offset(species_table["si"], si_env, target, c1=4.5)
    assert report.fitted_value == pytest.approx(1.0, abs=2e-3)
    assert report.absolute_shift == pytest.approx(0.0, abs=2e-3)


def test_z_offset_fit_reports_achievable_window(species_table, si_env):
    with pytest.raises(FitRangeError) as exc_info:
        fit_z_offset(species_table["si"], si_env, 99.0)
    lo, hi = exc_info.value.achievable
    assert lo == pytest.approx(16.802, abs=0.05)
    assert hi == pytest.approx(28.704, abs=0.05)
    assert not lo <= 99.0 <= hi


def test_fit_meets_a_target_only_the_nominal_point_reaches(species_table, si_env,
                                                           monkeypatch):
    # both bounds fail to evaluate (so the call on all three values fails, and each is
    # evaluated alone), and the nominal point is the whole bracket; at 20 V/nm
    # its CSR is 0.5 and its F50 the target, which the fit therefore meets with residual
    # 0; at 20.5 V/nm its CSR is past 0.5, and the refusal names the F50 interval. The
    # parameter value x rides in each problem's Z-model slot to the stand-in CSR and F50
    def nominal_only(value, x):
        if x != 1.0:
            raise BracketError("no crossing to bracket")
        return value

    def fit(csr, target):
        monkeypatch.setattr(calibrate, "evaluate_csr", lambda species, envs, xs, fields: (
            np.array([[nominal_only(csr, x)] for x in xs])))
        monkeypatch.setattr(calibrate, "find_f50", lambda species, env, x, search: (
            CrossoverResult(nominal_only(20.0, x), search, 0.5)))
        return _fit_1d(lambda x: (species_table["si"], si_env, x), (5.0, 45.0),
                       "Si z-offset fit", "z_offset", "c0", 1.0, (0.01, 2.0), target)

    assert fit(0.5, 20.0) == FitReport("z_offset", "Si", "c0", 20.0, 20.0, 0.0, 1.0, 1.0,
                                       0.0, 0.0)
    with pytest.raises(FitRangeError, match=r"outside the achievable interval \[20\.000, "):
        fit(0.6, 20.5)


def test_ie_fit_si3(species_table, si_env):
    report = fit_ie(species_table["si3"], si_env, KINGHAM_Z, 17.7)
    assert report.kind == "ie"
    assert report.parameter == "I2"
    assert report.fitted_value == pytest.approx(15.737, abs=0.01)
    assert report.relative_shift == pytest.approx(0.0928, abs=2e-3)
    assert abs(report.residual_vnm) < 0.05


def _counting_calls(monkeypatch) -> list:
    """The field of every ``charge_fractions`` call from here on."""
    calls, charge_fractions = [], curves.charge_fractions

    def counted(*args):
        calls.append(args[-1])
        return charge_fractions(*args)

    monkeypatch.setattr(curves, "charge_fractions", counted)
    return calls


def test_ie_fit_refuses_empty_pair_probes_in_one_call(species_table, si_env, monkeypatch):
    # an upper I2 bound whose 1+/2+ pair is empty below any crossing costs one bracket
    # call, not a root solve; such F50 probes run only when a fit is refused, and the
    # fit itself solves the CSR at the target field
    calls = _counting_calls(monkeypatch)
    report = fit_ie(species_table["si3"], si_env, KINGHAM_Z, 17.7)
    assert round(report.fitted_value, 2) == 15.74
    assert len(calls) <= 8


@pytest.mark.parametrize("fit", ["c0", "I2"])
def test_fits_solve_the_csr_at_the_target_field(species_table, si_env, monkeypatch, fit):
    # one call on the nominal value and both bounds at the target field, one per solver
    # round on the values of its stencil there, and one F50 at the root, not an F50 per round
    calls = _counting_calls(monkeypatch)
    if fit == "c0":
        report = fit_z_offset(species_table["si3"], si_env, 17.7)
    else:
        report = fit_ie(species_table["si3"], si_env, KINGHAM_Z, 17.7)
    assert abs(report.residual_vnm) < 0.05
    assert len(calls) <= {"c0": 7, "I2": 8}[fit]
    assert calls[0].shape == (3, 1) and calls[1].shape == (DENSE, 1)
    assert [np.shape(fields)[1] for fields in calls[-3:]] == [curves.F50_PROBES, DENSE, STENCIL]


def test_a_refused_fit_evaluates_the_csr_at_the_target_in_one_call(species_table, si_env,
                                                                   monkeypatch):
    # Si's F50 reaches 40 V/nm at no c0 in the bounds: the CSR at 40 V/nm lies past 0.5 at
    # the nominal value and both bounds, all in one call, and only the F50s that name the
    # achievable interval follow
    calls = _counting_calls(monkeypatch)
    with pytest.raises(FitRangeError, match=r"achievable interval \[16\.802, 28\.704\]"):
        fit_z_offset(species_table["si"], si_env, 40.0)
    assert np.shape(calls[0]) == (3, 1)
    assert all(np.shape(fields)[1] > 1 for fields in calls[1:])


@pytest.mark.parametrize("name,ie_index,target,fitted", [
    ("rh", 2, 34.0, 21.044),     # some I2 in the bracket have no F50 at all
    ("si4", 3, 13.2, 16.093),    # F50 is not monotone in I3: the bracket's ends miss 13.2
    ("si4", 2, 21.0, 16.837),    # the upper bound retreats to an F50 short of 21.0
])
def test_ie_fit_meets_targets_the_f50_bracket_missed(species_table, si_env, capsys, name,
                                                    ie_index, target, fitted):
    assert main(["fit-ie", "--species", name, "--ie-index", str(ie_index),
                 "--target", str(target)]) == 0
    x = json.loads(capsys.readouterr().out)["fitted_value"]
    assert x == pytest.approx(fitted, abs=2e-3)
    check = find_f50(species_table[name].with_ie(ie_index, x), si_env, KINGHAM_Z)
    assert abs(check.f50_vnm - target) < 0.05


def test_ie_fit_meets_a_target_past_which_the_csr_falls_back(species_table, si_env):
    # where the Si CSR at 30.1 V/nm is 0.5 it falls back below 0.5 before 45 V/nm; the F50
    # is still the lowest upward crossing, so the fit meets its target
    report = fit_ie(species_table["si"], si_env, KINGHAM_Z, 30.1)
    assert report.fitted_value == pytest.approx(19.8147, abs=2e-3)
    assert abs(report.residual_vnm) < 1e-4
    fitted = species_table["si"].with_ie(2, report.fitted_value)
    assert evaluate_csr(fitted, si_env, KINGHAM_Z, 45.0) < 0.5
    assert find_f50(fitted, si_env, KINGHAM_Z).f50_vnm == pytest.approx(30.1, abs=1e-4)
    # and, independently of find_f50, the CSR first reaches 0.5 at 30.1 V/nm
    fields = np.linspace(5.0, 30.0, 501)
    assert (csr_from_fractions(charge_fractions(fitted, si_env, KINGHAM_Z, fields)) < 0.5).all()
    assert brentq(lambda f: evaluate_csr(fitted, si_env, KINGHAM_Z, f) - 0.5, 30.0, 30.2,
                  xtol=1e-9) == pytest.approx(30.1, abs=1e-4)


def test_ie_fit_recovers_the_nominal_ladder(species_table, si_env, f50):
    target = f50(species_table["si3"], si_env)
    report = fit_ie(species_table["si3"], si_env, KINGHAM_Z, target)
    assert report.fitted_value == pytest.approx(14.40, abs=0.01)
    assert report.relative_shift == pytest.approx(0.0, abs=1e-3)


def test_ie_fit_si4_stays_self_consistent(species_table, si_env, f50):
    # the fit itself converges on its target even though the fitted energy
    # does not land on the nominal ladder value (checked separately below)
    report = fit_ie(species_table["si4"], si_env, KINGHAM_Z, 17.0)
    assert abs(report.residual_vnm) < 0.05
    assert report.fitted_value == pytest.approx(15.5052, abs=0.01)
    # the nominal-adjacent ladder point sits well short of that target
    shifted = species_table["si4"].with_ie(2, 15.40)
    assert f50(shifted, si_env) == pytest.approx(16.7387, abs=0.01)
    assert f50(shifted, si_env) < 17.0


@pytest.mark.xfail(
    reason="meeting the 17.0 V/nm stand-in crossover needs I2 = 15.51 eV, "
    "outside the 15.40 +/- 0.10 eV band", strict=True)
def test_ie_fit_si4_lands_near_the_tabulated_energy(species_table, si_env):
    report = fit_ie(species_table["si4"], si_env, KINGHAM_Z, 17.0)
    assert report.fitted_value == pytest.approx(15.40, abs=0.1)


def test_ie_fit_validates_index(species_table, si_env):
    with pytest.raises(DomainError):
        fit_ie(species_table["si3"], si_env, KINGHAM_Z, 17.7, ie_index=0)
    with pytest.raises(DomainError):
        fit_ie(species_table["si3"], si_env, KINGHAM_Z, 17.7, ie_index=7)


def test_ie_fit_reports_achievable_window(species_table, si_env):
    with pytest.raises(FitRangeError) as exc_info:
        fit_ie(species_table["si"], si_env, KINGHAM_Z, 99.0)
    lo, hi = exc_info.value.achievable
    assert lo == pytest.approx(8.122, abs=0.05)
    assert hi == pytest.approx(35.047, abs=0.05)


def test_scan_over_charge_hopping_count(species_table, si_env):
    points = sensitivity_scan(species_table["si3"], si_env, KINGHAM_Z,
                              "m_q", (3, 5, 7, 9))
    values = [p.f50_vnm for p in points]
    assert all(p.parameter == "m_q" for p in points)
    assert values[0] == pytest.approx(14.4225, abs=2e-3)
    assert values[-1] == pytest.approx(15.1858, abs=2e-3)
    # slower hopping starves the rate, so the crossover climbs
    assert values == sorted(values)


def test_scan_over_work_function(species_table, si_env):
    points = sensitivity_scan(species_table["si3"], si_env, KINGHAM_Z,
                              "phi", (3.92, 4.9, 5.88))
    values = [p.f50_vnm for p in points]
    assert values[0] == pytest.approx(15.7830, abs=2e-3)
    assert values[1] == pytest.approx(14.4225, abs=2e-3)
    # a lower work function pulls the critical surface out and delays
    # ionization, pushing the crossover up
    assert values == sorted(values, reverse=True)


def test_scan_validates_inputs(species_table, si_env, monkeypatch):
    # every value is checked before the first kernel call, a bad one late in the list too
    calls = _counting_calls(monkeypatch)
    for parameter, values in (("m_q", (0,)), ("phi", (-1.0,)), ("mass", (1.0,)),
                              ("phi", (4.9, 5.0, 5.1, 12)), ("m_q", (3, 5, 0))):
        with pytest.raises(DomainError):
            sensitivity_scan(species_table["si3"], si_env, KINGHAM_Z, parameter, values)
    assert calls == []


def test_scans_solve_their_f50s_in_lockstep(species_table, si_env, monkeypatch):
    # the benchmark's two scans: one call brackets every value's F50, then one call per
    # round on the values not yet solved; solved one after another they took 37 and 27
    # calls with Brent's method, and take 15 and 12 with the bracket solver
    calls = _counting_calls(monkeypatch)
    for parameter, values in (("phi", (4.7, 4.8, 4.9, 5.0, 5.1)), ("m_q", (3, 5, 7, 9))):
        points = sensitivity_scan(species_table["si3"], si_env, KINGHAM_Z, parameter, values)
        assert [p.value for p in points] == list(values)
        assert len(calls) == 3, (parameter, len(calls))
        assert calls[0].shape == (len(values), curves.F50_PROBES)
        calls.clear()
