"""Z-offset and ionization-energy calibration fits plus sensitivity scans."""

from __future__ import annotations

import pytest

from pfikit import (
    KINGHAM_Z,
    DomainError,
    FitRangeError,
    fit_ie,
    fit_z_offset,
    sensitivity_scan,
)


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


def test_ie_fit_si3(species_table, si_env):
    report = fit_ie(species_table["si3"], si_env, KINGHAM_Z, 17.7)
    assert report.kind == "ie"
    assert report.parameter == "I2"
    assert report.fitted_value == pytest.approx(15.737, abs=0.01)
    assert report.relative_shift == pytest.approx(0.0928, abs=2e-3)
    assert abs(report.residual_vnm) < 0.05


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


def test_scan_validates_inputs(species_table, si_env):
    with pytest.raises(DomainError):
        sensitivity_scan(species_table["si3"], si_env, KINGHAM_Z, "m_q", (0,))
    with pytest.raises(DomainError):
        sensitivity_scan(species_table["si3"], si_env, KINGHAM_Z, "phi", (-1.0,))
    with pytest.raises(DomainError):
        sensitivity_scan(species_table["si3"], si_env, KINGHAM_Z, "mass", (1.0,))
