"""Crossing geometry: critical distances, the hump, and barrier loss."""

import math

import numpy as np
import pytest

from pfikit import CONSTANTS, Environment, FieldGrid, critical_distance
from pfikit.errors import ConfigError, DomainError
from pfikit.geometry import Z_FLOOR_AU


def quadratic_roots(species, env, n: int, field: float) -> tuple[float, float]:
    """Both roots of F*L^2 - (I_{n+1} - phi)*L + (2n+1)*W/4 = 0, oracle-side."""
    a = field
    b = -(species.ie_ladder_ev[n] - env.work_function_ev)
    c = (2 * n + 1) * CONSTANTS.w_image_evnm / 4.0
    disc = b * b - 4 * a * c
    root = math.sqrt(disc)
    return (-b - root) / (2 * a), (-b + root) / (2 * a)


def test_rh_critical_distance_anchor(species_table, rh_env):
    geometry = critical_distance(species_table["rh"], rh_env, 1, 25.0)
    assert geometry.l_c_nm == pytest.approx(0.4310, abs=1e-3)


def test_larger_root_selected(species_table, si_env):
    si = species_table["si"]
    low, high = quadratic_roots(si, si_env, 1, 20.0)
    geometry = critical_distance(si, si_env, 1, 20.0)
    assert geometry.l_c_nm == pytest.approx(high, rel=1e-12)
    assert geometry.l_c_nm > low


def test_closed_form_matches(species_table, si_env):
    si = species_table["si"]
    for field in (12.0, 18.0, 24.0):
        _, high = quadratic_roots(si, si_env, 1, field)
        assert critical_distance(si, si_env, 1, field).l_c_nm == pytest.approx(
            high, rel=1e-12)


@pytest.mark.parametrize("name,n,field", [("si", 1, 19.6), ("si3", 1, 14.4),
                                          ("si3", 2, 14.4), ("rh", 1, 25.0)])
def test_quadratic_residual_below_1e9_ev(species_table, si_env, rh_env, name, n, field):
    species = species_table[name]
    env = rh_env if name == "rh" else si_env
    l_c = critical_distance(species, env, n, field).l_c_nm
    a = species.ie_ladder_ev[n] - env.work_function_ev
    residual = field * l_c - a + (2 * n + 1) * CONSTANTS.w_image_evnm / (4.0 * l_c)
    assert abs(residual) < 1e-9


def test_hump_position_formula(species_table, si_env):
    # the hump depends on the field alone, not on the species or the step
    for name, n in (("si", 1), ("si3", 2), ("rh", 1)):
        for field in (5.0, 21.3, 45.0):
            expected = 0.5 * math.sqrt(CONSTANTS.w_image_evnm / field)
            l_i = critical_distance(species_table[name], si_env, n, field).l_i_nm
            assert l_i == pytest.approx(expected, rel=1e-14)


def test_hump_is_stationary_point_of_first_step_energy(species_table, si_env):
    # complex-step derivative of k1(L) = F*L + C/L - c_s*sqrt(F) at the hump
    field = 21.3
    c = CONSTANTS.c_image_evnm
    l_i = critical_distance(species_table["si"], si_env, 1, field).l_i_nm
    h = 1e-20
    k = field * complex(l_i, h) + c / complex(l_i, h) - CONSTANTS.c_s * math.sqrt(field)
    assert abs(k.imag / h) < 1e-9


def test_critical_distance_decreases_with_field(species_table, si_env):
    si = species_table["si"]
    values = [critical_distance(si, si_env, 1, f).l_c_nm for f in (10, 15, 20, 25)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_barrier_vanishes_above_threshold(species_table, si_env):
    si = species_table["si"]
    threshold = (si.ie_ladder_ev[1] - si_env.work_function_ev) ** 2 / (
        3.0 * CONSTANTS.w_image_evnm)
    below = critical_distance(si, si_env, 1, threshold - 0.5)
    above = critical_distance(si, si_env, 1, threshold + 0.5)
    assert below.l_c_nm > 0.0
    assert above.l_c_nm == 0.0 and above.z_c_nm == Z_FLOOR_AU * CONSTANTS.bohr_in_nm


def test_z_c_is_where_the_step_integral_starts(species_table):
    # z_c = L_c - lambda, floored at Z_FLOOR_AU: under screening, and where the crossing
    # vanishes, the public z_c is the kernel's lower limit, never 0 or negative
    floor = Z_FLOOR_AU * CONSTANTS.bohr_in_nm
    fields = np.array(FieldGrid(5.0, 45.0, 0.1).points())
    for sp in species_table.values():
        steps = np.arange(1, min(sp.max_charge, 3))[:, None]
        for screening in (0.0, 0.1, 0.3):
            env = Environment(4.9, screening)
            geometry = critical_distance(sp, env, steps, fields)
            assert (geometry.z_c_nm >= floor).all(), (sp.name, screening)
            assert geometry.z_c_nm == pytest.approx(
                np.maximum(geometry.l_c_nm - screening, floor), rel=1e-14)
    screened = critical_distance(species_table["si"], Environment(4.9, 0.3), 1, 30.0)
    assert screened.l_c_nm < 0.3
    assert screened.z_c_nm == floor == pytest.approx(0.0026459, abs=5e-8)


def test_step_and_field_arrays_match_scalar_calls(species_table, si_env):
    # a column of steps broadcasts against a row of fields, bit for bit, the vanished
    # crossing above the Si threshold included
    si3 = species_table["si3"]
    steps, fields = np.array([[1], [2]]), np.array([10.0, 14.4, 40.0])
    batch = critical_distance(si3, si_env, steps, fields)
    assert batch.l_c_nm.shape == batch.z_c_nm.shape == (2, 3)
    for n in (1, 2):
        for i, field in enumerate(fields.tolist()):
            single = critical_distance(si3, si_env, n, field)
            assert (batch.l_c_nm[n - 1, i], batch.z_c_nm[n - 1, i], batch.l_i_nm[i]) == (
                single.l_c_nm, single.z_c_nm, single.l_i_nm)
    # a bad entry of an array is named alone, on one line
    with pytest.raises(ConfigError, match=r"^step 3->4 needs I_4 in the Si3 ladder$"):
        critical_distance(si3, si_env, np.array([[1], [3]]), fields)
    with pytest.raises(DomainError, match=r"^field must be > 0 V/nm, got -1\.0$"):
        critical_distance(si3, si_env, steps, np.array([10.0, -1.0, 0.0]))


def test_screening_length_shifts_z_c(species_table):
    si = species_table["si"]
    bare = critical_distance(si, Environment(4.9, 0.0), 1, 20.0)
    screened = critical_distance(si, Environment(4.9, 0.05), 1, 20.0)
    assert screened.l_c_nm == bare.l_c_nm
    assert screened.z_c_nm == pytest.approx(bare.z_c_nm - 0.05, rel=1e-12)


def test_error_paths(species_table, si_env):
    si = species_table["si"]
    for bad in (0.0, -5.0, math.nan):
        with pytest.raises(DomainError):
            critical_distance(si, si_env, 1, bad)
    with pytest.raises(ConfigError):
        critical_distance(si, si_env, 3, 20.0)


def test_environment_rejects_nonfinite_values():
    # an infinite work function made the array critical distance inf - inf = nan
    for phi, screening in ((math.inf, 0.0), (math.nan, 0.0), (0.0, 0.0), (4.9, math.nan),
                           (4.9, math.inf), (4.9, -0.1)):
        with pytest.raises(ConfigError):
            Environment(phi, screening)
