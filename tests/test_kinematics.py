"""Ion kinematics: launch energies along the escape path and speeds."""

import math

import pytest

from pfikit import CONSTANTS, critical_distance, hump_position, kinetic_energy
from pfikit.errors import DomainError, NonphysicalKinematicsError
from pfikit.kinematics import kinetic_energy_unchecked


def telescoped_energy(field, history, l_nm):
    """Energy-conservation oracle, independent of the closed form.

    The ion starts at rest on the state-1 hump and keeps its kinetic energy
    across each charge change; within state r it moves in
    U_r(z) = -r F z - r^2 C / z.
    """
    c = CONSTANTS.c_image_evnm

    def u(r: int, z: float) -> float:
        return -r * field * z - r * r * c / z

    z = math.sqrt(c / field)
    k = 0.0
    for r, z_r in enumerate(history, start=1):
        k += u(r, z) - u(r, z_r)
        z = z_r
    n = len(history) + 1
    return k + u(n, z) - u(n, l_nm)


def test_rh_launch_energy_anchor(species_table, rh_env):
    rh = species_table["rh"]
    l_c = critical_distance(rh, rh_env, 1, 25.0).l_c_nm
    k = kinetic_energy(rh, rh_env, 25.0, 1, (), l_c)
    assert k == pytest.approx(5.6094, abs=1e-3)


def test_energy_vanishes_at_hump(species_table, si_env):
    si = species_table["si"]
    for field in (10.0, 21.3, 35.0):
        l_i = hump_position(field)
        assert abs(kinetic_energy_unchecked(si_env, field, 1, (), l_i)) < 1e-9


def test_two_route_agreement(species_table, si_env):
    si3 = species_table["si3"]
    field = 16.0
    z1 = critical_distance(si3, si_env, 1, field).l_c_nm
    z2 = critical_distance(si3, si_env, 2, field).l_c_nm
    for n, history, l_nm in [(1, (), 0.8), (2, (z1,), 1.2), (3, (z1, z2), 2.0)]:
        package = kinetic_energy_unchecked(si_env, field, n, history, l_nm)
        oracle = telescoped_energy(field, history, l_nm)
        assert package == pytest.approx(oracle, abs=1e-9)


def test_forbidden_region_raises(species_table, si_env):
    # the first step is nonnegative everywhere (double zero at the hump), so
    # a classically forbidden point needs a later step with its history debt
    si3 = species_table["si3"]
    field = 10.0
    z1 = critical_distance(si3, si_env, 1, field).l_c_nm
    l_min = 2.0 * math.sqrt(CONSTANTS.c_image_evnm / field)
    assert kinetic_energy_unchecked(si_env, field, 2, (z1,), l_min) < 0.0
    with pytest.raises(NonphysicalKinematicsError):
        kinetic_energy(si3, si_env, field, 2, (z1,), l_min)


def test_history_length_checked(species_table, si_env):
    with pytest.raises(DomainError):
        kinetic_energy(species_table["si3"], si_env, 16.0, 2, (), 1.0)
    with pytest.raises(DomainError):
        kinetic_energy(species_table["si"], si_env, 16.0, 1, (0.4,), 1.0)


def test_nonpositive_inputs_rejected(species_table, si_env):
    si = species_table["si"]
    with pytest.raises(DomainError):
        kinetic_energy(si, si_env, -1.0, 1, (), 1.0)
    with pytest.raises(DomainError):
        kinetic_energy(si, si_env, 20.0, 1, (), 0.0)
