"""Ion kinematics: launch energies along the escape path and speeds."""

import math

import numpy as np
import pytest

from pfikit import CONSTANTS, critical_distance
from pfikit.kinematics import energy_debt_ev, forbidden_gap_nm, kinetic_energy_unchecked


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
    k = kinetic_energy_unchecked(25.0, 1, (), l_c)
    assert k == pytest.approx(5.6094, abs=1e-3)


def test_energy_vanishes_at_hump(species_table, si_env):
    for field in (10.0, 21.3, 35.0):
        l_i = critical_distance(species_table["si"], si_env, 1, field).l_i_nm
        assert abs(kinetic_energy_unchecked(field, 1, (), l_i)) < 1e-9


def test_two_route_agreement(species_table, si_env):
    si3 = species_table["si3"]
    field = 16.0
    z1 = critical_distance(si3, si_env, 1, field).l_c_nm
    z2 = critical_distance(si3, si_env, 2, field).l_c_nm
    for n, history, l_nm in [(1, (), 0.8), (2, (z1,), 1.2), (3, (z1, z2), 2.0)]:
        package = kinetic_energy_unchecked(field, n, history, l_nm)
        oracle = telescoped_energy(field, history, l_nm)
        assert package == pytest.approx(oracle, abs=1e-9)


def test_forbidden_gap_brackets_the_negative_energies(species_table, si_env):
    si3 = species_table["si3"]
    field = 10.0
    history = (critical_distance(si3, si_env, 1, field).l_c_nm,)
    (lo,), (hi,) = forbidden_gap_nm(np.array([field]), 2, energy_debt_ev(field, history))
    l_nm = np.linspace(0.5 * lo, 2.0 * hi, 301)
    k = kinetic_energy_unchecked(field, 2, history, l_nm)
    inside = (l_nm > lo) & (l_nm < hi)
    assert np.all(k[inside] < 0.0) and np.all(k[~inside] >= -1e-12)
    for root in (lo, hi):
        assert abs(kinetic_energy_unchecked(field, 2, history, root)) < 1e-9
    # the first step touches zero only at the hump: at most a rounding-wide gap
    fields = np.array([5.0, 10.0, 21.3, 35.0])
    lo, hi = forbidden_gap_nm(fields, 1, energy_debt_ev(fields, ()))
    assert (hi - lo < 1e-6).all()
