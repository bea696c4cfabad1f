"""Ion kinematics: launch energies along the escape path and speeds."""

import math

import numpy as np
import pytest

from pfikit import CONSTANTS, critical_distance
from pfikit.geometry import _gap_nm, energy_debt_ev, kinetic_energy_unchecked


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
    k = kinetic_energy_unchecked(25.0, 1, l_c, energy_debt_ev(25.0, ())[0])
    assert k == pytest.approx(5.6094, abs=1e-3)


def test_energy_vanishes_at_hump(species_table, si_env):
    for field in (10.0, 21.3, 35.0):
        l_i = critical_distance(species_table["si"], si_env, 1, field).l_i_nm
        assert abs(kinetic_energy_unchecked(field, 1, l_i, energy_debt_ev(field, ())[0])) < 1e-9


def test_two_route_agreement(species_table, si_env):
    si3 = species_table["si3"]
    field = 16.0
    z1 = critical_distance(si3, si_env, 1, field).l_c_nm
    z2 = critical_distance(si3, si_env, 2, field).l_c_nm
    # one call gives the debt of every step, each that of its own history
    debts = energy_debt_ev(field, (z1, z2))
    for n, history, l_nm in [(1, (), 0.8), (2, (z1,), 1.2), (3, (z1, z2), 2.0)]:
        assert debts[n - 1] == energy_debt_ev(field, history)[-1]
        package = kinetic_energy_unchecked(field, n, l_nm, debts[n - 1])
        oracle = telescoped_energy(field, history, l_nm)
        assert package == pytest.approx(oracle, abs=1e-9)
    # a history per field: crossings along the first axis, fields along the second
    fields = np.array([field, 2.0 * field])
    rows = energy_debt_ev(fields, np.array([[z1, z1], [z2, z2]]))
    assert rows.shape == (3, 2) and rows[:, 0].tolist() == debts.tolist()


def _gap(field, n, debt):
    """The forbidden gap's two ends (nm), with 4 n^3 and n^2 C as the kernel's rows hold them."""
    return _gap_nm(field, n, debt, 4.0 * n ** 3, n * n * CONSTANTS.c_image_evnm)


def test_forbidden_gap_brackets_the_negative_energies(species_table, si_env):
    si3 = species_table["si3"]
    field = 10.0
    debt = energy_debt_ev(field, (critical_distance(si3, si_env, 1, field).l_c_nm,))[1]
    (lo,), (hi,) = _gap(np.array([field]), 2, debt)
    l_nm = np.linspace(0.5 * lo, 2.0 * hi, 301)
    k = kinetic_energy_unchecked(field, 2, l_nm, debt)
    inside = (l_nm > lo) & (l_nm < hi)
    assert np.all(k[inside] < 0.0) and np.all(k[~inside] >= -1e-12)
    for root in (lo, hi):
        assert abs(kinetic_energy_unchecked(field, 2, root, debt)) < 1e-9
    # the first step touches zero only at the hump: at most a rounding-wide gap
    fields = np.array([5.0, 10.0, 21.3, 35.0])
    lo, hi = _gap(fields, 1, energy_debt_ev(fields, ())[0])
    assert (hi - lo < 1e-6).all()
