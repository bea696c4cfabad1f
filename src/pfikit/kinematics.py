"""Ion kinematics along the flight axis: the energy debt, k_n(L) and its forbidden gap.

The ion field-evaporates as 1+ over the Schottky hump with zero kinetic
energy; each completed PFI step r -> r+1 at distance z_r changes the charge
it is accelerated at and adds an image-energy offset.
"""

from __future__ import annotations

import numpy as np

from .constants import CONSTANTS


def energy_debt_ev(field_vnm, crossings_nm):
    """K in k_n(L) = n F L + n^2 C / L - K of the steps n = 1 .. len(crossings_nm) + 1, along
    the first axis: the hump escape, plus each step r -> r+1 completed at crossings_nm[r - 1]."""
    debts = [CONSTANTS.c_s * np.sqrt(field_vnm)]
    for r, z_r in enumerate(crossings_nm, start=1):
        debts.append(debts[-1] + (field_vnm * z_r + (2 * r + 1) * CONSTANTS.c_image_evnm / z_r))
    return np.array(debts)


def kinetic_energy_unchecked(field_vnm, n, l_nm, debt_ev):
    """k_n(L) in eV, possibly negative (classically forbidden), for checked floats or arrays
    that broadcast together; ``debt_ev`` is step n's ``energy_debt_ev``."""
    return n * field_vnm * l_nm + n * n * CONSTANTS.c_image_evnm / l_nm - debt_ev


def forbidden_gap_nm(field_vnm, n, debt_ev):
    """The L interval (nm) where k_n(L) < 0, or (0, 0) if k_n never goes negative, as its
    two ends stacked on a new first axis; field, n and ``debt_ev`` (step n's
    ``energy_debt_ev``) are floats or arrays that broadcast together.

    k_n < 0 exactly between the roots of the upward parabola L k_n(L) = n F L^2 - K L + n^2 C.
    """
    disc = debt_ev * debt_ev - 4.0 * n ** 3 * field_vnm * CONSTANTS.c_image_evnm
    q = 0.5 * (debt_ev + np.sqrt(np.maximum(disc, 0.0)))
    return np.where(disc > 0.0, (n * n * CONSTANTS.c_image_evnm / q, q / (n * field_vnm)), 0.0)
