"""Ion kinematics along the flight axis: the energy debt, k_n(L) and its forbidden gap.

The ion field-evaporates as 1+ over the Schottky hump with zero kinetic
energy; each completed PFI step r -> r+1 at distance z_r changes the charge
it is accelerated at and adds an image-energy offset.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .constants import CONSTANTS


def energy_debt_ev(field_vnm, crossing_history_nm: Sequence):
    """K in k_n(L) = n F L + n^2 C / L - K: the hump escape and each completed step."""
    debt = CONSTANTS.c_s * np.sqrt(field_vnm)
    for r, z_r in enumerate(crossing_history_nm, start=1):
        debt += field_vnm * z_r + (2 * r + 1) * CONSTANTS.c_image_evnm / z_r
    return debt


def kinetic_energy_unchecked(field_vnm, n, crossing_history_nm: Sequence, l_nm, debt_ev=None):
    """k_n(L) in eV, possibly negative (classically forbidden), for checked floats or arrays
    that broadcast together; ``debt_ev`` replaces ``energy_debt_ev`` of field and history."""
    if debt_ev is None:
        debt_ev = energy_debt_ev(field_vnm, crossing_history_nm)
    return n * field_vnm * l_nm + n * n * CONSTANTS.c_image_evnm / l_nm - debt_ev


def forbidden_gap_nm(field_vnm, n: int, debt_ev):
    """L interval (nm) where k_n(L) < 0, or (0, 0) if k_n never goes negative; arrays like
    the field and ``debt_ev``, the ``energy_debt_ev`` of field and crossing history.

    k_n < 0 exactly between the roots of the upward parabola L k_n(L) = n F L^2 - K L + n^2 C.
    """
    disc = debt_ev * debt_ev - 4.0 * n ** 3 * field_vnm * CONSTANTS.c_image_evnm
    q = 0.5 * (debt_ev + np.sqrt(np.maximum(disc, 0.0)))
    return tuple(np.where(disc > 0.0, x, 0.0) for x in (n * n * CONSTANTS.c_image_evnm / q,
                                                         q / (n * field_vnm)))
