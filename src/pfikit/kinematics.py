"""Ion kinematics along the flight axis: kinetic energy and its forbidden gap.

The ion field-evaporates as 1+ over the Schottky hump with zero kinetic
energy; each completed PFI step r -> r+1 at distance z_r changes the charge
it is accelerated at and adds an image-energy offset.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .constants import CONSTANTS
from .errors import DomainError, NonphysicalKinematicsError
from .species import SpeciesParams


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


def forbidden_gap_nm(field_vnm, n: int, crossing_history_nm: Sequence):
    """L interval (nm) where k_n(L) < 0, or (0, 0) if k_n never goes negative; floats, or
    arrays like the field and the crossing distances.

    k_n < 0 exactly between the roots of the upward parabola L k_n(L) = n F L^2 - K L + n^2 C.
    """
    debt = energy_debt_ev(field_vnm, crossing_history_nm)
    disc = debt * debt - 4.0 * n ** 3 * field_vnm * CONSTANTS.c_image_evnm
    q = 0.5 * (debt + np.sqrt(np.maximum(disc, 0.0)))
    lo, hi = (np.where(disc > 0.0, x, 0.0) for x in (n * n * CONSTANTS.c_image_evnm / q,
                                                      q / (n * field_vnm)))
    return (lo, hi) if lo.ndim else (lo.item(), hi.item())


def kinetic_energy(species: SpeciesParams, field_vnm: float, n: int,
                   crossing_history_nm: Sequence[float], l_nm: float) -> float:
    """Kinetic energy (eV) of the ion at distance L in charge state n.

    Raises NonphysicalKinematicsError when the ion cannot classically reach L.
    """
    if len(crossing_history_nm) != n - 1:
        raise DomainError(f"charge state {n} needs {n - 1} completed-step crossing "
                          f"distances, got {len(crossing_history_nm)}")
    if not (field_vnm > 0.0 and l_nm > 0.0 and all(z > 0.0 for z in crossing_history_nm)):
        raise DomainError(f"field, L and crossing distances must be > 0, got {field_vnm} "
                          f"V/nm, {l_nm} nm, {tuple(crossing_history_nm)} nm")
    k = kinetic_energy_unchecked(field_vnm, n, crossing_history_nm, l_nm)
    if k < 0.0:
        raise NonphysicalKinematicsError(
            f"{species.name}: k({l_nm:.6g} nm) = {k:.6g} eV < 0 in charge state {n}")
    return k
