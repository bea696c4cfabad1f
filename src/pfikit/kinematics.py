"""Ion kinematics along the flight axis: kinetic energy.

The ion field-evaporates as 1+ over the Schottky hump with zero kinetic
energy; each completed PFI step r -> r+1 at distance z_r changes the charge
it is accelerated at and adds an image-energy offset.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .constants import CONSTANTS
from .errors import DomainError, NonphysicalKinematicsError
from .geometry import Environment
from .species import SpeciesParams


def kinetic_energy_unchecked(env: Environment, field_vnm: float, n: int,
                             crossing_history_nm: Sequence[float], l_nm: float) -> float:
    """k_n(L) in eV; may be negative (classically forbidden)."""
    if not field_vnm > 0.0:
        raise DomainError(f"field must be > 0 V/nm, got {field_vnm}")
    if not l_nm > 0.0:
        raise DomainError(f"L must be > 0 nm, got {l_nm}")
    if len(crossing_history_nm) != n - 1:
        raise DomainError(
            f"charge state {n} needs {n - 1} completed-step crossing distances, "
            f"got {len(crossing_history_nm)}")
    c = CONSTANTS.c_image_evnm
    k = n * field_vnm * l_nm + n * n * c / l_nm - CONSTANTS.c_s * math.sqrt(field_vnm)
    for r, z_r in enumerate(crossing_history_nm, start=1):
        if not z_r > 0.0:
            raise DomainError(f"crossing distance z_{r} must be > 0 nm, got {z_r}")
        k -= field_vnm * z_r + (2 * r + 1) * c / z_r
    return k


def kinetic_energy(species: SpeciesParams, env: Environment, field_vnm: float, n: int,
                   crossing_history_nm: Sequence[float], l_nm: float) -> float:
    """Kinetic energy (eV) of the ion at distance L in charge state n.

    Raises NonphysicalKinematicsError when the ion cannot classically reach L.
    """
    k = kinetic_energy_unchecked(env, field_vnm, n, crossing_history_nm, l_nm)
    if k < 0.0:
        raise NonphysicalKinematicsError(
            f"{species.name}: k({l_nm:.6g} nm) = {k:.6g} eV < 0 in charge state {n}")
    return k
