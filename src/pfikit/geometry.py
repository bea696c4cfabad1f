"""Emitter environment, critical distances, and the Schottky-hump escape point.

Energies in eV, lengths in nm, fields in V/nm throughout this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import CONSTANTS
from .errors import ConfigError, DomainError
from .species import SpeciesParams


@dataclass(frozen=True)
class Environment:
    """Emitter-side environment: work function (eV) and screening length (nm)."""

    work_function_ev: float = 4.9
    screening_length_nm: float = 0.0

    def __post_init__(self) -> None:
        if not self.work_function_ev > 0.0:
            raise ConfigError(f"work function must be > 0 eV, got {self.work_function_ev}")
        if self.screening_length_nm < 0.0:
            raise ConfigError(f"screening length must be >= 0 nm, got {self.screening_length_nm}")


@dataclass(frozen=True)
class CrossingGeometry:
    """Critical-distance geometry for one PFI step n -> n+1.

    l_c_nm is measured from the image plane, z_c_nm from the model surface
    (z_c = L_c - lambda); l_i_nm is the Schottky hump position. When the
    discriminant is negative the crossing vanishes and both distances are 0
    with barrier_vanished set.
    """

    l_c_nm: float
    z_c_nm: float
    l_i_nm: float
    discriminant_ev2: float
    barrier_vanished: bool


def hump_position(field_vnm: float) -> float:
    """Schottky hump L_i = 0.5*sqrt(W/F) in nm."""
    if not field_vnm > 0.0:
        raise DomainError(f"field must be > 0 V/nm, got {field_vnm}")
    return 0.5 * math.sqrt(CONSTANTS.w_image_evnm / field_vnm)


def critical_distance(species: SpeciesParams, env: Environment, n: int,
                      field_vnm: float) -> CrossingGeometry:
    """Critical distance for PFI step n -> n+1 at the given field.

    L_c is the larger root of F*L^2 - (I_{n+1} - phi)*L + (2n+1)*W/4 = 0;
    PFI is energetically allowed beyond it.
    """
    if not 1 <= n < species.max_charge:
        raise ConfigError(f"step {n}->{n + 1} needs I_{n + 1} in the {species.name} ladder")
    if not field_vnm > 0.0:
        raise DomainError(f"field must be > 0 V/nm, got {field_vnm}")
    w = CONSTANTS.w_image_evnm
    a = species.ie_ev(n + 1) - env.work_function_ev
    disc = a * a - (2 * n + 1) * field_vnm * w
    l_i = hump_position(field_vnm)
    if disc < 0.0:
        return CrossingGeometry(0.0, 0.0, l_i, disc, True)
    l_c = (a + math.sqrt(disc)) / (2.0 * field_vnm)
    z_c = l_c - env.screening_length_nm
    return CrossingGeometry(l_c, z_c, l_i, disc, False)
