"""Emitter environment and a PFI step's crossing geometry: critical distances and hump.

Energies in eV, lengths in nm, fields in V/nm throughout this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .errors import ConfigError, DomainError
from .species import SpeciesParams


@dataclass(frozen=True)
class Environment:
    """Emitter-side environment: work function (eV) and screening length (nm)."""

    work_function_ev: float = 4.9
    screening_length_nm: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.work_function_ev < math.inf:
            raise ConfigError(f"work function must be finite, > 0 eV, got {self.work_function_ev}")
        if not 0.0 <= self.screening_length_nm < math.inf:
            raise ConfigError(f"screening length must be finite, >= 0 nm, "
                              f"got {self.screening_length_nm}")


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
    barrier_vanished: bool


def critical_distance(species: SpeciesParams, env: Environment, n: int,
                      field_vnm) -> CrossingGeometry:
    """Critical distance for PFI step n -> n+1 at a field, a float or an array.

    L_c is the larger root of F*L^2 - (I_{n+1} - phi)*L + (2n+1)*W/4 = 0;
    PFI is energetically allowed beyond it. The hump sits at L_i = 0.5*sqrt(W/F).
    An array field gives array members.
    """
    if not 1 <= n < species.max_charge:
        raise ConfigError(f"step {n}->{n + 1} needs I_{n + 1} in the {species.name} ladder")
    if not np.greater(field_vnm, 0.0).all():
        raise DomainError(f"field must be > 0 V/nm, got {field_vnm}")
    field = np.asarray(field_vnm, dtype=float)
    l_i = 0.5 * np.sqrt(CONSTANTS.w_image_evnm / field)
    a = species.ie_ev(n + 1) - env.work_function_ev
    disc = a * a - (2 * n + 1) * field * CONSTANTS.w_image_evnm
    vanished = disc < 0.0
    l_c = np.where(vanished, 0.0, (a + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * field))
    z_c = np.where(vanished, 0.0, l_c - env.screening_length_nm)
    members = (l_c, z_c, l_i, vanished)
    return CrossingGeometry(*(v if field.ndim else v.item() for v in members))
