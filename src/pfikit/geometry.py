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
    """Critical-distance geometry of PFI step n -> n+1, floats or arrays (see critical_distance).

    l_c_nm is measured from the image plane, z_c_nm from the model surface
    (z_c = L_c - lambda); l_i_nm is the Schottky hump position. When the
    discriminant is negative the crossing vanishes and both distances are 0.
    """

    l_c_nm: float
    z_c_nm: float
    l_i_nm: float


def critical_distance(species: SpeciesParams, env: Environment, n,
                      field_vnm) -> CrossingGeometry:
    """Critical distance for PFI step n -> n+1 at a field: n is an int or an int array, the
    field a float or an array, and the two broadcast together.

    L_c is the larger root of F*L^2 - (I_{n+1} - phi)*L + (2n+1)*W/4 = 0;
    PFI is energetically allowed beyond it. The hump sits at L_i = 0.5*sqrt(W/F).
    Array arguments give array members.
    """
    steps = np.asarray(n)
    outside = steps[(steps < 1) | (steps >= species.max_charge)].tolist()
    if outside:
        raise ConfigError(f"step {outside[0]}->{outside[0] + 1} needs I_{outside[0] + 1} "
                          f"in the {species.name} ladder")
    field = np.asarray(field_vnm, dtype=float)
    if not (field > 0.0).all():
        raise DomainError(f"field must be > 0 V/nm, got {field[~(field > 0.0)].flat[0]}")
    vanished, l_c, l_i = _crossing_nm(np.array(species.ie_ladder_ev)[n], env, n, field)
    z_c = np.where(vanished, 0.0, l_c - env.screening_length_nm)
    return CrossingGeometry(*(v if v.ndim else v.item() for v in (l_c, z_c, l_i)))


def _crossing_nm(ie_ev, env: Environment, n, field_vnm):
    """critical_distance's unchecked body: vanished mask, L_c (0 if vanished) and L_i in nm."""
    a = ie_ev - env.work_function_ev
    disc = a * a - (2 * n + 1) * field_vnm * CONSTANTS.w_image_evnm
    vanished = disc < 0.0
    l_c = np.where(vanished, 0.0, (a + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * field_vnm))
    return vanished, l_c, 0.5 * np.sqrt(CONSTANTS.w_image_evnm / field_vnm)
