"""Emitter environment and a PFI step's geometry along the flight axis: the critical
distances and hump, the energy debt, k_n(L) and its forbidden gap.

The ion field-evaporates as 1+ over the Schottky hump with zero kinetic
energy; each completed PFI step r -> r+1 at distance z_r changes the charge
it is accelerated at and adds an image-energy offset.

Energies in eV, lengths in nm, fields in V/nm throughout this module, except the
floored z_c that ``_crossing_nm`` returns, in a.u. like the step integral it starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .errors import ConfigError, DomainError
from .species import SpeciesParams

Z_FLOOR_AU = 0.05  # lower floor for critical distances


@dataclass(frozen=True)
class Environment:
    """Emitter-side environment: work function (eV) and screening length (nm)."""

    work_function_ev: float = 4.9
    screening_length_nm: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.work_function_ev <= 10.0:
            raise DomainError(f"work function {self.work_function_ev} eV outside (0, 10]")
        if not 0.0 <= self.screening_length_nm < math.inf:
            raise ConfigError(f"screening length must be finite, >= 0 nm, "
                              f"got {self.screening_length_nm}")


@dataclass(frozen=True)
class CrossingGeometry:
    """Critical-distance geometry of PFI step n -> n+1, floats or arrays (see critical_distance).

    l_c_nm is measured from the image plane, z_c_nm from the model surface
    (z_c = L_c - lambda, floored at Z_FLOOR_AU); l_i_nm is the Schottky hump
    position. When the discriminant is negative the crossing vanishes: L_c is 0
    and z_c sits at the floor.
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
    z_c is where the step integral starts. Array arguments give array members.
    """
    steps = np.asarray(n)
    outside = steps[(steps < 1) | (steps >= species.max_charge)].tolist()
    if outside:
        raise ConfigError(f"step {outside[0]}->{outside[0] + 1} needs I_{outside[0] + 1} "
                          f"in the {species.name} ladder")
    field = np.asarray(field_vnm, dtype=float)
    if not (field > 0.0).all():
        raise DomainError(f"field must be > 0 V/nm, got {field[~(field > 0.0)].flat[0]}")
    l_c, z_c, l_i = _crossing_nm(np.array(species.ie_ladder_ev)[n] - env.work_function_ev,
                                 env.screening_length_nm, 2 * steps + 1, field)
    return CrossingGeometry(*(v if v.ndim else v.item()
                              for v in (l_c, z_c * CONSTANTS.bohr_in_nm, l_i)))


def _crossing_nm(a, lambda_nm, odd, field_vnm):
    """critical_distance's unchecked body, given a = I_{n+1} - phi in eV, the screening length
    lambda_nm and odd = 2n + 1 (floats or arrays): L_c (0 if vanished) in nm, z_c in a.u.,
    floored at Z_FLOOR_AU, and L_i in nm."""
    disc = a * a - odd * field_vnm * CONSTANTS.w_image_evnm
    l_c = np.where(disc < 0.0, 0.0, (a + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * field_vnm))
    z_c = np.maximum((l_c - lambda_nm) / CONSTANTS.bohr_in_nm, Z_FLOOR_AU)
    return l_c, z_c, 0.5 * np.sqrt(CONSTANTS.w_image_evnm / field_vnm)


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
    return _kinetic_ev(field_vnm, n, l_nm, debt_ev, n * n * CONSTANTS.c_image_evnm)


def _kinetic_ev(field_vnm, n, l_nm, debt_ev, n2_c):
    """kinetic_energy_unchecked's body, given its field-independent factor n^2 C."""
    return n * field_vnm * l_nm + n2_c / l_nm - debt_ev


def _gap_nm(field_vnm, n, debt_ev, four_n3, n2_c):
    """The L interval (nm) where k_n(L) < 0, or (0, 0) if k_n never goes negative, as its
    two ends stacked on a new first axis; field, n and ``debt_ev`` (step n's
    ``energy_debt_ev``) are floats or arrays that broadcast together, and four_n3 and n2_c
    are the field-independent factors 4 n^3 and n^2 C, as the kernel's constant rows hold them.

    k_n < 0 exactly between the roots of the upward parabola L k_n(L) = n F L^2 - K L + n^2 C.
    """
    disc = debt_ev * debt_ev - four_n3 * field_vnm * CONSTANTS.c_image_evnm
    q = 0.5 * (debt_ev + np.sqrt(np.maximum(disc, 0.0)))
    return np.where(disc > 0.0, (n2_c / q, q / (n * field_vnm)), 0.0)
