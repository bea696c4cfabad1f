"""Exact conversions from SI-flavored units (eV, nm, V/nm, amu) to Hartree atomic units."""

from __future__ import annotations

import math

from .constants import CONSTANTS
from .errors import DomainError


def _require_finite(value: float, what: str) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{what} must be finite, got {value!r}")


def to_hartree(energy_ev: float) -> float:
    """eV -> Hartree."""
    _require_finite(energy_ev, "energy")
    return energy_ev / CONSTANTS.hartree_in_ev


def field_to_au(field_vnm: float) -> float:
    """V/nm -> atomic field units. Negative fields are rejected."""
    _require_finite(field_vnm, "field")
    if field_vnm < 0.0:
        raise DomainError(f"field must be >= 0 V/nm, got {field_vnm}")
    return field_vnm / CONSTANTS.field_au_in_vnm


def length_to_au(length_nm: float) -> float:
    """nm -> Bohr radii. Negative lengths are rejected."""
    _require_finite(length_nm, "length")
    if length_nm < 0.0:
        raise DomainError(f"length must be >= 0 nm, got {length_nm}")
    return length_nm / CONSTANTS.bohr_in_nm


def mass_amu_to_me(mass_amu: float) -> float:
    """amu -> electron masses."""
    _require_finite(mass_amu, "mass")
    if mass_amu <= 0.0:
        raise DomainError(f"mass must be > 0 amu, got {mass_amu}")
    return mass_amu * CONSTANTS.amu_in_me
