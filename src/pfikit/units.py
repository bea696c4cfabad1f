"""Exact conversions of energies (eV) and masses (amu) to Hartree atomic units."""

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


def mass_amu_to_me(mass_amu: float) -> float:
    """amu -> electron masses."""
    _require_finite(mass_amu, "mass")
    if mass_amu <= 0.0:
        raise DomainError(f"mass must be > 0 amu, got {mass_amu}")
    return mass_amu * CONSTANTS.amu_in_me
