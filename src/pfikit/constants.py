"""Pinned physical constants.

All physics modules read from the single :data:`CONSTANTS` instance so the
unit chain has one source of truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysConstants:
    """Physical constants (CODATA 2018) with their units in the names."""

    hartree_in_ev: float = 27.211386245988   # eV per Hartree
    bohr_in_nm: float = 0.0529177210903      # nm per Bohr radius
    field_au_in_vnm: float = 514.220674763   # V/nm per atomic field unit
    amu_in_me: float = 1822.888486209        # electron masses per amu
    w_image_evnm: float = 1.4399645355       # e^2/(4 pi eps0), eV nm

    @property
    def c_image_evnm(self) -> float:
        """Image-potential coefficient C = W/4, eV nm (exact by construction)."""
        return self.w_image_evnm / 4.0

    @property
    def c_s(self) -> float:
        """Schottky coefficient c_s = sqrt(W), eV (V/nm)^(-1/2)."""
        return math.sqrt(self.w_image_evnm)


CONSTANTS = PhysConstants()
