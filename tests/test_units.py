"""Unit conversions and the pinned constants."""

import math

import pytest

from pfikit import CONSTANTS
from pfikit.errors import DomainError
from pfikit.units import mass_amu_to_me, to_hartree


def test_image_coefficients():
    w = CONSTANTS.w_image_evnm
    assert f"{w:.6f}" == "1.439965"
    assert CONSTANTS.c_image_evnm == w / 4.0
    assert f"{CONSTANTS.c_image_evnm:.7f}" == "0.3599911"
    assert CONSTANTS.c_s == math.sqrt(w)
    assert f"{CONSTANTS.c_s:.6f}" == "1.199985"


def test_known_conversion_values():
    assert to_hartree(CONSTANTS.hartree_in_ev) == 1.0
    assert mass_amu_to_me(1.0) == CONSTANTS.amu_in_me


def test_nonfinite_rejected():
    with pytest.raises(DomainError):
        to_hartree(float("nan"))
    with pytest.raises(DomainError):
        mass_amu_to_me(float("inf"))


def test_nonpositive_mass_rejected():
    with pytest.raises(DomainError):
        mass_amu_to_me(0.0)
