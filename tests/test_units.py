"""The pinned constants, and the species checks on the values the step kernel converts
to atomic units (a mass in amu, an ionization-energy ladder in eV)."""

import math

import pytest

from pfikit import CONSTANTS, ConfigError, SpeciesParams

LADDER = (8.15, 16.35, 33.49)


def test_image_coefficients():
    w = CONSTANTS.w_image_evnm
    assert f"{w:.6f}" == "1.439965"
    assert CONSTANTS.c_image_evnm == w / 4.0
    assert f"{CONSTANTS.c_image_evnm:.7f}" == "0.3599911"
    assert CONSTANTS.c_s == math.sqrt(w)
    assert f"{CONSTANTS.c_s:.6f}" == "1.199985"


def test_nonfinite_rejected():
    for mass, ladder in ((math.inf, LADDER), (math.nan, LADDER),
                         (28.085, (8.15, 16.35, math.inf)), (28.085, (-math.inf, 16.35)),
                         (28.085, (8.15, math.nan))):
        with pytest.raises(ConfigError, match="finite"):
            SpeciesParams("Si", mass, ladder, 3)


def test_nonpositive_mass_rejected():
    for mass in (0.0, -28.085):
        with pytest.raises(ConfigError, match="mass"):
            SpeciesParams("Si", mass, LADDER, 3)
