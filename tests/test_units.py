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


def test_nonpositive_ionization_energy_rejected():
    # the kernel divides by I and takes its square root
    for ladder in ((-2.0, 0.0), (-2.0, -1.0), (0.0, 16.35)):
        with pytest.raises(ConfigError, match="> 0 eV"):
            SpeciesParams("Si", 28.085, ladder, 3)
    with pytest.raises(ConfigError, match="> 0 eV"):
        SpeciesParams("Si", 28.085, LADDER, 3).with_ie(1, -8.15)


def test_m_q_must_be_an_integer_of_at_least_one():
    # a NaN m_q used to reach the step kernel and exit 3 as an unresolved integral
    for m_q in (math.nan, math.inf, -math.inf, 2.5, 3.0, True, 0, -1):
        with pytest.raises(ConfigError, match="m_q must be an integer >= 1") as info:
            SpeciesParams("Si", 28.085, LADDER, m_q)
        assert info.value.exit_code == 2
    assert SpeciesParams("Si", 28.085, LADDER, 1).m_q == 1


def test_nonpositive_mass_rejected():
    for mass in (0.0, -28.085):
        with pytest.raises(ConfigError, match="mass"):
            SpeciesParams("Si", mass, LADDER, 3)
