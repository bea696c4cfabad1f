"""Rate constant, step probabilities, and charge-state fractions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pfikit import (
    KINGHAM_Z,
    ConfigError,
    DomainError,
    Environment,
    FieldGrid,
    NumericalError,
    charge_fractions,
    generate_curve,
    load_zmodel,
    pfi_step_probability,
    rate_constant,
)
from pfikit import tunneling
from pfikit.cli import NAMED_ZMODELS
from pfikit.species import asset_path
from pfikit.tunneling import prefactor_a2nu
from pfikit.units import to_hartree

# the environment `pfikit curves` uses when no --phi is given
CLI_ENV = Environment(work_function_ev=4.9)


@pytest.fixture(scope="module")
def named_zmodels():
    return {name: load_zmodel(asset_path(path)) for name, path in NAMED_ZMODELS.items()}


def test_prefactor_matches_direct_formula(species_table):
    # independent evaluation of I / (6 pi m_q e^(2/3)) in a.u.
    for name in ("si", "si3", "rh"):
        sp = species_table[name]
        for n in range(1, sp.max_charge):
            i_ha = to_hartree(sp.ie_ladder_ev[n])
            expected = i_ha / (6.0 * math.pi * sp.m_q * math.e ** (2.0 / 3.0))
            assert prefactor_a2nu(sp, n) == pytest.approx(expected, rel=1e-14)


def test_prefactor_rejects_steps_outside_ladder(species_table):
    with pytest.raises(ConfigError):
        prefactor_a2nu(species_table["rh"], 2)
    with pytest.raises(ConfigError):
        prefactor_a2nu(species_table["si"], 0)


def test_plateau_rate_is_distance_independent(species_table, si_env):
    # far out the barrier term is gone and the Z argument saturates, so the
    # rate no longer depends on the launch distance at all
    si = species_table["si"]
    r_150 = rate_constant(si, si_env, KINGHAM_Z, 1, 20.0, 150.0)
    r_190 = rate_constant(si, si_env, KINGHAM_Z, 1, 20.0, 190.0)
    assert r_150 == r_190
    assert r_150 > 0.0


def test_low_field_rate_magnitude(species_table, si_env):
    # deep-tunneling reference point: the exponent dominates everything
    r = rate_constant(species_table["si"], si_env, KINGHAM_Z, 1, 1.0, 20.0)
    assert r == pytest.approx(9.721e-157, rel=1e-3)


def test_rate_monotone_in_field_within_each_zone(species_table, si_env):
    # at fixed launch distance the rate climbs with field inside the barrier
    # zone and again on the plateau; the zone handoff itself is a step down
    si = species_table["si"]
    barrier = [rate_constant(si, si_env, KINGHAM_Z, 1, f, 12.0)
               for f in (8.0, 12.0, 16.0)]
    plateau = [rate_constant(si, si_env, KINGHAM_Z, 1, f, 12.0)
               for f in (20.0, 24.0, 30.0)]
    assert all(a < b for a, b in zip(barrier, barrier[1:]))
    assert all(a < b for a, b in zip(plateau, plateau[1:]))
    assert barrier[-1] > plateau[0]


def test_rate_rejects_nonpositive_inputs(species_table, si_env):
    si = species_table["si"]
    with pytest.raises(DomainError):
        rate_constant(si, si_env, KINGHAM_Z, 1, 20.0, 0.0)
    with pytest.raises(DomainError):
        rate_constant(si, si_env, KINGHAM_Z, 1, 0.0, 12.0)
    with pytest.raises(DomainError):
        rate_constant(si, si_env, KINGHAM_Z, 1, 20.0, np.array([1.0, 0.0, 2.0]))


def test_rate_on_an_array_matches_scalar_calls(species_table, si_env):
    # one array call covers the near zone below z*, the plateau and the
    # capped Z argument, and distances below z_c
    for name, n, field in (("si", 1, 12.0), ("si3", 2, 20.0), ("rh", 1, 25.0)):
        sp = species_table[name]
        z = np.geomspace(0.06, 199.0, 57)
        rates = rate_constant(sp, si_env, KINGHAM_Z, n, field, z)
        assert rates.shape == z.shape
        for z0, rate in zip(z, rates):
            assert rate == pytest.approx(
                rate_constant(sp, si_env, KINGHAM_Z, n, field, float(z0)), rel=1e-15)


def test_every_species_and_zmodel_evaluates_on_the_default_grid(
        species_table, named_zmodels):
    # Si4 under every Z model used to stop at 19.6 V/nm on a quadrature failure
    for sp in species_table.values():
        for zmodel in named_zmodels.values():
            curve = generate_curve(sp, CLI_ENV, zmodel, FieldGrid(5.0, 45.0, 0.1))
            assert len(curve.fractions) == 401
            for row in curve.fractions:
                assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)


def test_step_probability_is_refinement_invariant(species_table, named_zmodels,
                                                  monkeypatch):
    # the shipped rule against one with twice the nodes, on every step
    fields = [float(f) for f in range(5, 46)]

    def table():
        return {(sp.name, zname, n, f): pfi_step_probability(sp, CLI_ENV, zmodel, n, f).p_t
                for sp in species_table.values()
                for zname, zmodel in named_zmodels.items()
                for n in range(1, min(sp.max_charge, 3))
                for f in fields}

    shipped = table()
    monkeypatch.setattr(tunneling, "RULE_ORDER", 2 * tunneling.RULE_ORDER)
    refined = table()
    worst = max(shipped, key=lambda key: abs(shipped[key] - refined[key]))
    assert abs(shipped[worst] - refined[worst]) <= 1e-9, worst


def test_step_gate_raises_above_the_tolerance(species_table, rh_env, monkeypatch):
    step = pfi_step_probability(species_table["rh"], rh_env, KINGHAM_Z, 1, 25.0)
    assert 0.0 < step.est_error <= tunneling.P_TOL
    monkeypatch.setattr(tunneling, "P_TOL", 0.5 * step.est_error)
    with pytest.raises(NumericalError, match="not resolved"):
        pfi_step_probability(species_table["rh"], rh_env, KINGHAM_Z, 1, 25.0)


def test_rh_step_probability_at_25(species_table, rh_env):
    step = pfi_step_probability(species_table["rh"], rh_env, KINGHAM_Z, 1, 25.0)
    assert step.p_t == pytest.approx(0.5826, abs=1e-3)
    assert 0.0 < step.p_t < 1.0
    assert step.integral_value > 0.0
    assert step.n_evaluations > 0


def test_vanished_barrier_saturates_first_step(species_table, si_env):
    # above the barrier-collapse field the launch site sits at the floor,
    # below the potential hump, and the dwell time there diverges
    step = pfi_step_probability(species_table["si4"], si_env, KINGHAM_Z, 1, 30.0)
    assert step.p_t == 1.0
    assert math.isinf(step.integral_value)
    assert "hump" in step.note


def test_step_probability_monotone_in_field(species_table, si_env):
    si = species_table["si"]
    probs = [pfi_step_probability(si, si_env, KINGHAM_Z, 1, f).p_t
             for f in (16.0, 18.0, 20.0, 22.0)]
    assert all(0.0 <= p <= 1.0 for p in probs)
    assert all(a < b for a, b in zip(probs, probs[1:]))


def test_window_is_wide_enough(species_table, si_env, monkeypatch):
    # doubling z_max must not change the answer: the tail is negligible
    si = species_table["si"]
    base = pfi_step_probability(si, si_env, KINGHAM_Z, 1, 19.6)
    monkeypatch.setattr(tunneling, "Z_MAX_AU", 2.0 * tunneling.Z_MAX_AU)
    wide = pfi_step_probability(si, si_env, KINGHAM_Z, 1, 19.6)
    assert wide.p_t == pytest.approx(base.p_t, abs=1e-6)


def test_fractions_sum_to_one(species_table, si_env, rh_env):
    for name, env in (("si", si_env), ("si3", si_env), ("rh", rh_env)):
        sp = species_table[name]
        for field in (8.0, 14.0, 19.6, 26.0, 40.0):
            fr = charge_fractions(sp, env, KINGHAM_Z, field)
            assert all(f >= 0.0 for f in fr)
            assert math.fsum(fr) == pytest.approx(1.0, abs=1e-12)


def test_fraction_count_follows_ladder(species_table, si_env, rh_env):
    assert len(charge_fractions(species_table["si"], si_env, KINGHAM_Z, 20.0)) == 3
    assert len(charge_fractions(species_table["rh"], rh_env, KINGHAM_Z, 25.0)) == 2


def test_fractions_shift_to_higher_charge_with_field(species_table, si_env):
    si = species_table["si"]
    low = charge_fractions(si, si_env, KINGHAM_Z, 14.0)
    high = charge_fractions(si, si_env, KINGHAM_Z, 26.0)
    assert low[0] > high[0]
    assert low[1] + low[2] < high[1] + high[2]


def test_deep_plateau_distances_share_the_capped_argument(species_table, si_env):
    # the cap applies to every species and step, not just the reference case
    rh = species_table["rh"]
    assert rate_constant(rh, si_env, KINGHAM_Z, 1, 25.0, 120.0) == \
        rate_constant(rh, si_env, KINGHAM_Z, 1, 25.0, 180.0)


@pytest.mark.xfail(
    reason="singles/doubles parity for Si under the default Z model lands at "
    "19.8 V/nm; at 19.6 the ratio is 0.43, outside the 0.50 +/- 0.02 band",
    strict=True)
def test_si_csr_at_nominal_crossover(species_table, si_env):
    fr = charge_fractions(species_table["si"], si_env, KINGHAM_Z, 19.6)
    csr = fr[1] / (fr[0] + fr[1])
    assert csr == pytest.approx(0.5, abs=0.02)

