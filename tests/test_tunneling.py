"""Rate constant, step probabilities, and charge-state fractions."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from pfikit import (
    CONSTANTS,
    KINGHAM_Z,
    ConfigError,
    DomainError,
    Environment,
    FieldGrid,
    NumericalError,
    SpeciesParams,
    ZModel,
    charge_fractions,
    critical_distance,
    generate_curve,
    pfi_step_probability,
)
from pfikit import tunneling

# the environment `pfikit curves` uses when no --phi is given
CLI_ENV = Environment(work_function_ev=4.9)


def _floored_z_c(sp, env, n, field):
    """The step kernel's lower integration limit: z_c in a.u., floored at Z_FLOOR_AU."""
    return critical_distance(sp, env, n, field).z_c_nm / CONSTANTS.bohr_in_nm


def _rate(sp, env, zmodel, n, field, z0):
    """R(z0) of step n as the step kernel evaluates it, at z0 raised to the floored z_c;
    field and z0 broadcast together. The kernel takes its barrier-zone pieces as the
    leading rows, so each point goes in as a row of its own, those with b > 0 first."""
    f_vnm, z = np.broadcast_arrays(np.asarray(field, dtype=float),
                                   np.maximum(z0, _floored_z_c(sp, env, n, field)))
    shape, f_vnm, z = z.shape, f_vnm.reshape(-1, 1), z.reshape(-1, 1)
    near = _barrier_residual(sp, zmodel, n, f_vnm, z)[:, 0] > 0.0
    order = np.argsort(~near, kind="stable")
    # the rate's rows of the step constants: I (Ha), n + c0, c1, 6 pi A^2 nu, sqrt(2/I), 16 I^2,
    # I^1.5 and its multiples +-2^2.5 I^1.5
    rows = tunneling._step_constants(sp, env, zmodel, n)[2:11, n - 1]
    step = rows[:, None, None] * np.ones((z.size, 1))
    rates = np.empty(z.size)
    rates[order] = tunneling._rate_au(step, f_vnm[order] / CONSTANTS.field_au_in_vnm,
                                      z[order], np.count_nonzero(near))[:, 0]
    return rates.reshape(shape)[()]


def test_prefactor_matches_direct_formula(species_table):
    # independent evaluation of 6 pi A^2 nu = 6 pi I / (6 pi m_q e^(2/3)) in a.u., the
    # rate's prefactor row of the step constants
    for name in ("si", "si3", "rh"):
        sp = species_table[name]
        prefactors = tunneling._step_constants(sp, CLI_ENV, KINGHAM_Z, sp.max_charge - 1)[5]
        for n in range(1, sp.max_charge):
            i_ha = sp.ie_ladder_ev[n] / CONSTANTS.hartree_in_ev
            expected = i_ha / (sp.m_q * math.e ** (2.0 / 3.0))
            assert prefactors[n - 1] == pytest.approx(expected, rel=1e-14)


def test_prefactor_rejects_steps_outside_ladder(species_table):
    for name, n in (("rh", 2), ("si", 0)):
        with pytest.raises(ConfigError, match=r"needs I_\d+ in the \w+ ladder$"):
            pfi_step_probability(species_table[name], CLI_ENV, KINGHAM_Z, n, 20.0)


def test_plateau_rate_is_distance_independent(species_table, si_env):
    # far out the barrier term is gone and the Z argument saturates, so the
    # rate no longer depends on the launch distance at all
    si = species_table["si"]
    r_150 = _rate(si, si_env, KINGHAM_Z, 1, 20.0, 150.0)
    r_190 = _rate(si, si_env, KINGHAM_Z, 1, 20.0, 190.0)
    assert r_150 == r_190
    assert r_150 > 0.0


def test_low_field_rate_magnitude(species_table, si_env):
    # deep-tunneling reference point: the exponent dominates everything
    r = _rate(species_table["si"], si_env, KINGHAM_Z, 1, 1.0, 20.0)
    assert r == pytest.approx(9.721e-157, rel=1e-3)


def test_rate_monotone_in_field_within_each_zone(species_table, si_env):
    # at fixed launch distance the rate climbs with field inside the barrier
    # zone and again on the plateau; the zone handoff itself is a step down
    si = species_table["si"]
    barrier = [_rate(si, si_env, KINGHAM_Z, 1, f, 12.0)
               for f in (8.0, 12.0, 16.0)]
    plateau = [_rate(si, si_env, KINGHAM_Z, 1, f, 12.0)
               for f in (20.0, 24.0, 30.0)]
    assert all(a < b for a, b in zip(barrier, barrier[1:]))
    assert all(a < b for a, b in zip(plateau, plateau[1:]))
    assert barrier[-1] > plateau[0]


def test_rate_on_an_array_matches_scalar_calls(species_table, si_env):
    # one array call covers the near zone below z*, the plateau and the
    # capped Z argument, and distances below z_c
    for name, n, field in (("si", 1, 12.0), ("si3", 2, 20.0), ("rh", 1, 25.0)):
        sp = species_table[name]
        z = np.geomspace(0.06, 199.0, 57)
        rates = _rate(sp, si_env, KINGHAM_Z, n, field, z)
        assert rates.shape == z.shape
        for z0, rate in zip(z, rates):
            assert rate == pytest.approx(
                _rate(sp, si_env, KINGHAM_Z, n, field, float(z0)), rel=1e-15)


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
    # the shipped ladder against one rung of K61, with twice the nodes of its top rung, on
    # every step
    fields = [float(f) for f in range(5, 46)]

    def table():
        return {(sp.name, zname, n, f): pfi_step_probability(sp, CLI_ENV, zmodel, n, f)
                for sp in species_table.values()
                for zname, zmodel in named_zmodels.items()
                for n in range(1, min(sp.max_charge, 3))
                for f in fields}

    shipped = table()
    monkeypatch.setattr(tunneling, "RULE_ORDERS", (2 * tunneling.RULE_ORDERS[-1],))
    refined = table()
    worst = max(shipped, key=lambda key: abs(shipped[key] - refined[key]))
    assert abs(shipped[worst] - refined[worst]) <= 1e-9, worst


@pytest.mark.parametrize("n", tunneling.RULE_ORDERS)
def test_kronrod_rule_is_exact_interlaced_and_positive(n):
    # Legendre polynomials, not monomials: x^k near degree 48 is too flat to show an error
    x, w_kronrod, w_gauss = tunneling._kronrod_rule(n)
    assert x.shape == w_kronrod.shape == (2 * n + 1,) and w_gauss.shape == (n,)
    # the Kronrod rule is exact to degree 3n + 1 for even n (K21: 31) and 3n + 2 for odd n
    # (K31: 47), its embedded Gauss rule to 2n - 1, and neither further
    degree = 3 * n + 1 + n % 2
    moments = np.polynomial.legendre.legvander(x, degree + 1).T
    exact = np.zeros(len(moments))
    exact[0] = 2.0
    kronrod, gauss = moments @ w_kronrod - exact, moments[:, :n] @ w_gauss - exact
    assert np.abs(kronrod[:degree + 1]).max() <= 1e-14
    assert np.abs(gauss[:2 * n]).max() <= 1e-14
    assert abs(kronrod[degree + 1]) > 1e-6 and abs(gauss[2 * n]) > 1e-6
    # the n Gauss nodes strictly interlace the n + 1 Kronrod-only nodes
    order = np.argsort(x)
    assert (np.diff(x[order]) > 0.0).all()
    assert (order < n).tolist() == [k % 2 == 1 for k in range(2 * n + 1)]
    assert (w_kronrod > 0.0).all() and (w_gauss > 0.0).all()


def _node_passes(call, monkeypatch):
    """The nodes z (a.u.) and the number of leading zone rows of each ``_rate_au`` call made by
    call()."""
    passes = []

    def rate_au(step, f_au, z_au, zone):
        passes.append((z_au.copy(), zone))
        return real_rate_au(step, f_au, z_au, zone)

    real_rate_au = tunneling._rate_au
    with monkeypatch.context() as patch:
        patch.setattr(tunneling, "_rate_au", rate_au)
        call()
    return passes


def test_step_evaluates_the_kronrod_nodes_of_each_kept_piece(species_table, rh_env,
                                                             monkeypatch):
    for order in tunneling.RULE_ORDERS:
        s, w_kronrod, w_gauss = tunneling._cosine_rule(order)
        assert s.shape == w_kronrod.shape == (2 * order + 1,) and ((s > 0.0) & (s < 1.0)).all()
        # the substitution s = (1 - cos t)/2 keeps the weights' sums at the interval length
        assert math.fsum(w_kronrod) == pytest.approx(1.0, abs=1e-14)
        assert math.fsum(w_gauss) == pytest.approx(1.0, abs=1e-14)
    # a call that K21 resolves makes one node pass, on a (kept pieces, 21) array
    (z, zone), = _node_passes(
        lambda: pfi_step_probability(species_table["rh"], rh_env, KINGHAM_Z, 1, 25.0),
        monkeypatch)
    assert len(z) > zone > 0 and z.shape[1] == 2 * tunneling.RULE_ORDERS[0] + 1 == 21


def test_a_pair_that_k21_refuses_gets_k31_on_its_pieces_only(species_table, named_zmodels,
                                                              monkeypatch):
    # Si3 under the si4 Z model at 19.6 V/nm: K21 refuses step 1->2 by a hair (its estimate
    # reads 1.00e-06) and K31 resolves it
    si3, zmodel = species_table["si3"], named_zmodels["si4"]

    def steps(last=2):
        return tunneling._pfi_steps(si3, CLI_ENV, zmodel, last, 19.6)

    (first, _), (second, zone) = _node_passes(steps, monkeypatch)
    ladder = steps()
    with monkeypatch.context() as patch:
        patch.setattr(tunneling, "RULE_ORDERS", (10,))
        with pytest.raises(NumericalError, match=r"^Si3 step 1->2 at 19.6 V/nm: .* not resolved "
                                                 r"\(P error estimate 1.00e-06 > 1e-06\)$"):
            steps()
        patch.setattr(tunneling, "RULE_ORDERS", (15,))
        k31 = steps()
        # K31 alone on step 1->2 makes one node pass over that step's pieces
        (k31_step_1, k31_zone), = _node_passes(lambda: steps(1), monkeypatch)
    # the escalated step keeps K31's bits; step 2->3 keeps K21's value, which differs
    assert ladder[0] == k31[0] and ladder[1] != k31[1]
    # the first pass takes every kept piece on 21 nodes, the second step 1->2's alone on 31
    assert first.shape[1] == 21 and second.shape[1] == 31 and len(second) < len(first)
    assert np.array_equal(second, k31_step_1) and zone == k31_zone


def _leading_rows(sp, env, zmodel, fields, monkeypatch):
    """Step n, field (V/nm) and nodes z of every row of each node pass of charge_fractions on
    fields (one per rung of the rule ladder that it runs), its chunks concatenated, and the
    number of leading rows that the pass evaluates as barrier zone: a list of those 4-tuples."""
    calls = []

    def rate_au(step, f_au, z_au, zone):
        assert len(z_au) <= tunneling.PIECE_CHUNK
        # step n from the rows' n + c0, and which rows the chunk evaluates as barrier zone
        calls.append((np.rint(step[1][:, 0] - zmodel.c0).astype(int), f_au[:, 0], z_au,
                      np.arange(len(z_au)) < zone))
        return real_rate_au(step, f_au, z_au, zone)

    real_rate_au = tunneling._rate_au
    with monkeypatch.context() as patch:
        patch.setattr(tunneling, "_rate_au", rate_au)
        charge_fractions(sp, env, zmodel, fields)
    passes = []
    # each rung's chunks have its node count, which no other rung shares
    for _, rung in itertools.groupby(calls, key=lambda call: call[2].shape[1]):
        n, f_au, z, near = (np.concatenate(part) for part in zip(*rung))
        zone = np.count_nonzero(near)
        assert near[:zone].all()  # each chunk's share of the zone rows, and they lead the pass
        # each row's field, found back from the kernel's own a.u. value of it
        at = np.searchsorted(fields / CONSTANTS.field_au_in_vnm, f_au)
        assert (fields[at] / CONSTANTS.field_au_in_vnm == f_au).all()
        passes.append((n[:, None], fields[at][:, None], z, zone))
    assert [z.shape[1] for _, _, z, _ in passes] == [
        2 * order + 1 for order in tunneling.RULE_ORDERS[:len(passes)]]
    return passes


def test_node_pass_chunks_are_the_kept_pieces_in_order(species_table, monkeypatch):
    # no chunk holds more than PIECE_CHUNK pieces, and the chunks of each rung, concatenated,
    # are the rows of one node pass over every piece of that rung
    fields = np.array(FieldGrid(5.0, 45.0, 0.1).points())
    env = Environment(CLI_ENV.work_function_ev, 0.1)
    chunked = _leading_rows(species_table["si3"], env, KINGHAM_Z, fields, monkeypatch)
    assert len(chunked) == 2  # K21 refuses some pairs of this curve, which K31 then takes
    assert len(chunked[0][2]) > 2 * tunneling.PIECE_CHUNK
    monkeypatch.setattr(tunneling, "PIECE_CHUNK", len(chunked[0][2]))
    whole = _leading_rows(species_table["si3"], env, KINGHAM_Z, fields, monkeypatch)
    assert len(whole) == len(chunked)
    assert all(np.array_equal(a, b) for rungs in zip(chunked, whole) for a, b in zip(*rungs))


def test_piece_chunks_change_no_bits(species_table, named_zmodels, monkeypatch):
    # a chunk of 7 puts the last zone pieces and the first plateau pieces in one chunk
    fields = np.array(FieldGrid(5.0, 45.0, 0.1).points())
    mixed = []

    def rate_au(step, f_au, z_au, zone):
        mixed.append(0 < zone < len(z_au))
        return real_rate_au(step, f_au, z_au, zone)

    real_rate_au = tunneling._rate_au
    for sp in species_table.values():
        for zmodel in named_zmodels.values():
            for lam in (0.0, 0.1):
                env, key = Environment(CLI_ENV.work_function_ev, lam), (sp.name, zmodel, lam)
                default = charge_fractions(sp, env, zmodel, fields)
                blocks = [charge_fractions(sp, env, zmodel, fields[i:i + 64])
                          for i in range(0, fields.size, 64)]
                assert all(np.array_equal(a, np.concatenate(b))
                           for a, b in zip(default, zip(*blocks))), key
                for chunk in (1, 7):
                    with monkeypatch.context() as patch:
                        patch.setattr(tunneling, "PIECE_CHUNK", chunk)
                        patch.setattr(tunneling, "_rate_au", rate_au)
                        chunked = charge_fractions(sp, env, zmodel, fields)
                        singles = [charge_fractions(sp, env, zmodel, f)
                                   for f in fields.tolist()] if sp.name == "Si" else None
                    assert all(np.array_equal(a, b) for a, b in zip(chunked, default)), key
                    if singles is not None:
                        assert np.array_equal(np.transpose(singles), default), key
    assert any(mixed)


def test_kernel_memory_is_bounded_by_its_chunks(species_table, named_zmodels):
    # the geometry planes grow with the fields, the node arrays only up to PIECE_CHUNK pieces
    problems = [(sp, CLI_ENV, zmodel) for sp in species_table.values() if sp.max_charge >= 3
                for zmodel in named_zmodels.values()]
    fields = np.tile(FieldGrid().points(), (len(problems), 1))
    assert fields.shape == (12, 401)
    for call, limit_mb in ((lambda: charge_fractions(*zip(*problems), fields), 8.0),
                           (lambda: generate_curve(species_table["si"], CLI_ENV, KINGHAM_Z),
                            2.0)):
        call()  # caches filled
        tracemalloc.start()
        try:
            call()
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak_mb < limit_mb


def test_field_error_names_the_first_bad_value_and_the_shape(species_table, si_env):
    si, head = species_table["si"], ("field must be finite and > 0 V/nm, a float or 1-D (one "
                                     "row per problem for several), got shape ")
    for fields, tail in ((np.linspace(-1.0, 45.0, 401), "(401,) holding -1.0"),
                         (np.array([20.0, math.nan, 0.0]), "(3,) holding nan"),
                         (np.ones((2, 2)), "(2, 2)")):
        with pytest.raises(DomainError) as exc_info:
            charge_fractions(si, si_env, KINGHAM_Z, fields)
        assert str(exc_info.value) == head + tail


def test_barrier_zone_rows_are_the_nodes_with_a_residual_barrier(species_table, named_zmodels,
                                                                 monkeypatch):
    # the pieces are cut at both zone ends, so the leading rows hold every node with b > 0
    # and no other: a node's regime follows from its piece, and a field's P keeps its bits
    fields = np.array(FieldGrid(5.0, 45.0, 0.1).points())
    leading = trailing = 0
    for sp in species_table.values():
        for zmodel in named_zmodels.values():
            for phi in (4.5, 4.9, 5.3):
                for lam in (0.0, 0.1):
                    for n, field, z, zone in _leading_rows(sp, Environment(phi, lam), zmodel,
                                                           fields, monkeypatch):
                        b = _barrier_residual(sp, zmodel, n, field, z)
                        key = (sp.name, zmodel, phi, lam, z.shape[1])
                        assert (b[:zone] > 0.0).all(), key
                        assert (b[zone:] <= 0.0).all(), key
                        leading, trailing = leading + zone, trailing + len(b) - zone
    assert leading > 0 and trailing > 0


def test_step_gate_raises_above_the_tolerance(species_table, rh_env, monkeypatch):
    rh = species_table["rh"]
    assert 0.0 < pfi_step_probability(rh, rh_env, KINGHAM_Z, 1, 25.0) < 1.0
    # an integrated step always has some Kronrod-Gauss difference
    monkeypatch.setattr(tunneling, "P_TOL", 0.0)
    with pytest.raises(NumericalError, match="not resolved"):
        pfi_step_probability(rh, rh_env, KINGHAM_Z, 1, 25.0)


def test_rh_step_probability_at_25(species_table, rh_env):
    p_t = pfi_step_probability(species_table["rh"], rh_env, KINGHAM_Z, 1, 25.0)
    assert p_t == pytest.approx(0.5826, abs=1e-3)
    assert 0.0 < p_t < 1.0


def test_vanished_barrier_saturates_first_step(species_table, si_env):
    # above the barrier-collapse field the launch site sits at the floor,
    # below the potential hump, and the dwell time there diverges
    assert pfi_step_probability(species_table["si4"], si_env, KINGHAM_Z, 1, 30.0) == 1.0


def test_step_probability_monotone_in_field(species_table, si_env):
    si = species_table["si"]
    probs = [pfi_step_probability(si, si_env, KINGHAM_Z, 1, f)
             for f in (16.0, 18.0, 20.0, 22.0)]
    assert all(0.0 <= p <= 1.0 for p in probs)
    assert all(a < b for a, b in zip(probs, probs[1:]))


def test_window_is_wide_enough(species_table, si_env, monkeypatch):
    # doubling z_max must not change the answer: the tail is negligible
    si = species_table["si"]
    base = pfi_step_probability(si, si_env, KINGHAM_Z, 1, 19.6)
    monkeypatch.setattr(tunneling, "Z_MAX_AU", 2.0 * tunneling.Z_MAX_AU)
    wide = pfi_step_probability(si, si_env, KINGHAM_Z, 1, 19.6)
    assert wide == pytest.approx(base, abs=1e-6)


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
    assert _rate(rh, si_env, KINGHAM_Z, 1, 25.0, 120.0) == \
        _rate(rh, si_env, KINGHAM_Z, 1, 25.0, 180.0)


@pytest.mark.xfail(
    reason="singles/doubles parity for Si under the default Z model lands at "
    "19.8 V/nm; at 19.6 the ratio is 0.43, outside the 0.50 +/- 0.02 band",
    strict=True)
def test_si_csr_at_nominal_crossover(species_table, si_env):
    fr = charge_fractions(species_table["si"], si_env, KINGHAM_Z, 19.6)
    csr = fr[1] / (fr[0] + fr[1])
    assert csr == pytest.approx(0.5, abs=0.02)


def _barrier_residual(sp, zmodel, n, field, z):
    """b(z) = I - Z(n, min(z, cap)) F / I - F z in Hartree, straight from its definition; the
    step n (an int or an int array), the field and z broadcast together."""
    i_ha = np.array(sp.ie_ladder_ev)[n] / CONSTANTS.hartree_in_ev
    f_au = field / CONSTANTS.field_au_in_vnm
    z_eff = n + zmodel.c0 + zmodel.c1 / np.minimum(z, tunneling.Z_ARG_CAP_AU)
    return i_ha - z_eff * f_au / i_ha - f_au * z


def _zone_ends(sp, zmodel, n, fields):
    """Both ends (a.u.) of step n's barrier zone at an array of fields, NaN where it has none."""
    f_au, i_ha = fields / CONSTANTS.field_au_in_vnm, sp.ie_ladder_ev[n] / CONSTANTS.hartree_in_ev
    with np.errstate(invalid="ignore"):
        return tunneling._clamp_distance_au(
            i_ha, f_au, n + zmodel.c0, 4.0 * zmodel.c1,
            n + zmodel.c0 + zmodel.c1 / tunneling.Z_ARG_CAP_AU)


def _bracketed_root(b, lo, hi):
    """brentq's root of b in [lo, hi], the upper end doubled until b changes sign."""
    while b(hi) * b(lo) > 0.0:
        hi *= 2.0
    return brentq(b, lo, hi, xtol=1e-13)


def test_clamp_distance_solves_the_barrier_residual(species_table, named_zmodels):
    # every species x Z model x step on the default grid: both zone ends are roots of b, found
    # again by a root finder on either side of the zone's middle, where b > 0; without c1 the
    # zone begins at 0, and where b < 0 even at its peak z = sqrt(c1 / I) there is no zone
    zmodels = dict(named_zmodels, no_c1=ZModel(c0=1.0, c1=0.0))
    fields = np.array(FieldGrid(5.0, 45.0, 0.1).points())
    branches = {"no zone": 0, "quadratic": 0, "linear": 0, "at 0": 0}
    for sp in species_table.values():
        for zmodel in zmodels.values():
            for n in range(1, min(sp.max_charge, 3)):
                i_ha = sp.ie_ladder_ev[n] / CONSTANTS.hartree_in_ev
                ends = zip(*(e.tolist() for e in _zone_ends(sp, zmodel, n, fields)))
                for field, (z_lo, z_hi) in zip(fields.tolist(), ends):
                    def b(z):
                        return _barrier_residual(sp, zmodel, n, field, z)

                    key = (sp.name, zmodel, n, field)
                    if math.isnan(z_lo):
                        assert math.isnan(z_hi) and b(math.sqrt(zmodel.c1 / i_ha)) < 0.0, key
                        branches["no zone"] += 1
                        continue
                    middle = 0.5 * (z_lo + z_hi)
                    assert z_lo < z_hi and b(middle) > 0.0, key
                    assert abs(b(z_hi)) <= 1e-12 * i_ha, key
                    assert z_hi == pytest.approx(_bracketed_root(b, middle, 2.0 * middle),
                                                 abs=1e-10)
                    branches["quadratic" if z_hi < tunneling.Z_ARG_CAP_AU else "linear"] += 1
                    if zmodel.c1 == 0.0:
                        assert z_lo == 0.0, key
                        branches["at 0"] += 1
                        continue
                    assert abs(b(z_lo)) <= 1e-12 * i_ha, key
                    assert z_lo == pytest.approx(brentq(b, 1e-3 * z_lo, middle, xtol=1e-13),
                                                 abs=1e-10)
    assert all(branches.values()), branches


def test_clamp_distance_cuts_a_zone_above_the_critical_distance(species_table):
    # Rh, Kingham Z, phi 4.5 eV, lambda 0.1 nm at 40.8 V/nm: the zone [2.034, 3.330] a.u.
    # begins above z_c = 1.917 a.u., so b(z_c) < 0 and the zone still needs both cuts
    rh, env, field = species_table["rh"], Environment(4.5, 0.1), np.array([40.8])
    z_c = _floored_z_c(rh, env, 1, field)
    (z_lo,), (z_hi,) = _zone_ends(rh, KINGHAM_Z, 1, field)

    def b(z):
        return _barrier_residual(rh, KINGHAM_Z, 1, 40.8, z)

    assert b(z_c[0]) < 0.0
    assert z_c[0] == pytest.approx(1.917, abs=5e-4)
    assert z_lo == pytest.approx(brentq(b, z_c[0], 2.5, xtol=1e-13), abs=1e-10)
    assert z_hi == pytest.approx(brentq(b, 2.5, 10.0, xtol=1e-13), abs=1e-10)
    assert (z_lo, z_hi) == pytest.approx((2.034, 3.330), abs=5e-4)


def test_a_zone_beyond_the_cap_is_empty(species_table):
    # a large c1 puts both roots of the quadratic above the cap, where b is linear and
    # negative: there is no zone (z_hi = cap <= z_lo), not one between those roots
    si, zmodel = species_table["si"], ZModel(c0=1.0, c1=3e4)
    (z_lo,), (z_hi,) = _zone_ends(si, zmodel, 1, np.array([0.6]))
    assert z_hi == tunneling.Z_ARG_CAP_AU < z_lo
    z = np.linspace(0.5, 2.0 * z_lo, 2001)
    assert (_barrier_residual(si, zmodel, 1, 0.6, z) < 0.0).all()


def test_clamp_distance_without_c1_is_the_linear_root(species_table):
    # c1 = 0: z b(z) = z (I - (n + c0) F / I - F z), so the zone is [0, I / F - (n + c0) / I]
    si, zmodel = species_table["si"], ZModel(c0=1.0, c1=0.0)
    i_ha, f_au = si.ie_ladder_ev[1] / CONSTANTS.hartree_in_ev, 30.0 / CONSTANTS.field_au_in_vnm
    (z_lo,), (z_hi,) = _zone_ends(si, zmodel, 1, np.array([30.0]))
    assert z_lo == 0.0 and z_hi < tunneling.Z_ARG_CAP_AU
    assert z_hi == pytest.approx(i_ha / f_au - 2.0 / i_ha, rel=1e-14)


def test_fractions_on_a_field_array_match_float_calls(species_table, named_zmodels):
    # bit for bit: a field's fractions do not depend on the other fields of the call
    fields = np.array(FieldGrid(5.0, 45.0, 0.1).points())
    for sp in species_table.values():
        for zmodel in named_zmodels.values():
            batch = charge_fractions(sp, CLI_ENV, zmodel, fields)
            assert all(column.shape == fields.shape for column in batch)
            for i, field in enumerate(fields.tolist()):
                single = charge_fractions(sp, CLI_ENV, zmodel, field)
                assert all(type(f) is float for f in single)
                assert list(single) == [column[i] for column in batch], (sp.name, field)


def test_fractions_are_built_from_the_step_probabilities(species_table, named_zmodels):
    # the steps that charge_fractions runs together give what each step gives alone
    fields = np.array(FieldGrid(5.0, 45.0, 0.1).points())
    for sp in species_table.values():
        for zmodel in named_zmodels.values():
            rebuilt, survive = [], 1.0
            for n in range(1, min(sp.max_charge, 3)):
                p_t = pfi_step_probability(sp, CLI_ENV, zmodel, n, fields)
                rebuilt.append(survive * (1.0 - p_t))
                survive = survive * p_t
            rebuilt.append(survive)
            fractions = charge_fractions(sp, CLI_ENV, zmodel, fields)
            assert all(np.array_equal(a, b) for a, b in zip(fractions, rebuilt)), sp.name


# sha256 prefixes of the little-endian float64 bytes of charge_fractions at phi 4.9 eV and
# a screening length of 0 or 0.1 nm, recorded when the K21-then-K31 rule ladder replaced the
# one K31 rule (every fraction moved by at most 1.2e-9): float calls at the three
# ANCHOR_FIELDS, then one call on the default grid
ANCHOR_FIELDS = (12.0, 19.82, 33.3)
FRACTION_BITS = {
    ("si", "kingham", 0.0): "c42c524fd4e45364", ("si", "si3", 0.0): "52fbc48d1c005239",
    ("si", "si4", 0.0): "4913b3f3cc6d31e9", ("si2", "kingham", 0.0): "0bd0aa27b8380324",
    ("si2", "si3", 0.0): "ec9758bd8bdfff5e", ("si2", "si4", 0.0): "51383b4ef9dbc97e",
    ("si3", "kingham", 0.0): "d076a7492c76da0a", ("si3", "si3", 0.0): "fa4755d7dae11104",
    ("si3", "si4", 0.0): "a44dbc7946c1c9c3", ("si4", "kingham", 0.0): "cea50c9e4a8f4b6d",
    ("si4", "si3", 0.0): "9fd89ff08968c461", ("si4", "si4", 0.0): "4d2243db9c0d3574",
    ("rh", "kingham", 0.0): "ae040037226a25ca", ("rh", "si3", 0.0): "940452e7216e08b9",
    ("rh", "si4", 0.0): "fa39e6314c50ef50",
    ("si", "kingham", 0.1): "636a74ef10280b9e", ("si", "si3", 0.1): "5c0d12e6a9162c08",
    ("si", "si4", 0.1): "a9aeab6820706a12", ("si2", "kingham", 0.1): "5a725f4cb3f329e1",
    ("si2", "si3", 0.1): "a05c99bee01ce6fe", ("si2", "si4", 0.1): "a1e47019ee7643b8",
    ("si3", "kingham", 0.1): "b8d507b625caf5e8", ("si3", "si3", 0.1): "e8d1f1624fe1b827",
    ("si3", "si4", 0.1): "7a9658a94ea82165", ("si4", "kingham", 0.1): "3d501bfb913e76c2",
    ("si4", "si3", 0.1): "03de3db2981cc23d", ("si4", "si4", 0.1): "d0ca5759603ed3cd",
    ("rh", "kingham", 0.1): "f01753a16fcf9942", ("rh", "si3", 0.1): "015aa61c0ae52c2d",
    ("rh", "si4", 0.1): "a293c60501b6260c",
}


def test_fractions_keep_their_bits(species_table, named_zmodels):
    # a change to how the kernel computes may not move a single bit of any fraction
    grid = FieldGrid(5.0, 45.0, 0.1).points()
    assert set(FRACTION_BITS) == {(s, z, lam) for s in species_table for z in named_zmodels
                                  for lam in (0.0, 0.1)}
    for (name, zname, lam), expected in FRACTION_BITS.items():
        sp, zmodel = species_table[name], named_zmodels[zname]
        env = Environment(CLI_ENV.work_function_ev, lam)
        digest = hashlib.sha256()
        for field in (*ANCHOR_FIELDS, grid):
            fractions = charge_fractions(sp, env, zmodel, field)
            digest.update(np.array(fractions, dtype="<f8").tobytes())
        assert digest.hexdigest()[:16] == expected, (name, zname, lam)


def test_step_constants_are_built_once_per_problem(species_table, si_env):
    # equal problems share one read-only array; another ladder, environment, Z model or count
    # of steps gets its own
    si3 = species_table["si3"]
    rows = tunneling._step_constants(si3, si_env, KINGHAM_Z, 2)
    assert rows.shape == (18, 2) and not rows.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 0.0
    twin = tunneling._step_constants(dataclasses.replace(si3), Environment(4.9),
                                     ZModel(KINGHAM_Z.c0, KINGHAM_Z.c1), 2)
    assert twin is rows
    for other in (tunneling._step_constants(si3.with_ie(2, 15.74), si_env, KINGHAM_Z, 2),
                  tunneling._step_constants(si3, Environment(5.0), KINGHAM_Z, 2),
                  tunneling._step_constants(si3, si_env, ZModel(0.5, 2.0), 2),
                  tunneling._step_constants(si3, si_env, KINGHAM_Z, 1)):
        assert other is not rows and not other.flags.writeable
        assert not np.array_equal(other, rows)
    assert tunneling._step_constants(si3, si_env, KINGHAM_Z, 1).tolist() == rows[:, :1].tolist()


def test_equal_keys_give_bit_equal_step_constants(species_table):
    # ZModel(1, 4.5) == ZModel(1.0, 4.5) and Environment(4.9, 0) == Environment(4.9, 0.0) hash
    # alike, so the cache hands the second of a pair the rows of the first: they must be the
    # bits that the second builds itself, whichever of the two comes first
    si3 = species_table["si3"]
    fields = np.linspace(12.0, 30.0, 7)
    for pair in (((CLI_ENV, ZModel(1, 4.5)), (CLI_ENV, ZModel(1.0, 4.5))),
                 ((Environment(4.9, 0), KINGHAM_Z), (Environment(4.9, 0.0), KINGHAM_Z))):
        seen = []
        for order in (pair, pair[::-1]):
            tunneling._step_constants.cache_clear()  # each order starts from a cold cache
            for env, zmodel in order:
                rows = tunneling._step_constants(si3, env, zmodel, 2)
                fractions = np.array(charge_fractions(si3, env, zmodel, fields))
                seen.append((rows.tobytes(), fractions.tobytes()))
        assert len(seen) == 4 and len(set(seen)) == 1


def test_a_field_with_no_kept_piece_keeps_positive_zeros(species_table, si_env, monkeypatch):
    # Si at 1 V/nm keeps no piece of either step, so no node pass runs; P is +0.0, not the
    # -0.0 of an int bincount over no pieces, and no fraction prints as -0
    si = species_table["si"]
    steps = []
    assert not _node_passes(
        lambda: steps.extend(tunneling._pfi_steps(si, si_env, KINGHAM_Z, 2, 1.0)), monkeypatch)
    fractions = charge_fractions(si, si_env, KINGHAM_Z, 1.0)
    assert steps == [0.0, 0.0] and fractions == (1.0, 0.0, 0.0)
    assert all(math.copysign(1.0, value) == 1.0 for value in (*steps, *fractions))


def test_float_field_keeps_float_results(species_table, si_env):
    # one float per step, integrated, stalled at the hump (P = 1) or with an empty window (P = 0)
    si, si4 = species_table["si"], species_table["si4"]
    for sp, field, p_t in ((si, 20.0, None), (si4, 30.0, 1.0), (si, 1.0, 0.0)):
        steps = tunneling._pfi_steps(sp, si_env, KINGHAM_Z, 2, field)
        assert type(steps) is list and len(steps) == 2
        assert all(type(p) is float for p in steps)
        assert steps[0] == pfi_step_probability(sp, si_env, KINGHAM_Z, 1, field)
        if p_t is not None:
            assert steps[0] == p_t


def test_batch_equals_its_singles(species_table, si_env):
    # bit for bit, early outs included: an empty window gives P = 0, a hump launch P = 1
    for sp, fields in ((species_table["si"], [1.0, 20.0, 21.0]),
                       (species_table["si4"], [0.5, 30.0, 12.0])):
        batch = tunneling._pfi_steps(sp, si_env, KINGHAM_Z, 2, np.array(fields))
        assert batch.shape == (2, len(fields))
        singles = [tunneling._pfi_steps(sp, si_env, KINGHAM_Z, 2, f) for f in fields]
        assert batch.T.tolist() == singles
    assert batch[0, :2].tolist() == [0.0, 1.0]
    empty = tunneling._pfi_steps(species_table["si"], si_env, KINGHAM_Z, 2, np.array([]))
    assert empty.shape == (2, 0)


def test_batch_gate_names_the_first_failing_field(species_table, rh_env, monkeypatch):
    # the empty window at 1 V/nm needs no integral; every integrated field fails P_TOL = 0
    rh = species_table["rh"]
    fields = np.array([1.0, 22.0, 25.0])
    monkeypatch.setattr(tunneling, "P_TOL", 0.0)
    with pytest.raises(NumericalError, match="Rh step 1->2 at 22.0 V/nm"):
        pfi_step_probability(rh, rh_env, KINGHAM_Z, 1, fields)


def test_a_batch_of_problems_gives_each_its_own_bits(species_table, named_zmodels):
    # a seeded mix: every species under four Z models at two screening lengths, each at a
    # drawn work function and m_q, and Si3 with a refitted I2; one call takes them all, two-
    # and three-state ladders alike, and each row is what the problem gets alone, bit for bit,
    # with f3 = 0 exactly for a ladder without I3
    rng = np.random.default_rng(20221019)
    problems = [(dataclasses.replace(sp, m_q=int(rng.integers(1, 10))),
                 Environment(float(rng.uniform(4.5, 5.3)), lam), zmodel)
                for sp in species_table.values()
                for zmodel in (*named_zmodels.values(), ZModel(0.5, 2.0))
                for lam in (0.0, 0.1)]
    problems.append((species_table["si3"].with_ie(2, 15.74), CLI_ENV, KINGHAM_Z))
    fields = rng.uniform(6.0, 40.0, (len(problems), 9))
    batch = charge_fractions(*zip(*problems), fields)
    assert len(batch) == 3 and all(column.shape == fields.shape for column in batch)
    two_state = 0
    for k, (problem, row) in enumerate(zip(problems, fields)):
        single = charge_fractions(*problem, row)
        assert all(np.array_equal(b[k], f) for b, f in zip(batch, single)), problem
        if len(single) == 2:
            two_state += 1
            assert not batch[2][k].any(), problem
    assert (len(problems), two_state) == (41, 8)


def test_fewer_environments_than_species_is_a_config_error(species_table, si_env):
    with pytest.raises(ConfigError, match=r"sequences of lengths 2, 1 and 2: one of each"):
        charge_fractions((species_table["si"], species_table["si2"]), (si_env,),
                         (KINGHAM_Z, KINGHAM_Z), np.full((2, 3), 20.0))


def test_more_environments_than_species_is_a_config_error(species_table, si_env):
    # zip would drop the second environment and Z model without a word
    with pytest.raises(ConfigError, match=r"sequences of lengths 1, 2 and 2: one of each"):
        charge_fractions((species_table["si"],), (si_env, si_env), (KINGHAM_Z, KINGHAM_Z),
                         np.full((1, 3), 20.0))


def test_a_call_without_problems_is_a_config_error():
    # the longest ladder sets the count of fractions, so a call needs a problem
    with pytest.raises(ConfigError, match=r"lengths 0, 0 and 0: one of each a problem, at "):
        charge_fractions((), (), (), np.empty((0, 1)))


def test_a_batch_gate_names_its_first_failing_problem(species_table, si_env, monkeypatch):
    # with P_TOL = 0 every step whose P lies below 1 fails. Si at 1 V/nm integrates nothing;
    # Si4 at 25 V/nm completes step 1->2 (P = 1) and fails on step 2->3; Si at 20 V/nm fails on
    # step 1->2, first in step order, but the batch names Si4, its first failing problem
    si, si4 = species_table["si"], species_table["si4"]
    monkeypatch.setattr(tunneling, "P_TOL", 0.0)
    with pytest.raises(NumericalError) as alone:
        charge_fractions(si4, si_env, KINGHAM_Z, 25.0)
    with pytest.raises(NumericalError) as together:
        charge_fractions((si, si4, si), (si_env,) * 3, (KINGHAM_Z,) * 3,
                         np.array([[1.0], [25.0], [20.0]]))
    assert str(together.value) == str(alone.value)
    assert str(alone.value).startswith("Si4 step 2->3 at 25.0 V/nm: ")


def test_extreme_ladder_gives_fractions_without_warnings(si_env):
    # an infinite z_c empties the window of a step whose I_{n+1} is near the float limit
    for ladder, field, expected in (((7.0, 1e200), 20.0, (1.0, 0.0)),
                                    ((7.0, 16.0, 1e308), 20.0,
                                     (0.11693816060107154, 0.8830618393989285, 0.0))):
        sp = SpeciesParams("X", 28.0, ladder, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert charge_fractions(sp, si_env, KINGHAM_Z, field) == expected


def test_step_rejects_bad_fields(species_table, si_env):
    si = species_table["si"]
    for bad in (0.0, -1.0, math.inf, math.nan, np.array([20.0, 0.0]), np.ones((2, 2))):
        with pytest.raises(DomainError):
            pfi_step_probability(si, si_env, KINGHAM_Z, 1, bad)


def test_rate_on_a_field_array_matches_scalar_calls(species_table, si_env):
    si = species_table["si"]
    fields = np.array([[8.0], [19.6], [30.0]])
    z = np.geomspace(0.06, 199.0, 9)
    rates = _rate(si, si_env, KINGHAM_Z, 1, fields, z)
    assert rates.shape == (3, 9)
    for (field,), row in zip(fields.tolist(), rates):
        assert row.tolist() == _rate(si, si_env, KINGHAM_Z, 1, field, z).tolist()
