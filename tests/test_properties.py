"""Property-based invariants across the model surface."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from pfikit import (
    CONSTANTS,
    KINGHAM_Z,
    Assignment,
    Environment,
    OverlapCase,
    Peak,
    RangedPeakSet,
    build_overlap_matrix,
    builtin_species,
    charge_fractions,
    critical_distance,
    csr_from_fractions,
    deconvolve,
    isotopologue_distribution,
    kellogg_field,
    load_isotopes,
    pfi_step_probability,
    resolve_overlap,
)
from pfikit.kinematics import kinetic_energy_unchecked

SPECIES = builtin_species()
SI_ENV = Environment(work_function_ev=4.9)
ISOTOPES = load_isotopes()

@given(st.floats(min_value=100.0, max_value=20000.0),
       st.floats(min_value=1.0, max_value=100.0),
       st.floats(min_value=100.0, max_value=20000.0),
       st.floats(min_value=0.1, max_value=10.0))
def test_kellogg_is_homogeneous(voltage, f0, v0, scale):
    base = kellogg_field(voltage, f0, v0)
    assert kellogg_field(scale * voltage, f0, v0) == pytest.approx(
        scale * base, rel=1e-12)
    assert kellogg_field(v0, f0, v0) == pytest.approx(f0, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=1e6),
       st.floats(min_value=0.0, max_value=1e6),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=1e-6, max_value=1.0))
def test_resolve_overlap_invariants(shared, anchor, f_partner, f_anchor):
    res = resolve_overlap(shared, anchor, f_partner, f_anchor,
                          OverlapCase(75.0, ("As", 2), 1, ("As2", 2)))
    assert res.assigned_counts + res.remainder_counts == res.shared_counts
    assert 0.0 <= res.assigned_counts <= res.shared_counts
    assert res.remainder_counts >= 0.0
    assert res.deficit_counts >= 0.0
    assert (res.deficit_counts == 0.0) == (res.predicted_counts <= res.shared_counts)


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=3))
def test_csr_stays_in_the_unit_interval(fractions):
    value = csr_from_fractions(tuple(fractions))
    assert 0.0 <= value <= 1.0


@given(st.sampled_from(["Si", "As", "In", "Ga", "Rh"]),
       st.integers(min_value=1, max_value=6))
def test_isotopologue_distributions_normalize(element, k):
    dist = isotopologue_distribution(ISOTOPES, element, k)
    assert abs(math.fsum(p for _, p in dist) - 1.0) <= 1e-12
    masses = [m for m, _ in dist]
    assert masses == sorted(masses)
    assert all(p > 0.0 for _, p in dist)


@given(st.lists(st.integers(min_value=0, max_value=10**9),
                min_size=3, max_size=3),
       st.floats(min_value=0.1, max_value=100.0))
def test_deconvolution_conserves_and_scales(counts, scale):
    peaks = tuple(Peak(float(28 + i), float(c), (Assignment("Si", 1, 28 + i),))
                  for i, c in enumerate(counts))
    peak_set = RangedPeakSet(peaks)
    matrix = build_overlap_matrix(peak_set, ISOTOPES)
    result = deconvolve(peak_set, matrix)
    assert result.totals[("Si", 1)] == float(sum(counts))
    scaled_set = RangedPeakSet(tuple(
        Peak(p.mz_da, scale * p.counts, p.assignments) for p in peaks))
    scaled = deconvolve(scaled_set, matrix)
    assert scaled.totals[("Si", 1)] == pytest.approx(
        scale * result.totals[("Si", 1)], rel=1e-9)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["si", "si3", "rh"]),
       st.floats(min_value=6.0, max_value=45.0))
def test_step_probability_and_fractions_are_physical(name, field):
    sp = SPECIES[name]
    step = pfi_step_probability(sp, SI_ENV, KINGHAM_Z, 1, field)
    assert 0.0 <= step.p_t <= 1.0
    fractions = charge_fractions(sp, SI_ENV, KINGHAM_Z, field)
    assert all(f >= 0.0 for f in fractions)
    assert abs(math.fsum(fractions) - 1.0) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=5.0, max_value=40.0))
def test_critical_distance_solves_its_quadratic(field):
    sp = SPECIES["si"]
    geo = critical_distance(sp, SI_ENV, 1, field)
    if geo.barrier_vanished:
        return
    c = CONSTANTS.c_image_evnm
    a = sp.ie_ev(2) - SI_ENV.work_function_ev
    residual = field * geo.l_c_nm - a + 3.0 * c / geo.l_c_nm
    assert abs(residual) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=5.0, max_value=40.0))
def test_first_step_energy_vanishes_at_the_hump(field):
    l_i = critical_distance(SPECIES["si"], SI_ENV, 1, field).l_i_nm
    k = kinetic_energy_unchecked(field, 1, (), l_i)
    assert abs(k) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=5.0, max_value=40.0),
       st.floats(min_value=0.02, max_value=2.0))
def test_first_step_energy_is_a_perfect_square(field, l_nm):
    # k1(L) = (F/L) (L - L_i)^2: nonnegative with a double zero at the hump
    l_i = critical_distance(SPECIES["si"], SI_ENV, 1, field).l_i_nm
    k = kinetic_energy_unchecked(field, 1, (), l_nm)
    expected = (field / l_nm) * (l_nm - l_i) ** 2
    assert abs(k - expected) <= 1e-9
    assert k >= -1e-12
