"""Isotopologue math, overlap deconvolution, and CSR extraction."""

from __future__ import annotations

import itertools
import math
import os

import numpy as np
import pytest

from pfikit import (
    Assignment,
    ConfigError,
    DegenerateMatrixError,
    DomainError,
    Isotope,
    IsotopeTable,
    Peak,
    RangedPeakSet,
    build_overlap_matrix,
    compute_csr,
    deconvolve,
    isotopologue_distribution,
    load_isotopes,
    parse_composition,
    range_spectrum,
    raw_csr,
    read_histogram_csv,
    read_peaks_csv,
    write_peaks_csv,
)


@pytest.fixture(scope="module")
def isotopes():
    return load_isotopes()


def _brute_force_distribution(table, cluster_size):
    # direct enumeration over every atom-by-atom isotope pick
    out: dict[int, float] = {}
    choices = [(iso.mass_number, iso.abundance) for iso in table]
    for combo in itertools.product(choices, repeat=cluster_size):
        total = sum(m for m, _ in combo)
        prob = math.prod(p for _, p in combo)
        out[total] = out.get(total, 0.0) + prob
    return out


def test_dimer_distribution_matches_multinomial(isotopes):
    p28, p29, p30 = (iso.abundance for iso in isotopes.element("Si"))
    expected = {
        56: p28 * p28,
        57: 2.0 * p28 * p29,
        58: p29 * p29 + 2.0 * p28 * p30,
        59: 2.0 * p29 * p30,
        60: p30 * p30,
    }
    dist = dict(isotopologue_distribution(isotopes, "Si", 2))
    assert set(dist) == set(expected)
    for mass, prob in expected.items():
        assert dist[mass] == pytest.approx(prob, abs=1e-12)


def test_tetramer_distribution_matches_enumeration(isotopes):
    expected = _brute_force_distribution(isotopes.element("Si"), 4)
    dist = dict(isotopologue_distribution(isotopes, "Si", 4))
    assert set(dist) == {m for m, p in expected.items() if p > 0.0}
    for mass, prob in dist.items():
        assert prob == pytest.approx(expected[mass], abs=1e-12)


@pytest.mark.parametrize("element,k", [("Si", 1), ("Si", 3), ("Si", 6),
                                       ("In", 2), ("Ga", 5), ("As", 4)])
def test_distributions_are_normalized(isotopes, element, k):
    dist = isotopologue_distribution(isotopes, element, k)
    assert math.fsum(p for _, p in dist) == pytest.approx(1.0, abs=1e-12)
    masses = [m for m, _ in dist]
    assert masses == sorted(masses)


def test_singleton_distribution_is_the_isotope_table(isotopes):
    dist = isotopologue_distribution(isotopes, "Si", 1)
    assert dist == tuple((iso.mass_number, iso.abundance)
                         for iso in isotopes.element("Si"))


def test_distribution_composes_under_convolution(isotopes):
    # splitting a cluster into two sub-clusters and convolving their
    # distributions must reproduce the full cluster
    d2 = dict(isotopologue_distribution(isotopes, "Si", 2))
    d3 = dict(isotopologue_distribution(isotopes, "Si", 3))
    d5 = dict(isotopologue_distribution(isotopes, "Si", 5))
    composed: dict[int, float] = {}
    for (m1, p1), (m2, p2) in itertools.product(d2.items(), d3.items()):
        composed[m1 + m2] = composed.get(m1 + m2, 0.0) + p1 * p2
    assert set(composed) == set(d5)
    for mass, prob in d5.items():
        assert composed[mass] == pytest.approx(prob, abs=1e-12)


def test_distribution_input_validation(isotopes):
    with pytest.raises(DomainError):
        isotopologue_distribution(isotopes, "Si", 0)
    with pytest.raises(ConfigError):
        isotopologue_distribution(isotopes, "Xx", 1)


def test_isotope_table_validation():
    with pytest.raises(ConfigError, match="sum"):
        IsotopeTable({"Q": (Isotope(10, 10.0, 0.6), Isotope(11, 11.0, 0.3))})
    with pytest.raises(ConfigError, match="increase"):
        IsotopeTable({"Q": (Isotope(11, 11.0, 0.5), Isotope(10, 10.0, 0.5))})


def test_parse_composition():
    assert parse_composition("Si") == ("Si", 1)
    assert parse_composition("Si2") == ("Si", 2)
    assert parse_composition("As4") == ("As", 4)
    assert parse_composition("In") == ("In", 1)
    for bad in ("si2", "2Si", "", "Si-2"):
        with pytest.raises(ConfigError):
            parse_composition(bad)


def test_assignment_round_trip():
    a = Assignment("Si2", 2, 58)
    assert str(a) == "Si2:2:58"
    assert Assignment.parse("Si2:2:58") == a
    with pytest.raises(ConfigError):
        Assignment.parse("Si2/2/58")
    with pytest.raises(DomainError):
        Assignment("Si", 0, 28)


def _si_system(truth):
    """Fully ranged Si+/Si2+/Si2++/Si4++ peak set with exact model counts.

    ``truth`` maps (species, charge) to total counts; returns the peak set
    and its overlap matrix.
    """
    isotopes = load_isotopes()
    members = (("Si", 1), ("Si2", 1), ("Si2", 2), ("Si4", 2))
    lines: dict[float, list[Assignment]] = {}
    for species, charge in members:
        element, size = parse_composition(species)
        for mass, _ in isotopologue_distribution(isotopes, element, size):
            mz = mass / charge
            lines.setdefault(mz, []).append(Assignment(species, charge, mass))
    skeleton = RangedPeakSet(tuple(
        Peak(mz, 0.0, tuple(lines[mz])) for mz in sorted(lines)))
    matrix = build_overlap_matrix(skeleton, isotopes)
    x = np.array([truth[c] for c in matrix.columns])
    counts = matrix.values @ x
    peaks = tuple(Peak(p.mz_da, float(c), p.assignments)
                  for p, c in zip(skeleton.peaks, counts))
    return RangedPeakSet(peaks), matrix


SI_TRUTH = {("Si", 1): 1.0e6, ("Si2", 1): 5.0e4, ("Si2", 2): 6.0e4,
            ("Si4", 2): 6.5e4}


def test_matrix_separates_half_integer_lines():
    peak_set, matrix = _si_system(SI_TRUTH)
    by_mz = dict(zip(matrix.peak_mz_da, matrix.values))
    for mz in (28.5, 29.5):
        row = by_mz[mz]
        nonzero = [c for c, v in zip(matrix.columns, row) if v > 0.0]
        assert nonzero == [("Si2", 2)]
    for mz in (56.5, 57.5, 58.5, 59.5):
        row = by_mz[mz]
        nonzero = [c for c, v in zip(matrix.columns, row) if v > 0.0]
        assert nonzero == [("Si4", 2)]
    assert all(c == pytest.approx(1.0, abs=1e-12) for c in matrix.coverage.values())


def test_matrix_rejects_impossible_mass_numbers(isotopes):
    peaks = (Peak(31.0, 10.0, (Assignment("Si", 1, 31),)),)
    with pytest.raises(ConfigError, match="isotopologue"):
        build_overlap_matrix(RangedPeakSet(peaks), isotopes)


def test_matrix_accepts_explicit_compositions(isotopes):
    # a species name that does not parse still works with a composition map
    peaks = (Peak(56.0, 10.0, (Assignment("dimer", 1, 56),)),
             Peak(57.0, 1.0, (Assignment("dimer", 1, 57),)),
             Peak(58.0, 0.7, (Assignment("dimer", 1, 58),)),
             Peak(59.0, 0.03, (Assignment("dimer", 1, 59),)),
             Peak(60.0, 0.01, (Assignment("dimer", 1, 60),)))
    matrix = build_overlap_matrix(RangedPeakSet(peaks), isotopes,
                                  compositions={"dimer": ("Si", 2)})
    expected = dict(isotopologue_distribution(isotopes, "Si", 2))
    for mz, row in zip(matrix.peak_mz_da, matrix.values):
        assert row[0] == pytest.approx(expected[int(mz)], abs=1e-15)


def test_colinear_columns_are_refused(isotopes):
    # two monoisotopic species claiming one peak are indistinguishable
    peaks = (Peak(75.0, 100.0, (Assignment("As", 1, 75),
                                Assignment("As3", 3, 225))),)
    peak_set = RangedPeakSet(peaks)
    matrix = build_overlap_matrix(peak_set, isotopes)
    with pytest.raises(DegenerateMatrixError) as exc_info:
        deconvolve(peak_set, matrix)
    assert set(exc_info.value.columns) == {"As:1+", "As3:3+"}


def test_noiseless_recovery_is_exact():
    peak_set, matrix = _si_system(SI_TRUTH)
    result = deconvolve(peak_set, matrix)
    for column, expected in SI_TRUTH.items():
        assert result.totals[column] == pytest.approx(expected, rel=1e-6)
        assert result.solver_totals[column] == pytest.approx(expected, rel=1e-6)
    assert result.residual_norm == pytest.approx(0.0, abs=1e-6)


def test_per_peak_redistribution_conserves_counts():
    peak_set, matrix = _si_system(SI_TRUTH)
    result = deconvolve(peak_set, matrix)
    for peak, row in zip(peak_set.peaks, result.per_peak):
        assert row
        assert sum(row.values()) == peak.counts


def test_overlap_free_totals_match_observed_counts_exactly():
    isotopes = load_isotopes()
    peaks = (Peak(28.0, 9000.0, (Assignment("Si", 1, 28),)),
             Peak(29.0, 500.0, (Assignment("Si", 1, 29),)),
             Peak(30.0, 300.0, (Assignment("Si", 1, 30),)))
    peak_set = RangedPeakSet(peaks)
    result = deconvolve(peak_set, build_overlap_matrix(peak_set, isotopes))
    assert result.totals[("Si", 1)] == 9800.0
    assert result.unassigned == (0.0, 0.0, 0.0)


def test_deconvolution_is_scale_equivariant():
    peak_set, matrix = _si_system(SI_TRUTH)
    base = deconvolve(peak_set, matrix)
    scaled_peaks = RangedPeakSet(tuple(
        Peak(p.mz_da, 2.5 * p.counts, p.assignments) for p in peak_set.peaks))
    scaled = deconvolve(scaled_peaks, matrix)
    for column in matrix.columns:
        assert scaled.totals[column] == pytest.approx(
            2.5 * base.totals[column], rel=1e-9)


def test_poisson_sampling_keeps_estimates_unbiased():
    rng = np.random.default_rng(20240817)
    peak_set, matrix = _si_system(SI_TRUTH)
    model = np.array([p.counts for p in peak_set.peaks])
    trials = 100
    estimates = {c: [] for c in matrix.columns}
    for _ in range(trials):
        sampled = rng.poisson(model).astype(float)
        noisy = RangedPeakSet(tuple(
            Peak(p.mz_da, c, p.assignments)
            for p, c in zip(peak_set.peaks, sampled)))
        result = deconvolve(noisy, matrix)
        for column in matrix.columns:
            estimates[column].append(result.solver_totals[column])
    for column, values in estimates.items():
        arr = np.array(values)
        mean, std = arr.mean(), arr.std(ddof=1)
        assert std > 0.0
        # unbiased within 4 standard errors
        assert abs(mean - SI_TRUTH[column]) <= 4.0 * std / math.sqrt(trials)
        # and roughly Gaussian: at most one 3-sigma outlier in 100 draws
        assert int(np.count_nonzero(np.abs(arr - mean) > 3.0 * std)) <= 1


def _two_state_result(n_plus, n_2plus):
    isotopes = load_isotopes()
    peaks = (Peak(75.0, n_plus, (Assignment("As", 1, 75),)),
             Peak(37.5, n_2plus, (Assignment("As", 2, 75),)))
    peak_set = RangedPeakSet(peaks)
    return deconvolve(peak_set, build_overlap_matrix(peak_set, isotopes))


def test_csr_counting_statistics():
    est = compute_csr(_two_state_result(500.0, 500.0), "As")
    assert est.value == pytest.approx(0.5)
    assert est.two_sigma == pytest.approx(2.0 * math.sqrt(0.25 / 1000.0), rel=1e-12)
    est = compute_csr(_two_state_result(100.0, 0.0), "As")
    assert est.value == 0.0
    assert est.two_sigma == 0.0


def test_csr_error_paths():
    with pytest.raises(DomainError):
        compute_csr(_two_state_result(0.0, 0.0), "As")
    with pytest.raises(ConfigError):
        compute_csr(_two_state_result(10.0, 10.0), "Si")
    with pytest.raises(DomainError):
        compute_csr(_two_state_result(10.0, 10.0), "As", (2, 2))


def test_si2_fixture_deconvolution(fixtures_dir, isotopes):
    peak_set = read_peaks_csv(os.path.join(fixtures_dir, "si2_overlap_peaks.csv"))
    before = raw_csr(peak_set, "Si2")
    assert before.n_plus == 9588.0
    assert before.n_2plus == 484.0
    assert before.value == pytest.approx(0.048054, abs=5e-4)
    result = deconvolve(peak_set, build_overlap_matrix(peak_set, isotopes))
    after = compute_csr(result, "Si2")
    assert after.value == pytest.approx(0.5432, abs=5e-4)
    assert after.value > 10.0 * before.value


def test_raw_csr_requires_a_primary_assignment(fixtures_dir):
    peak_set = read_peaks_csv(os.path.join(fixtures_dir, "si2_overlap_peaks.csv"))
    with pytest.raises(ConfigError):
        raw_csr(peak_set, "Kr")
    with pytest.raises(DomainError):
        raw_csr(peak_set, "Si2", (2, 2))


def test_peaks_csv_round_trip(tmp_path, fixtures_dir):
    peak_set = read_peaks_csv(os.path.join(fixtures_dir, "si2_overlap_peaks.csv"))
    path = tmp_path / "peaks.csv"
    write_peaks_csv(peak_set, path)
    back = read_peaks_csv(path)
    assert len(back.peaks) == len(peak_set.peaks)
    for a, b in zip(back.peaks, peak_set.peaks):
        assert a.mz_da == pytest.approx(b.mz_da, rel=1e-9)
        assert a.counts == pytest.approx(b.counts, rel=1e-9)
        assert a.assignments == b.assignments


def test_peaks_csv_validation(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("mz,counts\n10,5\n")
    with pytest.raises(ConfigError, match="header"):
        read_peaks_csv(bad_header)
    bad_assignment = tmp_path / "assign.csv"
    bad_assignment.write_text("mz_Da,counts,assignments\n28.0,10,Si-1-28\n")
    with pytest.raises(ConfigError, match="assignment"):
        read_peaks_csv(bad_assignment)
    empty = tmp_path / "empty.csv"
    empty.write_text("mz_Da,counts,assignments\n")
    with pytest.raises(ConfigError, match="no data"):
        read_peaks_csv(empty)


def test_ranging_tolerance_is_enforced():
    with pytest.raises(DomainError, match="misses the peak"):
        RangedPeakSet((Peak(28.6, 10.0, (Assignment("Si", 1, 28),)),))
    # the same peak passes with a looser window
    RangedPeakSet((Peak(28.6, 10.0, (Assignment("Si", 1, 28),)),),
                  tolerance_da=0.75)


def test_range_spectrum_windows_are_half_open(isotopes):
    histogram = ((27.9, 10.0), (28.05, 5.0), (28.25, 7.0), (28.6, 3.0),
                 (29.0, 2.0), (40.0, 1.0))
    peak_set = range_spectrum(histogram, {"Si2": (2,)}, isotopes)
    counts = {p.mz_da: p.counts for p in peak_set.peaks}
    # 28.25 sits on the 28.0/28.5 window boundary and must count once, high
    assert counts[28.0] == 15.0
    assert counts[28.5] == 10.0
    assert counts[29.0] == 2.0
    assert 40.0 not in counts
    total_windowed = sum(counts.values())
    assert total_windowed == 27.0


def test_range_spectrum_requires_hits(isotopes):
    with pytest.raises(ConfigError):
        range_spectrum(((10.0, 5.0),), {"Si": (1,)}, isotopes)


def test_histogram_reader(tmp_path):
    path = tmp_path / "hist.csv"
    path.write_text("mz_Da,counts\n28.0,10\n29.0,4\n")
    assert read_histogram_csv(path) == ((28.0, 10.0), (29.0, 4.0))
    bad = tmp_path / "bad.csv"
    bad.write_text("m,c\n1,2\n")
    with pytest.raises(ConfigError):
        read_histogram_csv(bad)
