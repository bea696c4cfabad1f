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
    raw_csr,
    read_peaks_csv,
    spectrum,
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
        IsotopeTable({"Q": (Isotope(10, 0.6), Isotope(11, 0.3))})
    with pytest.raises(ConfigError, match="increase"):
        IsotopeTable({"Q": (Isotope(11, 0.5), Isotope(10, 0.5))})
    for number in (0, 301):
        with pytest.raises(ConfigError, match=fr"mass numbers \[{number}\] must lie in"):
            IsotopeTable({"Q": (Isotope(number, 1.0),)})
    assert IsotopeTable({"Q": (Isotope(1, 0.5), Isotope(300, 0.5))}).element("Q")


def test_parse_composition():
    assert parse_composition("Si") == ("Si", 1)
    assert parse_composition("Si2") == ("Si", 2)
    assert parse_composition("As4") == ("As", 4)
    assert parse_composition("In") == ("In", 1)
    assert parse_composition("Si100") == ("Si", 100)
    assert parse_composition("dimer", {"dimer": ("Si", 2)}) == ("Si", 2)
    # cluster sizes outside [1, 100], from the name or from ``compositions``, and names
    # whose size has too many digits to parse
    for bad in ("si2", "2Si", "", "Si-2", "Si0", "Si101", "Si" + "9" * 5000):
        with pytest.raises(ConfigError):
            parse_composition(bad)
    for size in (0, 101):
        with pytest.raises(ConfigError, match=f"cluster size {size} must lie in"):
            parse_composition("dimer", {"dimer": ("Si", size)})


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
    assert matrix.values.sum(axis=0) == pytest.approx(1.0, abs=1e-12)


def test_matrix_rejects_impossible_mass_numbers(isotopes):
    peaks = (Peak(31.0, 10.0, (Assignment("Si", 1, 31),)),)
    with pytest.raises(ConfigError, match="isotopologue"):
        build_overlap_matrix(RangedPeakSet(peaks), isotopes)


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


def _colinear_walk(matrix):
    """The pairwise loop that ``spectrum._colinear_columns`` replaces, as its reference."""
    a = matrix.values
    norms = np.linalg.norm(a, axis=0)
    unit = a / np.where(norms == 0.0, 1.0, norms)
    gram = np.abs(unit.T @ unit)
    flagged = []
    n = len(matrix.columns)
    for i in range(n):
        for j in range(i + 1, n):
            if gram[i, j] >= spectrum.COLINEAR_COSINE:
                for k in (i, j):
                    label = spectrum.state_label(*matrix.columns[k])
                    if label not in flagged:
                        flagged.append(label)
    return tuple(flagged)


def _redistribution_loop(peak_set, matrix, solution):
    """The per-peak loop that ``deconvolve`` replaces, as its reference: the per-peak
    split, the unassigned counts and the totals for a given NNLS solution."""
    a = matrix.values
    model = a @ solution
    per_peak, unassigned = [], []
    for i, peak in enumerate(peak_set.peaks):
        row = {}
        if model[i] > 0.0:
            redistributed = peak.counts * (a[i, :] * solution / model[i])
            drift = peak.counts - float(redistributed.sum())
            redistributed[int(np.argmax(redistributed))] += drift
            row = {column: float(redistributed[j])
                   for j, column in enumerate(matrix.columns) if a[i, j] > 0.0}
            unassigned.append(0.0)
        else:
            unassigned.append(peak.counts)
        per_peak.append(row)
    totals = {column: math.fsum(row.get(column, 0.0) for row in per_peak)
              for column in matrix.columns}
    return tuple(per_peak), tuple(unassigned), totals


def _random_spectra(rng, n):
    """Sparse nonnegative matrices of up to 12 columns with their peak sets; some have a
    colinear pair or more columns than peaks, some a peak that no column reaches."""
    for _ in range(n):
        m, c = int(rng.integers(1, 20)), int(rng.integers(1, 13))
        a = rng.random((m, c)) * (rng.random((m, c)) < rng.uniform(0.2, 1.0))
        if c > 1 and rng.random() < 0.25:
            a[:, -1] = a[:, 0] * rng.uniform(0.1, 3.0)
        if rng.random() < 0.3:
            a[rng.integers(m)] = 0.0
        counts = np.round(10.0 ** rng.uniform(0.0, 5.0, m)) * (rng.random(m) < 0.9)
        peak_set = RangedPeakSet(tuple(Peak(i + 1.0, float(x)) for i, x in enumerate(counts)))
        columns = tuple((f"X{j}", 1 + j % 2) for j in range(c))
        yield peak_set, spectrum.OverlapMatrix(tuple(p.mz_da for p in peak_set.peaks),
                                               columns, a)


def test_deconvolution_matches_the_loops_it_replaces():
    seen = {"solved": 0, "wide": 0, "zero_model": 0, "colinear": 0, "no_pair": 0}
    with np.errstate(all="raise"):
        for peak_set, matrix in _random_spectra(np.random.default_rng(11), 400):
            flagged = _colinear_walk(matrix)
            assert spectrum._colinear_columns(matrix) == flagged
            try:
                result = deconvolve(peak_set, matrix)
            except DegenerateMatrixError as exc:
                assert exc.columns == flagged
                assert str(exc).endswith(", ".join(flagged) or "(no single colinear pair)")
                seen["colinear" if flagged else "no_pair"] += 1
                continue
            solution = np.array(list(result.solver_totals.values()))
            per_peak, unassigned, totals = _redistribution_loop(peak_set, matrix, solution)
            assert repr(result.per_peak) == repr(per_peak)
            assert repr(result.unassigned) == repr(unassigned)
            assert repr(result.totals) == repr(totals)
            seen["solved"] += 1
            seen["wide"] += len(matrix.columns) > 8
            seen["zero_model"] += any(not row and (values > 0.0).any() for row, values
                                      in zip(result.per_peak, matrix.values))
    assert all(seen.values()), seen


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
    for pair in ((2, 2), (2, 1)):
        with pytest.raises(DomainError):
            compute_csr(_two_state_result(10.0, 10.0), "As", pair)


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
    for pair in ((2, 2), (2, 1)):
        with pytest.raises(DomainError):
            raw_csr(peak_set, "Si2", pair)


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
    # the same assignment passes inside the window
    RangedPeakSet((Peak(28.2, 10.0, (Assignment("Si", 1, 28),)),))
