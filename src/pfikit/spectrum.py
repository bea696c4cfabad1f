"""Isotopologue distributions, overlap deconvolution, and CSR extraction.

Ions of different mass but equal m/z stack into overlapping mass peaks.  The
isotope-constrained route resolves them: each (species, charge) contributes a
known isotopologue pattern, a nonnegative least-squares fit recovers species
totals, and per-peak counts are redistributed among contributors so observed
counts are conserved exactly.  Charge-state ratios then come with binomial
counting-statistics uncertainty.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls

from .errors import ConfigError, DegenerateMatrixError, DomainError
from .species import asset_path

RANGING_TOLERANCE_DA = 0.25
COLINEAR_COSINE = 1.0 - 1e-9


@dataclass(frozen=True)
class Isotope:
    """One natural isotope: nominal mass number, isotopic mass, abundance."""

    mass_number: int
    mass_da: float
    abundance: float


@dataclass(frozen=True)
class IsotopeTable:
    """Natural isotope listing per element."""

    elements: dict[str, tuple[Isotope, ...]]

    def __post_init__(self):
        for name, isotopes in self.elements.items():
            if not isotopes:
                raise ConfigError(f"element {name}: empty isotope list")
            total = sum(iso.abundance for iso in isotopes)
            if abs(total - 1.0) > 1e-9:
                raise ConfigError(f"element {name}: abundances sum to {total!r}, not 1")
            numbers = [iso.mass_number for iso in isotopes]
            masses = [iso.mass_da for iso in isotopes]
            if any(b <= a for a, b in zip(numbers, numbers[1:])):
                raise ConfigError(f"element {name}: mass numbers must strictly increase")
            if any(b <= a for a, b in zip(masses, masses[1:])):
                raise ConfigError(f"element {name}: masses must strictly increase")
            if any(iso.abundance < 0.0 for iso in isotopes):
                raise ConfigError(f"element {name}: negative abundance")

    def element(self, name: str) -> tuple[Isotope, ...]:
        if name not in self.elements:
            raise ConfigError(f"element {name!r} not in the isotope table "
                              f"(has {sorted(self.elements)})")
        return self.elements[name]


def load_isotopes(path: str | os.PathLike | None = None) -> IsotopeTable:
    """Read the isotope asset (or a compatible JSON file)."""
    if path is None:
        path = asset_path("isotopes.json")
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot parse isotope file {path}: {exc}") from exc
    try:
        elements = {name: tuple(Isotope(int(r["mass_number"]), float(r["mass_da"]),
                                        float(r["abundance"])) for r in rows)
                    for name, rows in raw["elements"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed isotope file {path}: {exc}") from exc
    return IsotopeTable(elements)


def isotopologue_distribution(isotopes: IsotopeTable, element: str,
                              cluster_size: int) -> tuple[tuple[int, float], ...]:
    """k-fold isotope convolution aggregated by total mass number.

    Returns ascending (total mass number, probability) pairs summing to 1.
    """
    if cluster_size < 1:
        raise DomainError(f"cluster size {cluster_size} must be >= 1")
    table = isotopes.element(element)
    base_number = table[0].mass_number
    span = table[-1].mass_number - base_number
    single = np.zeros(span + 1)
    for iso in table:
        single[iso.mass_number - base_number] = iso.abundance
    dist = single.copy()
    for _ in range(cluster_size - 1):
        dist = np.convolve(dist, single)
    offset = base_number * cluster_size
    return tuple((offset + i, float(p)) for i, p in enumerate(dist) if p > 0.0)


ASSIGNMENT_RE = re.compile(r"^(?P<species>[^:;,\s]+):(?P<charge>\d+):(?P<mass>\d+)$")
COMPOSITION_RE = re.compile(r"^(?P<element>[A-Z][a-z]?)(?P<size>\d*)$")


@dataclass(frozen=True)
class Assignment:
    """Candidate identity of a peak: species, charge, isotopologue mass number."""

    species: str
    charge: int
    mass_number: int

    def __post_init__(self):
        if self.charge < 1:
            raise DomainError(f"charge {self.charge} must be >= 1")
        if self.mass_number < 1:
            raise DomainError(f"mass number {self.mass_number} must be >= 1")

    def __str__(self) -> str:
        return f"{self.species}:{self.charge}:{self.mass_number}"

    @classmethod
    def parse(cls, text: str) -> "Assignment":
        m = ASSIGNMENT_RE.match(text.strip())
        if m is None:
            raise ConfigError(f"bad assignment {text!r}; expected Species:charge:massnumber")
        return cls(m["species"], int(m["charge"]), int(m["mass"]))


def parse_composition(name: str) -> tuple[str, int]:
    """Element symbol and cluster size from names like Si, Si2, As4, In."""
    m = COMPOSITION_RE.match(name)
    if m is None:
        raise ConfigError(f"cannot infer element/cluster size from species {name!r}; "
                          "provide an explicit composition")
    size = int(m["size"]) if m["size"] else 1
    return m["element"], size


@dataclass(frozen=True)
class Peak:
    """One ranged, background-corrected peak with its candidate assignments."""

    mz_da: float
    counts: float
    assignments: tuple[Assignment, ...] = ()

    def __post_init__(self):
        if self.counts < 0.0:
            raise DomainError(f"peak at {self.mz_da} Da: counts {self.counts} < 0")
        if self.mz_da <= 0.0:
            raise DomainError(f"peak m/z {self.mz_da} Da must be positive")


@dataclass(frozen=True)
class RangedPeakSet:
    """Peaks sorted by m/z; every assignment must sit within ranging tolerance."""

    peaks: tuple[Peak, ...]
    tolerance_da: float = RANGING_TOLERANCE_DA

    def __post_init__(self):
        if self.tolerance_da <= 0.0:
            raise DomainError(f"ranging tolerance {self.tolerance_da} Da must be positive")
        for peak in self.peaks:
            for a in peak.assignments:
                nominal = a.mass_number / a.charge
                if abs(peak.mz_da - nominal) > self.tolerance_da:
                    raise DomainError(
                        f"assignment {a} nominal m/z {nominal:g} Da misses the peak "
                        f"at {peak.mz_da:g} Da by more than {self.tolerance_da} Da")

    def total_counts(self) -> float:
        return sum(p.counts for p in self.peaks)


@dataclass(eq=False)
class OverlapMatrix:
    """Peak-by-(species, charge) expected isotopologue probabilities."""

    peak_mz_da: tuple[float, ...]
    columns: tuple[tuple[str, int], ...]
    values: np.ndarray
    coverage: dict[tuple[str, int], float]


def _column_label(column: tuple[str, int]) -> str:
    return f"{column[0]}:{column[1]}+"

def build_overlap_matrix(peak_set: RangedPeakSet, isotopes: IsotopeTable,
                         compositions: dict[str, tuple[str, int]] | None = None
                         ) -> OverlapMatrix:
    """Expected relative abundance of every assigned (species, charge) per peak.

    ``compositions`` maps species names to (element, cluster size); names not
    listed are parsed as element symbol plus optional size suffix.  A species
    whose ranged peaks capture zero isotopologue probability makes its column
    degenerate.
    """
    compositions = compositions or {}
    columns: list[tuple[str, int]] = []
    for peak in peak_set.peaks:
        for a in peak.assignments:
            key = (a.species, a.charge)
            if key not in columns:
                columns.append(key)
    if not columns:
        raise DegenerateMatrixError("no assignments anywhere; nothing to deconvolve")

    distributions: dict[str, dict[int, float]] = {}
    for species, _ in columns:
        if species not in distributions:
            element, size = compositions.get(species) or parse_composition(species)
            distributions[species] = dict(
                isotopologue_distribution(isotopes, element, size))

    values = np.zeros((len(peak_set.peaks), len(columns)))
    for i, peak in enumerate(peak_set.peaks):
        for a in peak.assignments:
            j = columns.index((a.species, a.charge))
            prob = distributions[a.species].get(a.mass_number)
            if prob is None:
                raise ConfigError(
                    f"assignment {a}: mass number {a.mass_number} is not an "
                    f"isotopologue of {a.species}")
            values[i, j] += prob

    coverage = {}
    for j, column in enumerate(columns):
        total = float(values[:, j].sum())
        if total <= 0.0:
            raise DegenerateMatrixError(
                f"column {_column_label(column)} captures zero isotopologue "
                "probability", columns=(_column_label(column),))
        if total > 1.0 + 1e-9:
            raise ConfigError(
                f"column {_column_label(column)} coverage {total} exceeds 1; "
                "duplicated assignments?")
        coverage[column] = min(total, 1.0)
    return OverlapMatrix(tuple(p.mz_da for p in peak_set.peaks), tuple(columns),
                         values, coverage)


@dataclass(eq=False)
class DeconvolutionResult:
    """Species totals plus per-peak redistributed counts.

    ``totals`` sums the redistributed counts (conserves observed counts);
    ``solver_totals`` carries the raw least-squares estimates (coverage-
    corrected totals even when some isotopologue peaks are unranged).
    """

    columns: tuple[tuple[str, int], ...]
    totals: dict[tuple[str, int], float]
    solver_totals: dict[tuple[str, int], float]
    per_peak: tuple[dict[tuple[str, int], float], ...]
    unassigned: tuple[float, ...]
    residual_norm: float


def _colinear_columns(matrix: OverlapMatrix) -> tuple[str, ...]:
    a = matrix.values
    norms = np.linalg.norm(a, axis=0)
    unit = a / np.where(norms == 0.0, 1.0, norms)
    gram = np.abs(unit.T @ unit)
    flagged: list[str] = []
    n = len(matrix.columns)
    for i in range(n):
        for j in range(i + 1, n):
            if gram[i, j] >= COLINEAR_COSINE:
                for k in (i, j):
                    label = _column_label(matrix.columns[k])
                    if label not in flagged:
                        flagged.append(label)
    return tuple(flagged)


def deconvolve(peak_set: RangedPeakSet, matrix: OverlapMatrix) -> DeconvolutionResult:
    """Nonnegative least-squares species totals and exact per-peak redistribution."""
    if len(peak_set.peaks) != len(matrix.peak_mz_da):
        raise ConfigError("peak set and overlap matrix have different peak counts")
    a = matrix.values
    counts = np.array([p.counts for p in peak_set.peaks], dtype=float)
    if np.linalg.matrix_rank(a) < len(matrix.columns):
        flagged = _colinear_columns(matrix)
        raise DegenerateMatrixError(
            "overlap matrix is rank deficient; indistinguishable columns: "
            + (", ".join(flagged) if flagged else "(no single colinear pair)"),
            columns=flagged)
    solution, residual = nnls(a, counts)

    model = a @ solution
    per_peak: list[dict[tuple[str, int], float]] = []
    unassigned: list[float] = []
    for i, peak in enumerate(peak_set.peaks):
        row: dict[tuple[str, int], float] = {}
        if model[i] > 0.0:
            contributions = a[i, :] * solution
            shares = contributions / model[i]
            redistributed = peak.counts * shares
            # force the exact per-peak sum; the largest contributor absorbs
            # float rounding
            drift = peak.counts - float(redistributed.sum())
            redistributed[int(np.argmax(redistributed))] += drift
            for j, column in enumerate(matrix.columns):
                if a[i, j] > 0.0:
                    row[column] = float(redistributed[j])
            unassigned.append(0.0)
        else:
            unassigned.append(peak.counts)
        per_peak.append(row)

    totals = {column: math.fsum(row.get(column, 0.0) for row in per_peak)
              for column in matrix.columns}
    solver_totals = {column: float(solution[j])
                     for j, column in enumerate(matrix.columns)}
    return DeconvolutionResult(matrix.columns, totals, solver_totals,
                               tuple(per_peak), tuple(unassigned), float(residual))


@dataclass(frozen=True)
class CsrEstimate:
    """Charge-state ratio with 2-sigma binomial counting uncertainty."""

    species: str
    value: float
    two_sigma: float
    n_plus: float
    n_2plus: float
    charge_pair: tuple[int, int] = (1, 2)


def _csr_from_counts(species: str, n_lo: float, n_hi: float,
                     charge_pair: tuple[int, int]) -> CsrEstimate:
    if charge_pair[0] == charge_pair[1]:
        raise DomainError(f"charge pair {charge_pair} names one charge state twice")
    total = n_lo + n_hi
    if total <= 0.0:
        raise DomainError(
            f"{species}: no counts in charge states {charge_pair}; CSR undefined")
    value = n_hi / total
    two_sigma = 2.0 * (value * (1.0 - value) / total) ** 0.5
    return CsrEstimate(species, value, two_sigma, n_lo, n_hi, charge_pair)


def compute_csr(result: DeconvolutionResult, species: str,
                charge_pair: tuple[int, int] = (1, 2)) -> CsrEstimate:
    """CSR of a charge pair from deconvolved (redistributed) totals."""
    lo, hi = charge_pair
    for charge in charge_pair:
        if (species, charge) not in result.totals:
            raise ConfigError(
                f"{species}:{charge}+ absent from the deconvolution result")
    return _csr_from_counts(species, result.totals[(species, lo)],
                            result.totals[(species, hi)], charge_pair)


def primary_counts(peak_set: RangedPeakSet) -> dict[tuple[str, int], float]:
    """Counts per (species, charge) with every peak on its primary
    (first-listed) assignment."""
    counts: dict[tuple[str, int], float] = {}
    for peak in peak_set.peaks:
        if not peak.assignments:
            continue
        a = peak.assignments[0]
        key = (a.species, a.charge)
        counts[key] = counts.get(key, 0.0) + peak.counts
    return counts


def raw_csr(peak_set: RangedPeakSet, species: str,
            charge_pair: tuple[int, int] = (1, 2)) -> CsrEstimate:
    """CSR before deconvolution, from :func:`primary_counts`."""
    lo, hi = charge_pair
    counts = primary_counts(peak_set)
    if (species, lo) not in counts and (species, hi) not in counts:
        raise ConfigError(
            f"{species}: no peaks have a primary assignment in charge states "
            f"{charge_pair}")
    return _csr_from_counts(species, counts.get((species, lo), 0.0),
                            counts.get((species, hi), 0.0), charge_pair)


PEAKS_CSV_HEADER = ("mz_Da", "counts", "assignments")


def write_peaks_csv(peak_set: RangedPeakSet, path: str | os.PathLike) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PEAKS_CSV_HEADER)
        for peak in peak_set.peaks:
            writer.writerow([f"{peak.mz_da:.9g}", f"{peak.counts:.9g}",
                             ";".join(str(a) for a in peak.assignments)])


def read_peaks_csv(path: str | os.PathLike,
                   tolerance_da: float = RANGING_TOLERANCE_DA) -> RangedPeakSet:
    peaks = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != PEAKS_CSV_HEADER:
                raise ConfigError(f"{path}: expected header {','.join(PEAKS_CSV_HEADER)}")
            for line in reader:
                if not line:
                    continue
                if len(line) != 3:
                    raise ConfigError(f"{path}:{reader.line_num}: bad row {line!r}")
                mz, counts, assignments = line
                try:
                    mz_da, n = float(mz), float(counts)
                    parsed = tuple(Assignment.parse(token)
                                   for token in assignments.split(";") if token.strip())
                except (ValueError, ConfigError) as exc:
                    raise ConfigError(f"{path}:{reader.line_num}: {exc}") from exc
                peaks.append(Peak(mz_da, n, parsed))
    except (OSError, UnicodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read peaks file {path}: {exc}") from exc
    if not peaks:
        raise ConfigError(f"{path}: no data rows")
    return RangedPeakSet(tuple(peaks), tolerance_da)


def read_histogram_csv(path: str | os.PathLike) -> tuple[tuple[float, float], ...]:
    """Raw (m/z, counts) rows from a histogram CSV."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != ("mz_Da", "counts"):
            raise ConfigError(f"{path}: expected header mz_Da,counts")
        for line in reader:
            if not line:
                continue
            rows.append((float(line[0]), float(line[1])))
    return tuple(rows)


def range_spectrum(histogram: tuple[tuple[float, float], ...],
                   charge_states: dict[str, tuple[int, ...]],
                   isotopes: IsotopeTable,
                   compositions: dict[str, tuple[str, int]] | None = None,
                   window_da: float = RANGING_TOLERANCE_DA) -> RangedPeakSet:
    """Window-sum histogram counts around every candidate isotopologue line.

    Thin helper: no background model, half-open windows [center - w,
    center + w) so touching windows never double-count.
    """
    compositions = compositions or {}
    centers: dict[float, list[Assignment]] = {}
    for species, charges in charge_states.items():
        element, size = compositions.get(species) or parse_composition(species)
        dist = isotopologue_distribution(isotopes, element, size)
        for mass_number, _ in dist:
            for charge in charges:
                center = round(mass_number / charge, 9)
                centers.setdefault(center, []).append(
                    Assignment(species, charge, mass_number))
    peaks = []
    for center in sorted(centers):
        total = sum(c for mz, c in histogram
                    if center - window_da <= mz < center + window_da)
        if total > 0.0:
            peaks.append(Peak(center, total, tuple(centers[center])))
    if not peaks:
        raise ConfigError("no candidate line captured any histogram counts")
    return RangedPeakSet(tuple(peaks), window_da)
