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
import functools
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from ._numerics import nnls
from .errors import ConfigError, DegenerateMatrixError, DomainError
from .species import asset_path, json_float, json_int, read_json, read_text

RANGING_TOLERANCE_DA = 0.25
COLINEAR_COSINE = 1.0 - 1e-9
MAX_COUNTS = 2.0 ** 53  # largest count a double holds exactly; keeps the NNLS free of overflow
MAX_MASS_NUMBER = 300   # above every known nuclide (A = 294); bounds the convolution span
MAX_CLUSTER_SIZE = 100  # the convolution is quadratic in the cluster size


@dataclass(frozen=True)
class Isotope:
    """One natural isotope: nominal mass number and abundance."""

    mass_number: int
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
            if not abs(total - 1.0) <= 1e-9:  # a NaN or infinite abundance makes the sum fail
                raise ConfigError(f"element {name}: abundances sum to {total!r}, not 1")
            numbers = [iso.mass_number for iso in isotopes]
            if any(type(a) is not int for a in numbers):  # 10.0 == 10 would share cached patterns
                raise ConfigError(f"element {name}: mass numbers {numbers} must be integers")
            if not all(1 <= a <= MAX_MASS_NUMBER for a in numbers):
                raise ConfigError(f"element {name}: mass numbers {numbers} must lie in "
                                  f"[1, {MAX_MASS_NUMBER}]")
            if any(b <= a for a, b in zip(numbers, numbers[1:])):
                raise ConfigError(f"element {name}: mass numbers must strictly increase")
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
    raw = read_json(path, "isotope file")
    try:
        elements = {name: tuple(Isotope(json_int(r["mass_number"]), json_float(r["abundance"]))
                                for r in rows)
                    for name, rows in raw["elements"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed isotope file {path}: {exc}") from exc
    return IsotopeTable(elements)


def isotopologue_distribution(isotopes: IsotopeTable, element: str,
                              cluster_size: int) -> tuple[tuple[int, float], ...]:
    """k-fold isotope convolution aggregated by total mass number.

    Returns ascending (total mass number, probability) pairs summing to 1: one shared tuple
    per isotope list and cluster size, built on the first call.
    """
    if not 1 <= cluster_size <= MAX_CLUSTER_SIZE:
        raise DomainError(f"cluster size {cluster_size} must lie in [1, {MAX_CLUSTER_SIZE}]")
    return _convolved_pattern(isotopes.element(element), cluster_size)


@functools.lru_cache(maxsize=256, typed=True)  # typed: a float size fails as uncached
def _convolved_pattern(table: tuple[Isotope, ...], cluster_size: int
                       ) -> tuple[tuple[int, float], ...]:
    """The pattern of ``isotopologue_distribution``, built once per (isotope list, size)."""
    base_number = table[0].mass_number
    span = table[-1].mass_number - base_number
    single = np.zeros(span + 1)
    single[[iso.mass_number - base_number for iso in table]] = [iso.abundance for iso in table]
    dist = single.copy()
    for _ in range(cluster_size - 1):
        dist = np.convolve(dist, single)
    offset = base_number * cluster_size
    return tuple((offset + i, float(p)) for i, p in enumerate(dist) if p > 0.0)


ASSIGNMENT_RE = re.compile(r"^(?P<species>[^:;,\s]+):(?P<charge>\d+):(?P<mass>\d+)$")
# a size of 10 digits or more is refused here, before int() (which refuses > 4300 digits)
COMPOSITION_RE = re.compile(r"^(?P<element>[A-Z][a-z]?)(?P<size>\d{0,9})$")


@dataclass(frozen=True)
class Assignment:
    """Candidate identity of a peak: species, charge, isotopologue mass number."""

    species: str
    charge: int
    mass_number: int

    def __post_init__(self):  # the peaks reader builds one per Assignment.parse cache miss
        if type(self.charge) is not int or self.charge < 1:  # a bool is not a charge
            raise DomainError(f"charge {self.charge!r} must be an integer >= 1")
        if type(self.mass_number) is not int or self.mass_number < 1:
            raise DomainError(f"mass number {self.mass_number!r} must be an integer >= 1")

    def __str__(self) -> str:
        return f"{self.species}:{self.charge}:{self.mass_number}"

    @classmethod
    @functools.lru_cache(maxsize=1024)  # equal texts share one Assignment; < 0.4 MB
    def parse(cls, text: str) -> "Assignment":
        m = ASSIGNMENT_RE.match(text.strip())
        if m is None:
            raise ConfigError(f"bad assignment {text!r}; expected Species:charge:massnumber")
        return cls(m["species"], int(m["charge"]), int(m["mass"]))


def parse_composition(name: str, compositions: dict[str, tuple[str, int]] | None = None
                      ) -> tuple[str, int]:
    """Element symbol and cluster size of a species: its entry in ``compositions``,
    else parsed from names like Si, Si2, As4, In."""
    if compositions and name in compositions:
        element, size = compositions[name]
    elif m := COMPOSITION_RE.match(name):
        element, size = m["element"], int(m["size"] or 1)
    else:
        raise ConfigError(f"cannot infer element/cluster size from species {name!r}; "
                          "provide an explicit composition")
    if not 1 <= size <= MAX_CLUSTER_SIZE:
        raise DomainError(f"species {name!r}: cluster size {size} must lie in "
                          f"[1, {MAX_CLUSTER_SIZE}]")
    return element, size


@dataclass(frozen=True)
class Peak:
    """One ranged, background-corrected peak with its candidate assignments."""

    mz_da: float
    counts: float
    assignments: tuple[Assignment, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.counts <= MAX_COUNTS:
            raise DomainError(
                f"peak at {self.mz_da} Da: counts {self.counts} must lie in [0, 2**53]")
        if not 0.0 < self.mz_da < math.inf:
            raise DomainError(f"peak m/z {self.mz_da} Da must be positive and finite")


@dataclass(frozen=True)
class RangedPeakSet:
    """Peaks in file order, which the overlap matrix rows and the per-peak output follow
    (nothing sorts them); every assignment must sit within RANGING_TOLERANCE_DA."""

    peaks: tuple[Peak, ...]

    def __post_init__(self):
        for peak in self.peaks:
            for a in peak.assignments:
                nominal = a.mass_number / a.charge
                if abs(peak.mz_da - nominal) > RANGING_TOLERANCE_DA:
                    raise DomainError(
                        f"assignment {a} nominal m/z {nominal:g} Da misses the peak "
                        f"at {peak.mz_da:g} Da by more than {RANGING_TOLERANCE_DA} Da")

    def total_counts(self) -> float:
        return sum(p.counts for p in self.peaks)


@dataclass(eq=False)
class OverlapMatrix:
    """Peak-by-(species, charge) expected isotopologue probabilities: ``values`` has a row
    per peak of the peak set it was built from, in its order."""

    columns: tuple[tuple[str, int], ...]
    values: np.ndarray


def state_label(species: str, charge: int) -> str:
    """How a (species, charge) state is written in reports: ``Si2:2+``."""
    return f"{species}:{charge}+"


def build_overlap_matrix(peak_set: RangedPeakSet, isotopes: IsotopeTable) -> OverlapMatrix:
    """Expected relative abundance of every assigned (species, charge) per peak.

    Columns follow the first appearance of each (species, charge).  Species names
    are parsed as an element symbol plus an optional cluster-size suffix (Si, Si2,
    As4).  A species whose ranged peaks capture zero isotopologue probability makes
    its column degenerate.
    """
    index: dict[tuple[str, int], int] = {}
    for peak in peak_set.peaks:
        for a in peak.assignments:
            index.setdefault((a.species, a.charge), len(index))
    if not index:
        raise DegenerateMatrixError("no assignments anywhere; nothing to deconvolve")
    columns = tuple(index)
    distributions = {species: dict(isotopologue_distribution(isotopes, *parse_composition(species)))
                     for species in dict.fromkeys(species for species, _ in columns)}

    values = np.zeros((len(peak_set.peaks), len(columns)))
    for i, peak in enumerate(peak_set.peaks):
        for a in peak.assignments:
            prob = distributions[a.species].get(a.mass_number)
            if prob is None:
                raise ConfigError(
                    f"assignment {a}: mass number {a.mass_number} is not an "
                    f"isotopologue of {a.species}")
            values[i, index[(a.species, a.charge)]] += prob

    for column, total in zip(columns, values.sum(axis=0).tolist()):
        if total <= 0.0:
            raise DegenerateMatrixError(
                f"column {state_label(*column)} captures zero isotopologue "
                "probability", columns=(state_label(*column),))
        if total > 1.0 + 1e-9:
            raise ConfigError(
                f"column {state_label(*column)} coverage {total} exceeds 1; "
                "duplicated assignments?")
    return OverlapMatrix(columns, values)


@dataclass(eq=False)
class DeconvolutionResult:
    """Species totals plus per-peak redistributed counts.

    ``totals`` sums the redistributed counts (conserves observed counts);
    ``solver_totals`` carries the raw least-squares estimates (coverage-
    corrected totals even when some isotopologue peaks are unranged).
    """

    totals: dict[tuple[str, int], float]
    solver_totals: dict[tuple[str, int], float]
    per_peak: tuple[dict[tuple[str, int], float], ...]
    unassigned: tuple[float, ...]
    residual_norm: float


def _colinear_columns(matrix: OverlapMatrix) -> tuple[str, ...]:
    """Labels of the columns of each colinear pair, pairs in (i < j) order, each label once."""
    a = matrix.values
    norms = np.linalg.norm(a, axis=0)
    unit = a / np.where(norms == 0.0, 1.0, norms)  # a zero column would divide 0 by 0
    pairs = np.argwhere(np.triu(np.abs(unit.T @ unit) >= COLINEAR_COSINE, 1))
    return tuple(dict.fromkeys(state_label(*matrix.columns[k]) for k in pairs.ravel()))


def deconvolve(peak_set: RangedPeakSet, matrix: OverlapMatrix) -> DeconvolutionResult:
    """Nonnegative least-squares species totals and exact per-peak redistribution."""
    if len(peak_set.peaks) != len(matrix.values):
        raise ConfigError("peak set and overlap matrix have different peak counts")
    a = matrix.values
    counts = np.array([p.counts for p in peak_set.peaks], dtype=float)
    # one SVD gives the rank (the matrix_rank threshold) and the start of the NNLS
    start, _, rank, _ = np.linalg.lstsq(a, counts, rcond=None)
    if rank < len(matrix.columns):
        flagged = _colinear_columns(matrix)
        raise DegenerateMatrixError(
            "overlap matrix is rank deficient; indistinguishable columns: "
            + (", ".join(flagged) if flagged else "(no single colinear pair)"),
            columns=flagged)
    solution, residual = nnls(a, counts, start)

    # a peak the fit does not reach keeps its counts unassigned; the others split theirs
    model = a @ solution
    reached = model > 0.0
    kept = np.where(reached, counts, 0.0)
    split = np.zeros_like(a)
    split[reached] = kept[reached, None] * (a[reached] * solution / model[reached, None])
    # force the exact per-peak sum; the largest contributor absorbs float rounding
    split[np.arange(len(a)), split.argmax(axis=1)] += kept - split.sum(axis=1)

    holds = ((a > 0.0) & reached[:, None]).tolist()
    per_peak = tuple({column: v for column, v, h in zip(matrix.columns, row, row_holds) if h}
                     for row, row_holds in zip(split.tolist(), holds))
    totals = {column: math.fsum(col) for column, col in zip(matrix.columns, split.T.tolist())}
    return DeconvolutionResult(totals, dict(zip(matrix.columns, solution.tolist())), per_peak,
                               tuple((counts - kept).tolist()), float(residual))


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
    if not charge_pair[0] < charge_pair[1]:
        raise DomainError(f"charge pair {charge_pair} must name a lower, then a higher "
                          "charge state")
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
        if peak.assignments:
            key = (peak.assignments[0].species, peak.assignments[0].charge)
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


def read_peaks_csv(path: str | os.PathLike) -> RangedPeakSet:
    peaks = []
    reader = csv.reader(read_text(path, "peaks file").split("\n"))
    try:
        if tuple(h.strip() for h in next(reader)) != PEAKS_CSV_HEADER:
            raise ConfigError(f"{path}: expected header {','.join(PEAKS_CSV_HEADER)}")
        for line in reader:
            if not line:
                continue
            if len(line) != 3:
                raise ConfigError(f"{path}:{reader.line_num}: bad row {line!r}")
            mz, counts, assignments = line
            try:
                mz_da, n = float(mz), float(counts)
                parsed = tuple(map(Assignment.parse, filter(str.strip, assignments.split(";"))))
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"{path}:{reader.line_num}: {exc}") from exc
            peaks.append(Peak(mz_da, n, parsed))
    except csv.Error as exc:
        raise ConfigError(f"cannot read peaks file {path}: {exc}") from exc
    if not peaks:
        raise ConfigError(f"{path}: no data rows")
    return RangedPeakSet(tuple(peaks))

