"""Charge-state-ratio curves over field grids, crossover location, and inversion.

A Kingham curve tabulates the post-field-ionization charge-state fractions of
one species on an ascending field grid and derives the charge-state ratio
(CSR) 2+/(1+ + 2+).  The 50 % crossover of that ratio (F50) is the model's
headline observable.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from ._numerics import brentq, pchip
from .errors import (AmbiguityError, BracketError, ConfigError, DomainError,
                     NumericalError)
from .geometry import Environment
from .species import SpeciesParams
from .tunneling import charge_fractions
from .zmodel import ZModel

CSV_HEADER = ("field_Vnm", "f1", "f2", "f3", "csr")
FIELD_BLOCK = 64  # fields per charge_fractions call in a curve; bounds the node arrays' memory
MAX_GRID_POINTS = 200_000  # largest field grid; a finer --grid step is a typo, not a curve
F50_PROBES = 17  # fields of the one charge_fractions call that brackets an F50, ends included


@dataclass(frozen=True)
class FieldGrid:
    """Uniform field grid in V/nm, endpoints inclusive."""

    low_vnm: float = 5.0
    high_vnm: float = 45.0
    step_vnm: float = 0.1

    def __post_init__(self):
        if not (0.0 < self.low_vnm <= self.high_vnm <= 60.0):
            raise DomainError(
                f"field grid [{self.low_vnm}, {self.high_vnm}] V/nm must lie in (0, 60]")
        if not 0.0 < self.step_vnm < math.inf:
            raise DomainError(f"grid step {self.step_vnm} V/nm must be positive and finite")
        if not (self.high_vnm - self.low_vnm) / self.step_vnm < MAX_GRID_POINTS - 1:
            raise DomainError(f"grid {self.low_vnm}:{self.high_vnm}:{self.step_vnm} V/nm "
                              f"has more than {MAX_GRID_POINTS} points")

    def points(self) -> tuple[float, ...]:
        n = int(round((self.high_vnm - self.low_vnm) / self.step_vnm))
        pts = [self.low_vnm + i * self.step_vnm for i in range(n + 1)]
        if pts[-1] > self.high_vnm + 1e-12:
            pts.pop()
        if not pts or pts[-1] < self.high_vnm - 1e-9:
            pts.append(self.high_vnm)
        return tuple(pts)


DEFAULT_GRID = FieldGrid()


def csr_from_fractions(fractions) -> float:
    """Ratio f_2 / (f_1 + f_2) of charge-ordered fractions; empty pair -> 1.

    The 0/0 case means every ion has been promoted past both states of the
    pair, so the higher state wins by convention.
    """
    f_lo, f_hi = fractions[0], fractions[1]
    total = f_lo + f_hi
    if total == 0.0:
        return 1.0
    return f_hi / total


@dataclass(frozen=True)
class KinghamCurve:
    """Charge-state fractions and CSR of one species on an ascending grid."""

    species_name: str
    field_grid_vnm: tuple[float, ...]
    fractions: tuple[tuple[float, ...], ...]
    csr: tuple[float, ...]

    def __post_init__(self):
        g = self.field_grid_vnm
        if len(g) != len(self.fractions) or len(g) != len(self.csr):
            raise DomainError("grid, fractions, and csr lengths differ")
        if any(b <= a for a, b in zip(g, g[1:])):
            raise DomainError("field grid must be strictly ascending")
        for f_vnm, row in zip(g, self.fractions):
            if abs(sum(row) - 1.0) > 1e-12:
                raise DomainError(f"fractions at {f_vnm} V/nm sum to {sum(row)!r}, not 1")
        if any(not 0.0 <= v <= 1.0 for v in self.csr):
            raise DomainError("csr values must lie in [0, 1]")

    def csr_range(self) -> tuple[float, float]:
        return min(self.csr), max(self.csr)


@dataclass(frozen=True)
class CrossoverResult:
    """Field where the CSR crosses 0.5, with the bracket that contained it."""

    f50_vnm: float
    bracket_vnm: tuple[float, float]
    achieved_csr: float

    def __post_init__(self):
        if abs(self.achieved_csr - 0.5) >= 1e-6:
            raise NumericalError(
                f"crossover CSR {self.achieved_csr} misses 0.5 by >= 1e-6")
        lo, hi = self.bracket_vnm
        if not lo <= self.f50_vnm <= hi:
            raise NumericalError(f"f50 {self.f50_vnm} outside bracket {self.bracket_vnm}")


@dataclass(frozen=True)
class FieldEstimate:
    """Inverted field with the interval image of csr +/- two_sigma."""

    field_vnm: float
    interval_vnm: tuple[float, float] | None
    csr: float
    csr_two_sigma: float | None = None


def evaluate_csr(species: SpeciesParams, env: Environment, zmodel: ZModel,
                 field_vnm: float) -> float:
    """CSR at a single field point."""
    return csr_from_fractions(charge_fractions(species, env, zmodel, field_vnm))


def generate_curve(species: SpeciesParams, env: Environment, zmodel: ZModel,
                   grid: FieldGrid = DEFAULT_GRID) -> KinghamCurve:
    """Evaluate charge fractions and CSR on every grid point, FIELD_BLOCK fields per call."""
    points = grid.points()
    rows = []
    for start in range(0, len(points), FIELD_BLOCK):
        block = np.array(points[start:start + FIELD_BLOCK])
        rows += zip(*(f.tolist() for f in charge_fractions(species, env, zmodel, block)))
    return KinghamCurve(species.name, points, tuple(rows),
                        tuple(map(csr_from_fractions, rows)))


def find_f50(species: SpeciesParams, env: Environment, zmodel: ZModel,
             search_vnm: tuple[float, float] = (5.0, 45.0)) -> CrossoverResult:
    """Lowest field in ``search_vnm`` where the CSR crosses 0.5 upward: one call on
    F50_PROBES fields finds the lowest cell where CSR - 0.5 goes from < 0 to >= 0, and
    Brent's method solves in that cell, the reported bracket, from the call's values."""
    lo, hi = search_vnm
    if not 0.0 < lo < hi <= 60.0:
        raise DomainError(f"search range {search_vnm} must be ascending within (0, 60]")

    probes = np.linspace(lo, hi, F50_PROBES).tolist()
    rows = zip(*(f.tolist() for f in charge_fractions(species, env, zmodel, np.array(probes))))
    g_probes = [csr_from_fractions(row) - 0.5 for row in rows]
    g_lo, g_hi = g_probes[0], g_probes[-1]
    if not g_lo < 0.0 < g_hi:
        raise BracketError(
            f"{species.name}: CSR is {g_lo + 0.5:.4g} at {lo} V/nm and "
            f"{g_hi + 0.5:.4g} at {hi} V/nm; no 0.5 crossing to bracket",
            achievable=(g_lo + 0.5, g_hi + 0.5))
    k = next(k for k, (a, b) in enumerate(zip(g_probes, g_probes[1:])) if a < 0.0 <= b)
    cell = probes[k], probes[k + 1]
    root, g_root = brentq(lambda f_vnm: evaluate_csr(species, env, zmodel, f_vnm) - 0.5, *cell,
                          g_probes[k], g_probes[k + 1], xtol=1e-9, rtol=8.9e-16)
    achieved = g_root + 0.5
    if abs(achieved - 0.5) >= 1e-6:
        # CSR can jump over 0.5 where the barrier vanishes below the
        # crossing field; there is no proper 50 % crossover then.
        raise NumericalError(
            f"{species.name}: CSR jumps over 0.5 near {root:.3f} V/nm "
            f"(reaches {achieved:.4g}); the crossover is discontinuous")
    return CrossoverResult(root, cell, achieved)


def _monotone_runs(values: tuple[float, ...]) -> list[tuple[int, int]]:
    """Index ranges [i, j] of maximal strictly monotone runs (len >= 2)."""
    runs = []
    i = 0
    n = len(values)
    while i < n - 1:
        if values[i + 1] == values[i]:
            i += 1
            continue
        sign = 1.0 if values[i + 1] > values[i] else -1.0
        j = i + 1
        while j < n - 1 and sign * (values[j + 1] - values[j]) > 0.0:
            j += 1
        runs.append((i, j))
        i = j
    return runs


def _invert_on_run(curve: KinghamCurve, run: tuple[int, int], value: float) -> float:
    i, j = run
    x = curve.csr[i:j + 1]
    y = curve.field_grid_vnm[i:j + 1]
    if x[0] > x[-1]:
        x, y = x[::-1], y[::-1]
    return pchip(x, y, value)


def csr_to_field(curve: KinghamCurve, csr: float,
                 two_sigma: float | None = None) -> FieldEstimate:
    """Invert the curve at ``csr``; shape-preserving monotone interpolation.

    With ``two_sigma`` the interval is the field image of csr +/- two_sigma,
    clamped to the grid ends where the band leaves the tabulated range.
    """
    lo, hi = curve.csr_range()
    if not lo <= csr <= hi:
        raise DomainError(
            f"csr {csr} outside the curve's range [{lo:.4g}, {hi:.4g}]; refusing "
            "to extrapolate")
    runs = _monotone_runs(curve.csr)
    hits = [r for r in runs
            if min(curve.csr[r[0]], curve.csr[r[1]]) <= csr
            <= max(curve.csr[r[0]], curve.csr[r[1]])]
    if not hits:
        raise DomainError(f"csr {csr} falls only on flat curve segments")
    if len(hits) > 1:
        branches = tuple((curve.field_grid_vnm[i], curve.field_grid_vnm[j])
                         for i, j in hits)
        windows = ", ".join(f"[{a:g}, {b:g}] V/nm" for a, b in branches)
        raise AmbiguityError(
            f"csr {csr} is reached on {len(hits)} branches: {windows}",
            branches=branches)
    run = hits[0]
    center = _invert_on_run(curve, run, csr)
    interval = None
    if two_sigma is not None:
        if two_sigma < 0.0:
            raise DomainError(f"two_sigma {two_sigma} must be nonnegative")
        run_lo = min(curve.csr[run[0]], curve.csr[run[1]])
        run_hi = max(curve.csr[run[0]], curve.csr[run[1]])
        ends = []
        for v in (csr - two_sigma, csr + two_sigma):
            clamped = min(max(v, run_lo), run_hi)
            ends.append(_invert_on_run(curve, run, clamped))
        interval = (min(ends), max(ends))
    return FieldEstimate(center, interval, csr, two_sigma)


def dump_curve_csv(curve: KinghamCurve, fh: TextIO) -> None:
    """Write the curve as CSV to an open text stream; two-state species pad f3 with zero."""
    fh.write(f"# species: {curve.species_name}\n")
    writer = csv.writer(fh)
    writer.writerow(CSV_HEADER)
    for f_vnm, row, ratio in zip(curve.field_grid_vnm, curve.fractions, curve.csr):
        padded = tuple(row) + (0.0,) * (3 - len(row))
        writer.writerow([f"{f_vnm:.9g}"] + [f"{v:.9g}" for v in padded]
                        + [f"{ratio:.9g}"])


def write_curve_csv(curve: KinghamCurve, path: str | os.PathLike) -> None:
    """Write the curve as a CSV file (see :func:`dump_curve_csv`)."""
    with open(path, "w", newline="") as fh:
        dump_curve_csv(curve, fh)


def read_curve_csv(path: str | os.PathLike) -> KinghamCurve:
    """Read a curve CSV written by :func:`write_curve_csv` (or compatible)."""
    species_name = os.path.splitext(os.path.basename(path))[0]
    grid, rows, ratios = [], [], []
    try:
        with open(path, newline="") as fh:
            first = fh.readline()
            comment_lines = 1
            if first.startswith("# species:"):
                species_name = first.split(":", 1)[1].strip()
            else:
                fh.seek(0)
                comment_lines = 0
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
                raise DomainError(f"{path}: expected header {','.join(CSV_HEADER)}")
            for line in reader:
                if not line:
                    continue
                try:
                    f_vnm, f1, f2, f3, ratio = (float(v) for v in line)
                except ValueError as exc:
                    raise ConfigError(f"{path}:{reader.line_num + comment_lines}: "
                                      f"bad row {line!r} ({exc})") from exc
                row = [f1, f2, f3]
                # 9-digit CSV rounding breaks the exact row sum; the largest
                # fraction absorbs the residue (well below the stored precision).
                row[row.index(max(row))] += 1.0 - sum(row)
                grid.append(f_vnm)
                rows.append(tuple(row))
                ratios.append(ratio)
    except (OSError, UnicodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read curve file {path}: {exc}") from exc
    if not grid:
        raise DomainError(f"{path}: no data rows")
    return KinghamCurve(species_name, tuple(grid), tuple(rows), tuple(ratios))
