"""Charge-state-ratio curves over field grids, crossover location, and inversion.

A Kingham curve tabulates the post-field-ionization charge-state fractions of
one species on an ascending field grid and derives the charge-state ratio
(CSR) 2+/(1+ + 2+).  The 50 % crossover of that ratio (F50) is the model's
headline observable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from ._numerics import brentq, pchip
from .errors import (AmbiguityError, BracketError, ConfigError, DomainError,
                     NumericalError)
from .geometry import Environment
from .species import SpeciesParams, read_text
from .tunneling import charge_fractions
from .zmodel import ZModel

CSV_HEADER = ("field_Vnm", "f1", "f2", "f3", "csr")
FIELD_BLOCK = 64  # fields per charge_fractions call in a curve; bounds the node arrays' memory
MAX_GRID_POINTS = 200_000  # largest field grid; a finer --grid step is a typo, not a curve
F50_PROBES = 17  # fields of the one charge_fractions call that brackets an F50, ends included
# How far a curve CSV row may stray from the curve it was written from.  A %.9g
# cell v in [0, 1] reads back within 5e-10 of v and within a relative 5e-9, so
# three fractions that summed to 1 within 1e-12 read back summing to 1 within
# 1.5e-9 + 1e-12, and f2/(f1 + f2) of the read cells is within 2.5e-9 of the
# written ratio, which the csr cell holds to 5e-10.  (The largest gaps in the
# shipped fixtures and in generated curves are 1.0e-9 and 8.7e-10.)
CSV_SUM_TOLERANCE = 1.5e-9 + 1e-12
CSV_CSR_TOLERANCE = 3e-9


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

    def points(self) -> np.ndarray:
        n = int(round((self.high_vnm - self.low_vnm) / self.step_vnm))
        pts = self.low_vnm + np.arange(n + 1) * self.step_vnm
        if pts[-1] > self.high_vnm + 1e-12:
            pts = pts[:-1]
        if pts[-1] < self.high_vnm - 1e-9:
            pts = np.append(pts, self.high_vnm)
        return pts


DEFAULT_GRID = FieldGrid()


def csr_from_fractions(fractions):
    """Ratio f_2 / (f_1 + f_2) of charge-ordered fractions, a float or an array like
    them; empty pair -> 1.

    The 0/0 case means every ion has been promoted past both states of the
    pair, so the higher state wins by convention.
    """
    f_lo, f_hi = fractions[0], fractions[1]
    total = np.add(f_lo, f_hi)
    ratio = np.divide(f_hi, total, out=np.ones(np.shape(total)), where=total != 0.0)
    return ratio if ratio.ndim else float(ratio)


@dataclass(frozen=True, eq=False)
class KinghamCurve:
    """Charge-state fractions and CSR of one species on an ascending grid.

    ``field_grid_vnm`` and ``csr`` have shape (N,) and ``fractions`` (N, 3), charge
    ordered from 1+; a two-state species has f3 = 0.  The curve keeps read-only float
    copies of what it is given, so the checks below hold for its whole life.
    """

    species_name: str
    field_grid_vnm: np.ndarray
    fractions: np.ndarray
    csr: np.ndarray

    def __post_init__(self):
        for name in ("field_grid_vnm", "fractions", "csr"):
            value = np.array(getattr(self, name), dtype=float)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        g, fr, csr = self.field_grid_vnm, self.fractions, self.csr
        if g.ndim != 1 or fr.shape != (g.size, 3) or csr.shape != g.shape:
            raise DomainError(f"grid, fractions and csr have shapes {g.shape}, {fr.shape} "
                              f"and {csr.shape}, not (N,), (N, 3) and (N,)")
        if not (np.isfinite(g).all() and (np.diff(g) > 0.0).all()):
            raise DomainError("field grid must be finite and strictly ascending")
        # comparisons with NaN are false, so each check asks for the good case
        if not (((fr >= 0.0) & (fr <= 1.0)).all() and ((csr >= 0.0) & (csr <= 1.0)).all()):
            raise DomainError("fractions and csr values must lie in [0, 1]")
        off = np.abs(fr.sum(axis=1) - 1.0) > 1e-12
        if off.any():
            i = off.argmax()
            raise DomainError(f"fractions at {g[i]} V/nm sum to {fr[i].sum().item()!r}, not 1")


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
    """Charge fractions on every grid point, FIELD_BLOCK fields per call, written into
    one (N, 3) array; the CSR follows from it in one array call."""
    points = grid.points()
    fractions = np.zeros((points.size, 3))
    for start in range(0, points.size, FIELD_BLOCK):
        block = charge_fractions(species, env, zmodel, points[start:start + FIELD_BLOCK])
        fractions[start:start + FIELD_BLOCK, :len(block)] = np.transpose(block)
    return KinghamCurve(species.name, points, fractions, csr_from_fractions(fractions.T))


def find_f50(species: SpeciesParams, env: Environment, zmodel: ZModel,
             search_vnm: tuple[float, float] = (5.0, 45.0)) -> CrossoverResult:
    """Lowest field in ``search_vnm`` where the CSR crosses 0.5 upward: one call on
    F50_PROBES fields finds the lowest cell where CSR - 0.5 goes from < 0 to >= 0, and
    Brent's method solves in that cell, the reported bracket, from the call's values."""
    lo, hi = search_vnm
    if not 0.0 < lo < hi <= 60.0:
        raise DomainError(f"search range {search_vnm} must be ascending within (0, 60]")

    probes = np.linspace(lo, hi, F50_PROBES)
    csr = csr_from_fractions(charge_fractions(species, env, zmodel, probes))
    if not csr[0] < 0.5 < csr[-1]:
        raise BracketError(
            f"{species.name}: CSR is {csr[0]:.4g} at {lo} V/nm and "
            f"{csr[-1]:.4g} at {hi} V/nm; no 0.5 crossing to bracket",
            achievable=(float(csr[0]), float(csr[-1])))
    k = np.flatnonzero((csr[:-1] < 0.5) & (csr[1:] >= 0.5))[0]
    cell = float(probes[k]), float(probes[k + 1])
    root, g_root = brentq(lambda f_vnm: evaluate_csr(species, env, zmodel, f_vnm) - 0.5, *cell,
                          float(csr[k]) - 0.5, float(csr[k + 1]) - 0.5, xtol=1e-9,
                          rtol=8.9e-16)
    achieved = g_root + 0.5
    if abs(achieved - 0.5) >= 1e-6:
        # the CSR jumped over 0.5 inside the cell, as where f1 and f2 both fall
        # to 0 and the empty pair reads 1.0; there is no proper 50 % crossover
        raise NumericalError(
            f"{species.name}: CSR jumps over 0.5 near {root:.3f} V/nm "
            f"(reaches {achieved:.4g}); the crossover is discontinuous")
    return CrossoverResult(root, cell, achieved)


def _monotone_runs(values: np.ndarray) -> np.ndarray:
    """Index pairs [i, j] of the maximal strictly monotone runs, shape (runs, 2); runs
    that meet share their end index, and flat steps belong to none."""
    sign = np.sign(np.diff(values))
    # run bounds: both ends (the NaN pads) and each index where the step's sign changes
    bounds = np.flatnonzero(np.diff(sign, prepend=np.nan, append=np.nan))
    runs = np.column_stack((bounds[:-1], bounds[1:]))
    return runs[sign[runs[:, 0]] != 0.0]


def _invert_on_run(curve: KinghamCurve, i: int, j: int, value: float) -> float:
    x, y = curve.csr[i:j + 1], curve.field_grid_vnm[i:j + 1]
    if x[0] > x[-1]:
        x, y = x[::-1], y[::-1]
    return float(pchip(x, y, value))


def csr_to_field(curve: KinghamCurve, csr: float,
                 two_sigma: float | None = None) -> FieldEstimate:
    """Invert the curve at ``csr``; shape-preserving monotone interpolation.

    With ``two_sigma`` the interval is the field image of csr +/- two_sigma,
    clamped to the grid ends where the band leaves the tabulated range.
    """
    lo, hi = curve.csr.min(), curve.csr.max()
    if not lo <= csr <= hi:
        raise DomainError(
            f"csr {csr} outside the curve's range [{lo:.4g}, {hi:.4g}]; refusing "
            "to extrapolate")
    runs = _monotone_runs(curve.csr)
    spans = np.sort(curve.csr[runs], axis=1)  # lowest and highest CSR of each run
    hits = (spans[:, 0] <= csr) & (csr <= spans[:, 1])
    if not hits.any():
        raise DomainError(f"csr {csr} falls only on flat curve segments")
    if hits.sum() > 1:
        branches = tuple(map(tuple, curve.field_grid_vnm[runs[hits]].tolist()))
        windows = ", ".join(f"[{a:g}, {b:g}] V/nm" for a, b in branches)
        raise AmbiguityError(
            f"csr {csr} is reached on {len(branches)} branches: {windows}",
            branches=branches)
    (i, j), (run_lo, run_hi) = runs[hits][0], spans[hits][0].tolist()
    center = _invert_on_run(curve, i, j, csr)
    interval = None
    if two_sigma is not None:
        if not 0.0 <= two_sigma < math.inf:
            raise DomainError(f"two_sigma {two_sigma} must be nonnegative and finite")
        ends = [_invert_on_run(curve, i, j, min(max(v, run_lo), run_hi))
                for v in (csr - two_sigma, csr + two_sigma)]
        interval = (min(ends), max(ends))
    return FieldEstimate(center, interval, csr, two_sigma)


def dump_curve_csv(curve: KinghamCurve, fh: TextIO) -> None:
    """Write the curve as CSV to an open text stream: a species comment line, then the
    header and one %.9g row per field, CRLF-terminated; a two-state species' f3 is 0."""
    table = np.column_stack((curve.field_grid_vnm, curve.fractions, curve.csr))
    row = ",".join(["%.9g"] * len(CSV_HEADER)) + "\r\n"
    fh.write(f"# species: {curve.species_name}\n{','.join(CSV_HEADER)}\r\n"
             + row * len(table) % tuple(table.ravel().tolist()))


def write_curve_csv(curve: KinghamCurve, path: str | os.PathLike) -> None:
    """Write the curve as a CSV file (see :func:`dump_curve_csv`)."""
    with open(path, "w", newline="") as fh:
        dump_curve_csv(curve, fh)


def _bad_row(path, lines: list[str], first_line: int, exc: ValueError) -> ConfigError:
    """Error for rows that do not parse, naming the first bad one (lines[0] is line first_line)."""
    for number, line in enumerate(lines, first_line):
        cells = line.split(",")
        try:
            if line:
                _, _, _, _, _ = map(float, cells)
        except ValueError as row_exc:
            return ConfigError(f"{path}:{number}: bad row {cells!r} ({row_exc})")
    return ConfigError(f"{path}: bad rows ({exc})")


def read_curve_csv(path: str | os.PathLike) -> KinghamCurve:
    """Read a curve CSV written by :func:`write_curve_csv` (or compatible): the rows
    parse in one conversion, a row whose fraction sum or csr cell is off by more than
    9-digit rounding explains is refused, and each row's largest fraction absorbs the
    rounding residue of its sum."""
    lines = read_text(path, "curve file").splitlines()
    head = int(bool(lines) and lines[0].startswith("# species:"))
    species_name = (lines[0].split(":", 1)[1].strip() if head
                    else os.path.splitext(os.path.basename(path))[0])
    if len(lines) <= head or tuple(h.strip() for h in lines[head].split(",")) != CSV_HEADER:
        raise DomainError(f"{path}: expected header {','.join(CSV_HEADER)}")
    body = lines[head + 1:]
    if not any(body):
        raise DomainError(f"{path}: no data rows")
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        if table.shape[1] != len(CSV_HEADER):
            raise ValueError(f"{table.shape[1]} columns, not {len(CSV_HEADER)}")
    except ValueError as exc:
        raise _bad_row(path, body, head + 2, exc) from exc
    fractions = table[:, 1:4]
    # A non-finite or huge cell fails a check below, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        total = fractions[:, 0] + fractions[:, 1] + fractions[:, 2]
        csr = csr_from_fractions(fractions.T)
        off = ~((np.abs(total - 1.0) <= CSV_SUM_TOLERANCE)
                & (np.abs(table[:, 4] - csr) <= CSV_CSR_TOLERANCE))
    if off.any():
        i = off.argmax()
        raise DomainError(f"{path}: row at {table[i, 0]:g} V/nm: fractions sum to "
                          f"{total[i]:.10g} and csr is {table[i, 4]:.10g} where "
                          f"f2/(f1 + f2) is {csr[i]:.10g}; more than rounding can explain")
    # the largest fraction absorbs the rounding residue of the sum
    fractions[np.arange(len(table)), fractions.argmax(axis=1)] += 1.0 - total
    try:
        return KinghamCurve(species_name, table[:, 0], fractions, table[:, 4])
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc
