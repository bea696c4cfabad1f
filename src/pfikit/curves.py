"""Charge-state-ratio curves over field grids, crossover location, and inversion.

A Kingham curve tabulates the post-field-ionization charge-state fractions of
one species on an ascending field grid and derives the charge-state ratio
(CSR) 2+/(1+ + 2+).  The 50 % crossover of that ratio (F50) is the model's
headline observable.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from ._numerics import pchip, roots_lockstep
from .errors import (AmbiguityError, BracketError, ConfigError, DomainError,
                     NumericalError)
from .geometry import Environment
from .species import SpeciesParams, read_text
from .tunneling import charge_fractions
from .zmodel import ZModel

CSV_HEADER = ("field_Vnm", "f1", "f2", "f3", "csr")
FIELD_BLOCK = 1024  # fields per charge_fractions call in a curve; bounds the geometry planes
MAX_GRID_POINTS = 200_000  # largest field grid; a finer --grid step is a typo, not a curve
F50_PROBES = 17  # fields of the one charge_fractions call that brackets an F50, ends included
EMPTY_PAIR_FLOOR = 1e-12  # f1 + f2 below this: every ion is past 2+, the 1+/2+ pair is empty
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
F50_SEARCH_VNM = (DEFAULT_GRID.low_vnm, DEFAULT_GRID.high_vnm)


def csr_from_fractions(fractions):
    """Ratio f_2 / (f_1 + f_2) of charge-ordered fractions, a float or an array like
    them; empty pair -> 1.

    The 0/0 case means every ion has been promoted past both states of the
    pair, so the higher state wins by convention.  Below EMPTY_PAIR_FLOOR, f_1 + f_2
    is rounding residue: ``find_f50`` and ``csr_to_field`` use no such ratio.
    """
    f_lo, f_hi = fractions[0], fractions[1]
    total = np.add(f_lo, f_hi)
    ratio = np.divide(f_hi, total, out=np.ones(np.shape(total)), where=total != 0.0)
    return ratio if ratio.ndim else float(ratio)


@dataclass(frozen=True, eq=False)
class KinghamCurve:
    """Charge-state fractions and CSR of one species on an ascending grid.

    ``field_grid_vnm`` and ``csr`` have shape (N,) and ``fractions`` (N, 3), N >= 1, charge
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
        if not g.size:
            raise DomainError("a curve needs at least one field point (N >= 1)")
        if not (np.isfinite(g).all() and (g[1:] > g[:-1]).all()):
            raise DomainError("field grid must be finite and strictly ascending")
        # min and max carry a NaN, which fails each comparison
        if not (fr.min() >= 0.0 and fr.max() <= 1.0 and csr.min() >= 0.0 and csr.max() <= 1.0):
            raise DomainError("fractions and csr values must lie in [0, 1]")
        # the left-to-right row sums of fr.sum(axis=1), at a third of its cost
        if (off := np.abs(fr[:, 0] + fr[:, 1] + fr[:, 2] - 1.0) > 1e-12).any():
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
    """CSR at a single field point, or of several problems given as sequences at a
    (problems, fields) array of fields (see ``charge_fractions``)."""
    return csr_from_fractions(charge_fractions(species, env, zmodel, field_vnm))


def generate_curve(species: SpeciesParams, env: Environment, zmodel: ZModel,
                   grid: FieldGrid = DEFAULT_GRID) -> KinghamCurve:
    """Charge fractions on every grid point, FIELD_BLOCK fields per call (one call for every
    shipped grid), written into one (N, 3) array; the CSR follows from it in one array call."""
    points = grid.points()
    fractions = np.zeros((points.size, 3))
    for start in range(0, points.size, FIELD_BLOCK):
        block = charge_fractions(species, env, zmodel, points[start:start + FIELD_BLOCK])
        fractions[start:start + FIELD_BLOCK, :len(block)] = np.transpose(block)
    return KinghamCurve(species.name, points, fractions, csr_from_fractions(fractions.T))


def _log_ratio(f1, f2):
    """log(f2 / f1), whose sign is that of CSR - 0.5 (+inf for an empty pair, whose CSR is 1)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(f1 + f2 == 0.0, np.inf, np.log(f2 / f1))


@functools.lru_cache(maxsize=16)
def _f50_probes(lo: float, hi: float) -> tuple[np.ndarray, list]:
    """The F50_PROBES fields, ends included, that bracket an F50 in [lo, hi]: a read-only
    array and a list of floats, built once per search range."""
    probes = np.linspace(lo, hi, F50_PROBES)
    probes.flags.writeable = False
    return probes, probes.tolist()


def find_f50(species: SpeciesParams, env: Environment, zmodel: ZModel,
             search_vnm: tuple[float, float] = F50_SEARCH_VNM) -> CrossoverResult:
    """Lowest field in ``search_vnm`` where the CSR crosses 0.5 upward: one call on
    F50_PROBES fields finds the lowest cell where CSR - 0.5 goes from < 0 to >= 0 before
    the first probe whose 1+/2+ pair is empty (none there: BracketError), the reported
    bracket, and ``_numerics.roots_lockstep`` solves log(f2 / f1) = 0 in that cell from the
    call's values to 1e-9 V/nm plus 4 machine epsilons of the field: one call on 9 fields
    1/40 of the cell apart around the interpolated root, then calls on 3 fields, usually
    one. This is the one-problem case of ``find_f50s``."""
    return find_f50s((species,), (env,), (zmodel,), search_vnm)[0]


def find_f50s(species, envs, zmodels, search_vnm: tuple[float, float] = F50_SEARCH_VNM
              ) -> tuple[CrossoverResult, ...]:
    """``find_f50`` of each problem (species[i], envs[i], zmodels[i]), bit for bit, in lockstep:
    one call brackets all, then one call per round on the problems not yet solved. The first
    stage to fail raises: the bracket (its call, or the first problem in order without a
    crossing), a round's call, or the first problem in order whose root fails or jumps."""
    if not (species or envs or zmodels):
        return ()
    lo, hi = search_vnm
    if not 0.0 < lo < hi <= 60.0:
        raise DomainError(f"search range {search_vnm} must be ascending within (0, 60]")
    probes, points = _f50_probes(lo, hi)
    problems = list(zip(species, envs, zmodels))
    f1, f2, *_ = charge_fractions(species, envs, zmodels, np.array([probes] * len(species)))
    csrs, g = csr_from_fractions((f1, f2)), _log_ratio(f1, f2)
    # per problem, as lists: the probes where its 1+/2+ pair is empty, and the cells where its
    # CSR goes from < 0.5 to >= 0.5
    empty = (f1 + f2 < EMPTY_PAIR_FLOOR).tolist()
    rising = ((csrs[:, :-1] < 0.5) & (csrs[:, 1:] >= 0.5)).tolist()
    cells = []
    for sp, empty_at, rises, csr, g_row in zip(species, empty, rising, csrs, g.tolist()):
        n = empty_at.index(True) if True in empty_at else F50_PROBES  # before an empty pair
        if n < F50_PROBES and not (csr[:n] >= 0.5).any():
            reached = f"reaches at most {csr[:n].max():.4g}" if n else "has no value"
            raise BracketError(f"{sp.name}: CSR {reached} below {points[n]:g} V/nm, where the "
                               "1+/2+ pair empties; no 0.5 crossing to bracket", achievable=(
                                   (float(csr[:n].min()), float(csr[:n].max())) if n else None))
        if True not in rises[:n - 1]:
            raise BracketError(f"{sp.name}: CSR is {csr[0]:.4g} at {lo} V/nm and {csr[-1]:.4g} "
                               f"at {hi} V/nm; no 0.5 crossing to bracket",
                               achievable=(float(csr[0]), float(csr[-1])))
        k = rises.index(True)
        cells.append((*points[k:k + 2], *g_row[k:k + 2], dict(zip(points[:n], g_row[:n]))))

    def log_ratio(live, fields):
        f_1, f_2, *_ = charge_fractions(*zip(*(problems[i] for i in live)), fields)
        return _log_ratio(f_1, f_2)

    results = []
    for sp, cell, outcome in zip(species, cells, roots_lockstep(log_ratio, cells, xtol=1e-9)):
        if isinstance(outcome, Exception):
            raise outcome
        root, g_root = outcome
        achieved = 0.5 + 0.5 * math.tanh(0.5 * g_root)  # f2 / (f1 + f2) from log(f2 / f1)
        if abs(achieved - 0.5) >= 1e-6:
            # both cell ends hold a full 1+/2+ pair, yet the CSR leapt over 0.5: P(1->2) jumps
            # to 1 as the launch reaches the hump (slow hopping, huge m_q); no proper crossover
            raise NumericalError(f"{sp.name}: CSR jumps over 0.5 near {root:.3f} V/nm (reaches "
                                 f"{achieved:.4g}); the crossover is discontinuous")
        results.append(CrossoverResult(root, cell[:2], achieved))
    return tuple(results)


def _monotone_runs(values: np.ndarray) -> np.ndarray:
    """Index pairs [i, j] of the maximal strictly monotone runs, shape (runs, 2); runs
    that meet share their end index; flat steps and steps next to a NaN belong to none."""
    sign = np.sign(np.diff(values))
    # run bounds: both ends (the NaN pads) and each index where the step's sign changes
    bounds = np.flatnonzero(np.diff(sign, prepend=np.nan, append=np.nan))
    runs = np.column_stack((bounds[:-1], bounds[1:]))
    return runs[np.abs(sign[runs[:, 0]]) == 1.0]


def _invert_on_run(curve: KinghamCurve, i: int, j: int, value: float) -> float:
    x, y = curve.csr[i:j + 1], curve.field_grid_vnm[i:j + 1]
    if x[0] > x[-1]:
        x, y = x[::-1], y[::-1]
    return float(pchip(x, y, value))


def csr_to_field(curve: KinghamCurve, csr: float,
                 two_sigma: float | None = None) -> FieldEstimate:
    """Invert the curve at ``csr``; shape-preserving monotone interpolation.

    With ``two_sigma`` the interval is the field image of csr +/- two_sigma,
    clamped to the grid ends where the band leaves the tabulated range.  No row with an
    empty 1+/2+ pair, nor a grid cell that touches one, is inverted.
    """
    full = curve.fractions[:, 0] + curve.fractions[:, 1] >= EMPTY_PAIR_FLOOR
    usable = curve.csr[full]
    if not (usable.size and usable.min() <= csr <= usable.max()):
        lo, hi = curve.csr.min(), curve.csr.max()
        if not lo <= csr <= hi:
            raise DomainError(
                f"csr {csr} outside the curve's range [{lo:.4g}, {hi:.4g}]; refusing "
                "to extrapolate")
        raise DomainError(f"csr {csr} is reached only where the 1+/2+ pair is empty, from "
                          f"{curve.field_grid_vnm[full.argmin()]:g} V/nm; refusing to invert")
    runs = _monotone_runs(np.where(full, curve.csr, np.nan))
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


def fractions_at(curve: KinghamCurve, field_vnm: float) -> tuple[float, float, float]:
    """The curve's charge-state fractions at a field inside its grid, charge ordered from
    1+: linear interpolation of each column."""
    grid = curve.field_grid_vnm
    if not grid[0] <= field_vnm <= grid[-1]:
        raise DomainError(f"{curve.species_name}: field {field_vnm:g} V/nm outside "
                          f"the curve grid [{grid[0]:g}, {grid[-1]:g}]")
    return tuple(float(np.interp(field_vnm, grid, column)) for column in curve.fractions.T)


def curve_csv(curve: KinghamCurve) -> str:
    """The curve as CSV text: a species comment line, then the header and one %.9g row per
    field, CRLF-terminated; a two-state species' f3 is 0."""
    table = np.column_stack((curve.field_grid_vnm, curve.fractions, curve.csr))
    row = ",".join(["%.9g"] * len(CSV_HEADER)) + "\r\n"
    return (f"# species: {curve.species_name}\n{','.join(CSV_HEADER)}\r\n"
            + row * len(table) % tuple(table.ravel().tolist()))


def write_curve_csv(curve: KinghamCurve, path: str | os.PathLike) -> None:
    """Write :func:`curve_csv` of the curve to a file."""
    with open(path, "w", newline="") as fh:
        fh.write(curve_csv(curve))


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
        grid, f1, f2, f3, cells = table.T  # more or fewer columns than CSV_HEADER raise here
    except ValueError as exc:
        raise _bad_row(path, body, head + 2, exc) from exc
    # A non-finite or huge cell fails a check below, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        total = f1 + f2 + f3
        csr = csr_from_fractions((f1, f2))
        good = ((np.abs(total - 1.0) <= CSV_SUM_TOLERANCE)
                & (np.abs(cells - csr) <= CSV_CSR_TOLERANCE))
    if not good.all():
        i = good.argmin()
        raise DomainError(f"{path}: row at {grid[i]:g} V/nm: fractions sum to "
                          f"{total[i]:.10g} and csr is {cells[i]:.10g} where "
                          f"f2/(f1 + f2) is {csr[i]:.10g}; more than rounding can explain")
    # each row's largest fraction (column 1-3, first of equals) takes its residue via a flat view
    largest = np.where(f3 > np.maximum(f1, f2), 3, (f2 > f1) + 1)
    table.reshape(-1)[np.arange(0, table.size, len(CSV_HEADER)) + largest] += 1.0 - total
    try:
        return KinghamCurve(species_name, grid, table[:, 1:4], cells)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc
