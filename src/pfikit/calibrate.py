"""Calibration fits: Z-model offset or ionization-energy refits to a target F50.

Both fits are one-dimensional bracketed root-finds.  The Z fit varies the
additive offset c0 with the 1/z0 coefficient held fixed; the IE fit varies a
single ladder entry within +/-30 % of its nominal value.  Multi-parameter
simultaneous fits are out of scope.

At extreme parameter values the 50 % crossover can stop existing: once the
barrier vanishes below the crossing field, the CSR jumps over 0.5 instead of
crossing it.  Fit brackets therefore retreat from an unevaluable bound toward
the nominal value, and the reported achievable interval only spans F50 values
that are proper crossings.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from scipy.optimize import brentq

from .curves import find_f50
from .errors import BracketError, DomainError, FitRangeError, NumericalError
from .geometry import Environment
from .species import SpeciesParams
from .zmodel import ZModel

FIT_RESIDUAL_VNM = 0.05  # required |F50(fit) - target|

C0_BOUNDS = (0.01, 2.0)
IE_REL_WINDOW = 0.30


@dataclass(frozen=True)
class FitReport:
    """Echo of a 1D calibration fit: inputs, fitted value, and residual."""

    kind: str                     # "z_offset" or "ie"
    species_name: str
    parameter: str                # "c0" or "I<k>"
    target_f50_vnm: float
    achieved_f50_vnm: float
    residual_vnm: float
    fitted_value: float
    nominal_value: float
    absolute_shift: float
    relative_shift: float
    zmodel: ZModel | None = None
    species: SpeciesParams | None = None
    note: str = ""


@dataclass(frozen=True)
class ScanPoint:
    """One sensitivity-scan sample."""

    parameter: str
    value: float
    f50_vnm: float


def _usable_bound(f50_of, x_good: float, x_bound: float,
                  max_iter: int = 6) -> tuple[float, float] | None:
    """Farthest point toward ``x_bound`` where the F50 still evaluates.

    ``x_good`` is assumed evaluable.  Returns (x, f50) or None when every
    probe between the two fails.
    """
    try:
        return x_bound, f50_of(x_bound)
    except (BracketError, NumericalError):
        pass
    lo, hi = x_good, x_bound
    best = None
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        try:
            best = (mid, f50_of(mid))
            lo = mid
        except (BracketError, NumericalError):
            hi = mid
    return best


def _fit_1d(f50_of, label: str, x_nominal: float, bounds: tuple[float, float],
            target: float, xtol: float) -> float:
    """Solve f50_of(x) == target for x inside ``bounds``.

    The nominal point must evaluate; unevaluable bounds retreat toward it.
    Raises FitRangeError with the achievable F50 interval when the target
    falls outside what the usable bracket can reach.
    """
    cache: dict[float, float] = {}

    def f(x: float) -> float:
        if x not in cache:
            cache[x] = f50_of(x)
        return cache[x]

    f_nominal = f(x_nominal)
    points = [(x_nominal, f_nominal)]
    for bound in bounds:
        usable = _usable_bound(f, x_nominal, bound)
        if usable is not None:
            points.append(usable)
    f_values = [v for _, v in points]
    achievable = (min(f_values), max(f_values))
    if not achievable[0] <= target <= achievable[1]:
        raise FitRangeError(
            f"{label}: target F50 {target:g} V/nm outside the achievable "
            f"interval [{achievable[0]:.3f}, {achievable[1]:.3f}] V/nm",
            achievable=achievable)
    points.sort()
    for (xa, fa), (xb, fb) in zip(points, points[1:]):
        if (fa - target) * (fb - target) <= 0.0:
            return float(brentq(lambda x: f(x) - target, xa, xb, xtol=xtol))
    raise FitRangeError(
        f"{label}: no bracket around target F50 {target:g} V/nm despite it "
        f"lying inside [{achievable[0]:.3f}, {achievable[1]:.3f}] V/nm",
        achievable=achievable)


def fit_z_offset(species: SpeciesParams, env: Environment, target_f50_vnm: float,
                 c1: float = 1.0, c0_bounds: tuple[float, float] = C0_BOUNDS,
                 search_vnm: tuple[float, float] = (5.0, 45.0),
                 note: str = "") -> FitReport:
    """Find c0 in ``c0_bounds`` so the species' F50 meets the target.

    F50 falls as c0 grows (more screening promotes ionization), so the target
    must lie between the F50 values reachable at the two c0 endpoints.
    """
    c_lo, c_hi = c0_bounds
    if not 0.0 < c_lo < c_hi:
        raise DomainError(f"c0 bounds {c0_bounds} must be ascending and positive")
    nominal_c0 = min(max(1.0, c_lo), c_hi)

    def f50_of(c0: float) -> float:
        return find_f50(species, env, ZModel(c0, c1), search_vnm).f50_vnm

    c0 = _fit_1d(f50_of, f"{species.name} z-offset fit", nominal_c0,
                 (c_lo, c_hi), target_f50_vnm, xtol=1e-4)
    achieved = f50_of(c0)
    residual = achieved - target_f50_vnm
    if abs(residual) >= FIT_RESIDUAL_VNM:
        raise NumericalError(
            f"{species.name}: z-offset fit residual {residual:.4f} V/nm exceeds "
            f"{FIT_RESIDUAL_VNM}")
    return FitReport("z_offset", species.name, "c0", target_f50_vnm, achieved,
                     residual, c0, 1.0, c0 - 1.0, c0 - 1.0,
                     zmodel=ZModel(c0, c1), note=note)


def fit_ie(species: SpeciesParams, env: Environment, zmodel: ZModel,
           target_f50_vnm: float, ie_index: int = 2,
           search_vnm: tuple[float, float] = (5.0, 45.0),
           note: str = "") -> FitReport:
    """Vary one ladder entry (1-based ``ie_index``) to meet the target F50.

    The entry moves within +/-30 % of nominal, clipped so the ladder stays
    strictly increasing.
    """
    ladder = species.ie_ladder_ev
    if not 1 <= ie_index <= len(ladder):
        raise DomainError(f"ie_index {ie_index} outside 1..{len(ladder)}")
    nominal = ladder[ie_index - 1]
    lo = nominal * (1.0 - IE_REL_WINDOW)
    hi = nominal * (1.0 + IE_REL_WINDOW)
    margin = 1e-6
    if ie_index > 1:
        lo = max(lo, ladder[ie_index - 2] + margin)
    if ie_index < len(ladder):
        hi = min(hi, ladder[ie_index] - margin)
    if lo >= hi:
        raise FitRangeError(
            f"{species.name}: I{ie_index} window empty after keeping the ladder "
            "strictly increasing")

    def f50_of(ie: float) -> float:
        return find_f50(species.with_ie(ie_index, ie), env, zmodel, search_vnm).f50_vnm

    fitted = _fit_1d(f50_of, f"{species.name} I{ie_index} fit", nominal,
                     (lo, hi), target_f50_vnm, xtol=1e-4)
    achieved = f50_of(fitted)
    residual = achieved - target_f50_vnm
    if abs(residual) >= FIT_RESIDUAL_VNM:
        raise NumericalError(
            f"{species.name}: IE fit residual {residual:.4f} V/nm exceeds "
            f"{FIT_RESIDUAL_VNM}")
    return FitReport("ie", species.name, f"I{ie_index}", target_f50_vnm, achieved,
                     residual, fitted, nominal, fitted - nominal,
                     (fitted - nominal) / nominal,
                     species=species.with_ie(ie_index, fitted), note=note)


def sensitivity_scan(species: SpeciesParams, env: Environment, zmodel: ZModel,
                     parameter: str, values,
                     search_vnm: tuple[float, float] = (5.0, 45.0)) -> tuple[ScanPoint, ...]:
    """F50 per parameter value; ``parameter`` is ``m_q`` or ``phi``."""
    points = []
    for value in values:
        if parameter == "m_q":
            if value < 1:
                raise DomainError(f"m_q {value} must be >= 1")
            varied_species = dataclasses.replace(species, m_q=value)
            varied_env = env
        elif parameter == "phi":
            if value <= 0.0:
                raise DomainError(f"work function {value} eV must be positive")
            varied_species = species
            varied_env = dataclasses.replace(env, work_function_ev=value)
        else:
            raise DomainError(f"unknown scan parameter {parameter!r} (m_q or phi)")
        f50 = find_f50(varied_species, varied_env, zmodel, search_vnm).f50_vnm
        points.append(ScanPoint(parameter, float(value), f50))
    return tuple(points)
