"""Calibration fits: Z-model offset or ionization-energy refits to a target F50.

Both fits are one-dimensional bracketed root-finds.  The Z fit varies the
additive offset c0 with the 1/z0 coefficient held fixed; the IE fit varies a
single ladder entry within +/-30 % of its nominal value.  Multi-parameter
simultaneous fits are out of scope.

``_fit_1d`` solves the F50 at the nominal value and at each bound, then runs
Brent's method between the neighbouring points that straddle the target (a
lone nominal point that meets it is the fit).  Brent's last F50 minus the target
is the residual; the achieved F50 is the target plus that residual, so no F50 is
solved twice.

At extreme parameter values the CSR can stay below 0.5 until every ion is past 2+,
and ``find_f50`` refuses that empty 1+/2+ pair as an unreachable bracket after one
probe call.  Fit brackets retreat from such a bound toward the nominal value, so
the achievable interval spans only F50 values that are proper crossings.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from ._numerics import brentq
from .curves import F50_SEARCH_VNM, find_f50
from .errors import BracketError, DomainError, FitRangeError, NumericalError
from .geometry import Environment
from .species import SpeciesParams
from .zmodel import ZModel

FIT_RESIDUAL_VNM = 0.05  # required |F50(fit) - target|
FIT_XTOL = 1e-4         # bracket width at which the fitted parameter is taken
BOUND_PROBES = 6        # bisections from an unevaluable bound toward the nominal value

C0_BOUNDS = (0.01, 2.0)
IE_REL_WINDOW = 0.30


@dataclass(frozen=True)
class FitReport:
    """Echo of a 1D calibration fit: inputs, fitted value, and residual."""

    kind: str                     # "z_offset" or "ie"
    species: str
    parameter: str                # "c0" or "I<k>"
    target_f50_vnm: float
    achieved_f50_vnm: float
    residual_vnm: float
    fitted_value: float
    nominal_value: float
    absolute_shift: float
    relative_shift: float


@dataclass(frozen=True)
class ScanPoint:
    """One sensitivity-scan sample."""

    parameter: str
    value: float
    f50_vnm: float


def _usable_bound(f50_of, x_good: float, x_bound: float) -> tuple[float, float] | None:
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
    for _ in range(BOUND_PROBES):
        mid = 0.5 * (lo + hi)
        try:
            best = (mid, f50_of(mid))
            lo = mid
        except (BracketError, NumericalError):
            hi = mid
    return best


def _fit_1d(f50_of, label: str, kind: str, species_name: str, parameter: str,
            x_nominal: float, bounds: tuple[float, float], target: float) -> FitReport:
    """Solve f50_of(x) == target for x inside ``bounds`` and report the fit.

    A non-finite target raises DomainError before any F50 is solved.  The
    nominal point must evaluate; unevaluable bounds retreat toward it.
    Raises FitRangeError with the achievable F50 interval when the target
    falls outside what the usable bracket can reach, and NumericalError when
    the F50 at the root misses the target by FIT_RESIDUAL_VNM or more.
    """
    if not math.isfinite(target):
        raise DomainError(f"{label}: target F50 {target} V/nm must be finite")
    points = [(x_nominal, f50_of(x_nominal))]
    for bound in bounds:
        usable = _usable_bound(f50_of, x_nominal, bound)
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
    # two neighbours straddle a target in [min, max]; a lone point meets it exactly
    (xa, fa), (xb, fb) = next((a, b) for a, b in zip(points, points[1:] or points)
                              if (a[1] - target) * (b[1] - target) <= 0.0)
    x, residual = brentq(lambda x: f50_of(x) - target, xa, xb, fa - target, fb - target,
                         xtol=FIT_XTOL)
    if abs(residual) >= FIT_RESIDUAL_VNM:
        raise NumericalError(f"{label}: residual {residual:.4f} V/nm exceeds {FIT_RESIDUAL_VNM}")
    # target + residual is F50(x) bit for bit: F50(x) and the target lie within a factor
    # 2 of each other, so their difference was exact (Sterbenz's lemma)
    shift = x - x_nominal
    return FitReport(kind, species_name, parameter, target, target + residual, residual,
                     x, x_nominal, shift, shift / x_nominal)


def fit_z_offset(species: SpeciesParams, env: Environment, target_f50_vnm: float,
                 c1: float = 1.0,
                 search_vnm: tuple[float, float] = F50_SEARCH_VNM) -> FitReport:
    """Find c0 in ``C0_BOUNDS``, from the nominal 1, so the species' F50 meets the target.

    F50 falls as c0 grows (more screening promotes ionization), so the target
    must lie between the F50 values reachable at the two c0 endpoints.
    """
    def f50_of(c0: float) -> float:
        return find_f50(species, env, ZModel(c0, c1), search_vnm).f50_vnm

    return _fit_1d(f50_of, f"{species.name} z-offset fit", "z_offset", species.name, "c0",
                   1.0, C0_BOUNDS, target_f50_vnm)


def fit_ie(species: SpeciesParams, env: Environment, zmodel: ZModel,
           target_f50_vnm: float, ie_index: int = 2,
           search_vnm: tuple[float, float] = F50_SEARCH_VNM) -> FitReport:
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

    return _fit_1d(f50_of, f"{species.name} I{ie_index} fit", "ie", species.name,
                   f"I{ie_index}", nominal, (lo, hi), target_f50_vnm)


def sensitivity_scan(species: SpeciesParams, env: Environment, zmodel: ZModel,
                     parameter: str, values,
                     search_vnm: tuple[float, float] = F50_SEARCH_VNM) -> tuple[ScanPoint, ...]:
    """F50 per parameter value; ``parameter`` is ``m_q`` or ``phi``."""
    points = []
    for value in values:
        if parameter == "m_q":
            if not (value >= 1 and float(value).is_integer()):
                raise DomainError(f"m_q {value} must be a finite integer >= 1")
            varied_species = dataclasses.replace(species, m_q=int(value))
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
