"""Calibration fits: Z-model offset or ionization-energy refits to a target F50.

Both fits are one-dimensional bracketed root-finds.  The Z fit varies the
additive offset c0 with the 1/z0 coefficient held fixed; the IE fit varies a
single ladder entry within +/-30 % of its nominal value.  Multi-parameter
simultaneous fits are out of scope.

Where the CSR rises with field up to the target T, F50(x) = T exactly when
CSR(T; x) = 0.5.  So ``_fit_1d`` evaluates the CSR at T for the nominal value and
both bounds, three problems in one kernel call, and ``roots_lockstep`` solves
CSR(T; x) = 0.5, on log(CSR / (1 - CSR)), between the neighbouring points that
straddle it (a lone nominal point that meets it is the fit), one call per round on
a problem per point of the round.  One F50 solved at the root is the achieved F50,
and its distance from T, the residual, must be below FIT_RESIDUAL_VNM.  An empty
1+/2+ pair reads CSR 1, the right side of 0.5 at a fixed field.

Only a fit this route cannot make solves the F50 at the nominal value and at each
bound, retreating from a bound without a proper crossover toward the nominal
value.  Those F50s span the achievable interval: a target outside it is a fit
range error, one inside it a numerical error, since the F50 then jumps over the
target somewhere in the bracket.  A sensitivity scan checks every value first and
solves all its F50s in lockstep with ``find_f50s``, a few fields of each value per
kernel call, each as ``find_f50`` would alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ._numerics import EPS, roots_lockstep
from .curves import F50_SEARCH_VNM, evaluate_csr, find_f50, find_f50s
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


def _fit_1d(problem_of, search_vnm: tuple[float, float], label: str, kind: str,
            parameter: str, x_nominal: float, bounds: tuple[float, float],
            target: float) -> FitReport:
    """Solve F50 == target for x inside ``bounds``, where problem_of(x) is the (species,
    environment, Z model) of the value x, and report the fit.

    A non-finite target raises DomainError before any F50 is solved.  The CSRs at the
    target of the nominal value and both bounds are evaluated in one call (where it fails,
    each alone, and a value whose call fails is dropped); ``roots_lockstep`` solves
    CSR == 0.5, on its logit, between the neighbours among them that straddle it, one call
    per round on the values of the round, and one F50 at the root must meet the target
    within FIT_RESIDUAL_VNM.  Otherwise the F50s at the nominal value (which must evaluate)
    and the usable bounds span the achievable interval: FitRangeError when the target lies
    outside it, NumericalError when inside.
    """
    if not math.isfinite(target):
        raise DomainError(f"{label}: target F50 {target} V/nm must be finite")

    def g_of(xs: list) -> list:  # the logit of each value's CSR at the target, in one call
        problems = zip(*map(problem_of, xs))
        return _logit(evaluate_csr(*problems, np.full((len(xs), 1), target))[:, 0])

    def f50_of(x: float) -> float:
        return find_f50(*problem_of(x), search_vnm).f50_vnm

    points = []
    if search_vnm[0] <= target <= search_vnm[1]:  # no F50 lies outside the search range
        xs = [x_nominal, *bounds]
        try:
            points = list(zip(xs, g_of(xs)))
        except (BracketError, NumericalError):  # evaluate each alone, dropping those that fail
            for x in xs:
                with contextlib.suppress(BracketError, NumericalError):
                    points += zip([x], g_of([x]))
    points.sort()
    # two neighbours straddle 0.5; a lone point (the nominal one) must meet it exactly
    pair = next(((a, b) for a, b in zip(points, points[1:] or points)
                 if a[1] * b[1] <= 0.0), None)
    f50 = math.inf  # no root yet
    if pair is not None:
        (xa, ga), (xb, gb) = pair
        try:
            (outcome,) = roots_lockstep(lambda live, xs: [g_of(row) for row in xs.tolist()],
                                        [(xa, xb, ga, gb, dict(points))], xtol=FIT_XTOL)
            if isinstance(outcome, Exception):
                raise outcome
            x = outcome[0]
            f50 = f50_of(x)
        except (BracketError, NumericalError):
            pass
    if abs(f50 - target) < FIT_RESIDUAL_VNM:
        shift = x - x_nominal
        return FitReport(kind, problem_of(x_nominal)[0].name, parameter, target, f50,
                         f50 - target, x, x_nominal, shift, shift / x_nominal)
    ends = (_usable_bound(f50_of, x_nominal, bound) for bound in bounds)
    f_values = [f50_of(x_nominal)] + [end[1] for end in ends if end is not None]
    lo, hi = min(f_values), max(f_values)
    if not lo <= target <= hi:
        raise FitRangeError(f"{label}: target F50 {target:g} V/nm outside the achievable "
                            f"interval [{lo:.3f}, {hi:.3f}] V/nm", achievable=(lo, hi))
    raise NumericalError(f"{label}: the F50s at the bracket's points span [{lo:.3f}, "
                         f"{hi:.3f}] V/nm, but no value was found whose CSR at {target:g} "
                         "V/nm is 0.5 and whose F50 is there; the F50 jumps over the target")


def _logit(csr) -> list:
    """log(c / (1 - c)) of each CSR c, clipped to [EPS, 1 - EPS] so that it stays finite:
    its sign is that of c - 0.5, and it is more nearly linear in the parameter than c."""
    c = np.clip(csr, EPS, 1.0 - EPS)
    return (np.log(c) - np.log1p(-c)).tolist()


def fit_z_offset(species: SpeciesParams, env: Environment, target_f50_vnm: float,
                 c1: float = 1.0,
                 search_vnm: tuple[float, float] = F50_SEARCH_VNM) -> FitReport:
    """Find c0 in ``C0_BOUNDS``, from the nominal 1, so the species' F50 meets the target.

    F50 falls as c0 grows (more screening promotes ionization), so the target
    must lie between the F50 values reachable at the two c0 endpoints.
    """
    return _fit_1d(lambda c0: (species, env, ZModel(c0, c1)), search_vnm,
                   f"{species.name} z-offset fit", "z_offset", "c0", 1.0, C0_BOUNDS,
                   target_f50_vnm)


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

    return _fit_1d(lambda ie: (species.with_ie(ie_index, ie), env, zmodel), search_vnm,
                   f"{species.name} I{ie_index} fit", "ie", f"I{ie_index}", nominal, (lo, hi),
                   target_f50_vnm)


def sensitivity_scan(species: SpeciesParams, env: Environment, zmodel: ZModel,
                     parameter: str, values,
                     search_vnm: tuple[float, float] = F50_SEARCH_VNM) -> tuple[ScanPoint, ...]:
    """F50 per parameter value; ``parameter`` is ``m_q`` or ``phi``. Every value is checked,
    and its problem built, before the F50s are solved together by ``find_f50s``."""
    if parameter not in ("m_q", "phi"):
        raise DomainError(f"unknown scan parameter {parameter!r} (m_q or phi)")
    values = list(values)
    species_of, env_of = [species] * len(values), [env] * len(values)
    for i, value in enumerate(values):
        if parameter == "phi":
            env_of[i] = dataclasses.replace(env, work_function_ev=value)
        elif value >= 1 and float(value).is_integer():
            species_of[i] = dataclasses.replace(species, m_q=int(value))
        else:
            raise DomainError(f"m_q {value} must be a finite integer >= 1")
    results = find_f50s(species_of, env_of, [zmodel] * len(values), search_vnm)
    return tuple(ScanPoint(parameter, float(v), r.f50_vnm) for v, r in zip(values, results))
