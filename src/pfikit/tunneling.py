"""Ionization rate constant R(z0), per-step PFI probability, and charge-state fractions.

The rate model: inside the residual-barrier zone (b = I - ZF/I - F*z0 > 0,
Hartree units) the corrected WKB expression carries the Coulomb power factor
(16 I^2 / ZF)^(Z sqrt(2/I)) and a constant near-zone weight; beyond the clamp
distance the barrier term is clamped to zero and both the Coulomb factor and
the weight are gated off, leaving a z0-free plateau. The Z-model argument is
capped at 100 a.u. (the polynomial's fit range), which makes the plateau
exactly independent of z0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad
from scipy.optimize import brentq

from .constants import CONSTANTS
from .errors import ConfigError, DomainError, NumericalError
from .geometry import Environment, critical_distance, hump_position
from .kinematics import kinetic_energy_unchecked
from .species import SpeciesParams
from .units import field_to_au, length_to_au, mass_amu_to_me, to_hartree
from .zmodel import ZModel

TWO52 = 2.0 ** 2.5
E23 = math.exp(2.0 / 3.0)

# Numerical constants of the step integral and the rate model.
Z_MAX_AU = 200.0          # truncation of the z0 integral
REL_TOL = 1e-8            # quadrature relative tolerance
ABS_FLOOR = 1e-300        # quadrature absolute tolerance
QUAD_LIMIT = 400          # QUADPACK subinterval limit
NEAR_ZONE_WEIGHT = 3.0    # constant rate multiplier inside the barrier zone
Z_ARG_CAP_AU = 100.0      # Z(n, z0) is evaluated at min(z0, cap)
Z_FLOOR_AU = 0.05         # lower floor for critical distances


@dataclass(frozen=True)
class PfiStepResult:
    """One PFI step n -> n+1: probability, its integral, and quadrature diagnostics."""

    p_t: float
    integral_value: float
    z_c_au: float
    breakpoints_au: tuple[float, ...]
    est_error: float
    n_evaluations: int
    note: str = ""


def prefactor_a2nu(species: SpeciesParams, n: int) -> float:
    """A^2 nu = I_{n+1} / (6 pi m_q e^(2/3)) in a.u. for step n -> n+1."""
    if not 1 <= n < species.max_charge:
        raise ConfigError(f"step {n}->{n + 1} needs I_{n + 1} in the {species.name} ladder")
    i_ha = to_hartree(species.ie_ev(n + 1))
    return i_ha / (6.0 * math.pi * species.m_q * E23)


def _critical_z_au(species: SpeciesParams, env: Environment, n: int,
                   field_vnm: float) -> float:
    """Floored critical distance in a.u. for step n -> n+1."""
    geo = critical_distance(species, env, n, field_vnm)
    if geo.barrier_vanished:
        return Z_FLOOR_AU
    return max(length_to_au(max(geo.z_c_nm, 0.0)), Z_FLOOR_AU)


def rate_constant(species: SpeciesParams, env: Environment, zmodel: ZModel, n: int,
                  field_vnm: float, z0_au: float, *,
                  _z_c_au: float | None = None) -> float:
    """Corrected ionization rate constant R(z0) in a.u. for step n -> n+1.

    Distances below the critical distance evaluate at the critical distance
    itself (the rate is only consumed on [z_c, z_max]).
    """
    if not z0_au > 0.0:
        raise DomainError(f"z0 must be > 0 a.u., got {z0_au}")
    if not field_vnm > 0.0:
        raise DomainError(f"field must be > 0 V/nm, got {field_vnm}")
    i_ha = to_hartree(species.ie_ev(n + 1))
    f_au = field_to_au(field_vnm)
    z_c = _z_c_au if _z_c_au is not None else _critical_z_au(species, env, n, field_vnm)
    z_b = max(z0_au, z_c)
    z_eff = zmodel.z(n, min(z_b, Z_ARG_CAP_AU))
    b_raw = i_ha - z_eff * f_au / i_ha - f_au * z_b
    b = max(b_raw, 0.0)
    i32 = i_ha ** 1.5
    pre = prefactor_a2nu(species, n) * 6.0 * math.pi * f_au
    zs2i = z_eff * math.sqrt(2.0 / i_ha)
    arg = -TWO52 * i32 / (3.0 * f_au) + zs2i / 3.0
    if b > 0.0:
        b32 = b ** 1.5
        arg += TWO52 * b32 / (3.0 * f_au) + zs2i * math.log(16.0 * i_ha * i_ha / (z_eff * f_au))
        denom = TWO52 * (i32 - b32)
        if denom <= 0.0:
            raise NumericalError("barrier denominator <= 0; clamp invariant violated")
        return NEAR_ZONE_WEIGHT * pre * math.exp(arg) / denom
    return pre * math.exp(arg) / (TWO52 * i32)


def clamp_distance_au(species: SpeciesParams, env: Environment, zmodel: ZModel, n: int,
                      field_vnm: float) -> float:
    """Distance z* where the barrier residual b(z0) reaches zero (>= z_c)."""
    z_c = _critical_z_au(species, env, n, field_vnm)
    i_ha = to_hartree(species.ie_ev(n + 1))
    f_au = field_to_au(field_vnm)

    def b_raw(z: float) -> float:
        return i_ha - zmodel.z(n, min(z, Z_ARG_CAP_AU)) * f_au / i_ha - f_au * z

    if b_raw(z_c) <= 0.0:
        return z_c
    hi = z_c * 2.0
    while b_raw(hi) > 0.0:
        hi *= 2.0
    return float(brentq(b_raw, z_c, hi, xtol=1e-12))


def pfi_step_probability(species: SpeciesParams, env: Environment, zmodel: ZModel, n: int,
                         field_vnm: float) -> PfiStepResult:
    """P_t = 1 - exp(-integral of R/u over [z_c, z_max]) for step n -> n+1."""
    if not field_vnm > 0.0:
        raise DomainError(f"field must be > 0 V/nm, got {field_vnm}")
    if not 1 <= n < species.max_charge:
        raise ConfigError(f"step {n}->{n + 1} needs I_{n + 1} in the {species.name} ladder")
    z_c = _critical_z_au(species, env, n, field_vnm)
    if z_c >= Z_MAX_AU:
        return PfiStepResult(0.0, 0.0, z_c, (), 0.0, 0,
                             note="integration window empty (z_c >= z_max)")
    if n == 1:
        # The first-step kinetic energy has an exact double zero at the hump
        # position, so a launch at or below it stalls the ion there and the
        # dwell-time integral diverges: ionization is certain.
        z_hump = length_to_au(hump_position(field_vnm))
        if z_c <= z_hump < Z_MAX_AU:
            return PfiStepResult(1.0, math.inf, z_c, (), 0.0, 0,
                                 note="launch at or below the hump; dwell diverges")
    bohr = CONSTANTS.bohr_in_nm
    hartree = CONSTANTS.hartree_in_ev
    history_nm = [_critical_z_au(species, env, r, field_vnm) * bohr for r in range(1, n)]
    m_me = mass_amu_to_me(species.mass_amu)
    z_star = clamp_distance_au(species, env, zmodel, n, field_vnm)

    def integrand(z_au: float) -> float:
        k_ev = kinetic_energy_unchecked(env, field_vnm, n, history_nm, z_au * bohr)
        if k_ev <= 0.0:  # classically forbidden: the ion has not yet reached z
            return 0.0
        u_au = math.sqrt(2.0 * (k_ev / hartree) / m_me)
        r_au = rate_constant(species, env, zmodel, n, field_vnm, z_au, _z_c_au=z_c)
        return r_au / u_au

    breakpoints = tuple(p for p in (z_star, Z_ARG_CAP_AU) if z_c < p < Z_MAX_AU)
    result = quad(integrand, z_c, Z_MAX_AU, epsabs=ABS_FLOOR, epsrel=REL_TOL,
                  limit=QUAD_LIMIT, points=list(breakpoints) or None, full_output=1)
    value, est_error, info = float(result[0]), float(result[1]), result[2]
    note = ""
    if len(result) >= 4:
        # QUADPACK reports roundoff trouble on steep integrands.  The value is
        # still usable when the integral is saturated (exp(-value) underflows
        # long before the reported error matters) or the error is tiny.
        note = str(result[3]).strip().replace("\n", " ")
        saturated = value > 50.0
        converged = est_error <= 1e-6 * abs(value) + 10.0 * ABS_FLOOR
        if not (math.isfinite(value) and (saturated or converged)):
            raise NumericalError(
                f"{species.name} step {n}->{n + 1} at {field_vnm} V/nm: quadrature "
                f"did not converge (value {value:.6e}, est. error {est_error:.2e}): "
                f"{note}")
    if not math.isfinite(value):
        raise NumericalError(
            f"{species.name} step {n}->{n + 1} at {field_vnm} V/nm: integral is {value}")
    value = max(value, 0.0)
    p_t = 1.0 - math.exp(-value)
    return PfiStepResult(p_t, value, z_c, breakpoints, est_error,
                         int(info["neval"]), note=note)


def charge_fractions(species: SpeciesParams, env: Environment, zmodel: ZModel,
                     field_vnm: float) -> tuple[float, ...]:
    """Sequential charge-state fractions f_1 .. f_min(K, 3); the last state absorbs the tail."""
    fractions: list[float] = []
    survive = 1.0
    for n in range(1, min(species.max_charge, 3)):
        step = pfi_step_probability(species, env, zmodel, n, field_vnm)
        fractions.append(survive * (1.0 - step.p_t))
        survive *= step.p_t
    fractions.append(survive)
    return tuple(fractions)
