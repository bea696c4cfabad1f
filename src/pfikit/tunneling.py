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

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq

from .constants import CONSTANTS
from .errors import ConfigError, DomainError, NumericalError
from .geometry import Environment, critical_distance, hump_position
from .kinematics import forbidden_gap_nm, kinetic_energy_unchecked
from .species import SpeciesParams
from .units import field_to_au, length_to_au, mass_amu_to_me, to_hartree
from .zmodel import ZModel

TWO52 = 2.0 ** 2.5
E23 = math.exp(2.0 / 3.0)

# Numerical constants of the step integral and the rate model.
Z_MAX_AU = 200.0          # truncation of the z0 integral
RULE_ORDER = 32           # Gauss-Legendre nodes per piece; half as many estimate the error
P_TOL = 1e-6              # largest accepted |P(RULE_ORDER) - P(RULE_ORDER / 2)|
NEAR_ZONE_WEIGHT = 3.0    # constant rate multiplier inside the barrier zone
Z_ARG_CAP_AU = 100.0      # Z(n, z0) is evaluated at min(z0, cap)
Z_FLOOR_AU = 0.05         # lower floor for critical distances


@dataclass(frozen=True)
class PfiStepResult:
    """One PFI step n -> n+1: probability, its integral, and the rule's diagnostics."""

    p_t: float
    integral_value: float
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
                  field_vnm: float, z0_au):
    """Corrected ionization rate constant R(z0) in a.u. for step n -> n+1, z0 a float or array.

    Distances below the critical distance evaluate at the critical distance
    itself (the rate is only consumed on [z_c, z_max]).
    """
    if not np.all(np.greater(z0_au, 0.0)):
        raise DomainError(f"z0 must be > 0 a.u., got {z0_au}")
    if not field_vnm > 0.0:
        raise DomainError(f"field must be > 0 V/nm, got {field_vnm}")
    i_ha = to_hartree(species.ie_ev(n + 1))
    f_au = field_to_au(field_vnm)
    z_b = np.maximum(z0_au, _critical_z_au(species, env, n, field_vnm))
    z_eff = zmodel.z(n, np.minimum(z_b, Z_ARG_CAP_AU))
    b = np.maximum(i_ha - z_eff * f_au / i_ha - f_au * z_b, 0.0)
    i32 = i_ha ** 1.5
    pre = prefactor_a2nu(species, n) * 6.0 * math.pi * f_au
    zs2i = z_eff * math.sqrt(2.0 / i_ha)
    arg = -TWO52 * i32 / (3.0 * f_au) + zs2i / 3.0
    b32 = b ** 1.5
    denom = TWO52 * (i32 - b32)
    if np.any(denom <= 0.0):
        raise NumericalError("barrier denominator <= 0; clamp invariant violated")
    near = arg + (TWO52 * b32 / (3.0 * f_au)
                  + zs2i * np.log(16.0 * i_ha * i_ha / (z_eff * f_au)))
    return np.where(b > 0.0, NEAR_ZONE_WEIGHT * pre * np.exp(near) / denom,
                    pre * np.exp(arg) / (TWO52 * i32))[()]


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


@functools.cache
def _cosine_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s in [0, 1] and weights w: integral_a^b f ~= (b - a) sum(w f(a + (b - a) s)).

    Gauss-Legendre in t on [0, pi] with s = (1 - cos t)/2; its Jacobian cancels 1/sqrt ends.
    """
    x, w = leggauss(order)
    t = 0.5 * math.pi * (x + 1.0)
    return 0.5 * (1.0 - np.cos(t)), 0.25 * math.pi * w * np.sin(t)


def pfi_step_probability(species: SpeciesParams, env: Environment, zmodel: ZModel, n: int,
                         field_vnm: float) -> PfiStepResult:
    """Step n -> n+1: P_t = 1 - exp(-integral of R/u over the allowed part of [z_c, z_max])."""
    if not field_vnm > 0.0:
        raise DomainError(f"field must be > 0 V/nm, got {field_vnm}")
    if not 1 <= n < species.max_charge:
        raise ConfigError(f"step {n}->{n + 1} needs I_{n + 1} in the {species.name} ladder")
    z_c = _critical_z_au(species, env, n, field_vnm)
    if z_c >= Z_MAX_AU:
        return PfiStepResult(0.0, 0.0, 0.0, 0,
                             note="integration window empty (z_c >= z_max)")
    if n == 1:
        # The first-step kinetic energy has an exact double zero at the hump
        # position, so a launch at or below it stalls the ion there and the
        # dwell-time integral diverges: ionization is certain.
        z_hump = length_to_au(hump_position(field_vnm))
        if z_c <= z_hump < Z_MAX_AU:
            return PfiStepResult(1.0, math.inf, 0.0, 0,
                                 note="launch at or below the hump; dwell diverges")
    bohr = CONSTANTS.bohr_in_nm
    history_nm = [_critical_z_au(species, env, r, field_vnm) * bohr for r in range(1, n)]
    # Cut at the clamp distance (the near-zone weight switches off), the Z
    # argument cap (a kink) and the roots of k_n (1/sqrt(k) end points), then
    # drop the pieces inside the forbidden gap, which the ion never reaches.
    gap_au = tuple(x / bohr for x in forbidden_gap_nm(field_vnm, n, history_nm))
    cuts = (clamp_distance_au(species, env, zmodel, n, field_vnm), Z_ARG_CAP_AU) + gap_au
    edges = np.unique([z_c, Z_MAX_AU] + [p for p in cuts if z_c < p < Z_MAX_AU])
    allowed = (edges[:-1] < gap_au[0]) | (edges[1:] > gap_au[1])
    lo, hi = edges[:-1][allowed, None], edges[1:][allowed, None]
    (s_fine, w_fine), (s_coarse, w_coarse) = map(_cosine_rule, (RULE_ORDER, RULE_ORDER // 2))
    z = lo + (hi - lo) * np.concatenate((s_fine, s_coarse))
    k_ev = kinetic_energy_unchecked(env, field_vnm, n, history_nm, z * bohr)
    u_au = np.sqrt(2.0 * (k_ev / CONSTANTS.hartree_in_ev) / mass_amu_to_me(species.mass_amu))
    f = (hi - lo) * rate_constant(species, env, zmodel, n, field_vnm, z) / u_au
    value = float(np.sum(w_fine * f[:, :RULE_ORDER]))
    p_t = 1.0 - math.exp(-value)
    est_error = abs(math.exp(-float(np.sum(w_coarse * f[:, RULE_ORDER:]))) - math.exp(-value))
    if not (math.isfinite(value) and est_error <= P_TOL):
        raise NumericalError(
            f"{species.name} step {n}->{n + 1} at {field_vnm} V/nm: step integral "
            f"{value:.6e} not resolved (P error estimate {est_error:.2e} > {P_TOL:g})")
    return PfiStepResult(p_t, value, est_error, int(z.size))


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
