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

NOTE_EMPTY = "integration window empty (z_c >= z_max)"
NOTE_HUMP = "launch at or below the hump; dwell diverges"


@dataclass(frozen=True)
class PfiStepResult:
    """One PFI step n -> n+1: P, its integral and error estimate (floats or arrays like the
    field), the nodes of the whole call, and the early-out every field took, else ""."""

    p_t: float | np.ndarray
    integral_value: float | np.ndarray
    est_error: float | np.ndarray
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
                  field_vnm, z0_au):
    """Corrected ionization rate constant R(z0) in a.u. for step n -> n+1.

    field_vnm and z0_au are floats or arrays that broadcast together. Distances below
    the critical distance evaluate at it (the rate is only consumed on [z_c, z_max]).
    """
    if not np.all(np.greater(z0_au, 0.0)):
        raise DomainError(f"z0 must be > 0 a.u., got {z0_au}")
    z_c, f_au = np.vectorize(lambda f: (_critical_z_au(species, env, n, f), field_to_au(f)),
                             otypes=[float, float])(field_vnm)
    return _rate_au(species, zmodel, n, f_au, np.maximum(z0_au, z_c))


def _rate_au(species: SpeciesParams, zmodel: ZModel, n: int, f_au, z_au):
    """R at distances z_au >= z_c for fields f_au (a.u.) that broadcast against them."""
    i_ha = to_hartree(species.ie_ev(n + 1))
    z_eff = zmodel.z(n, np.minimum(z_au, Z_ARG_CAP_AU))
    b = np.maximum(i_ha - z_eff * f_au / i_ha - f_au * z_au, 0.0)
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


def clamp_distance_au(species: SpeciesParams, zmodel: ZModel, n: int, field_vnm: float,
                      z_c: float) -> float:
    """Distance z* >= z_c where the barrier residual b(z) = I - Z(n, z) F / I - F z reaches 0;
    z_c is the floored critical distance of the step (``_critical_z_au``).

    Below the Z-argument cap z b(z) = -F z^2 + (I - (n + c0) F / I) z - c1 F / I, and
    z* is its larger root; above the cap b is linear in z. z* = z_c where b(z_c) <= 0.
    """
    i_ha = to_hartree(species.ie_ev(n + 1))
    f_au = field_to_au(field_vnm)
    z_fixed = n + zmodel.c0
    if i_ha - (z_fixed + zmodel.c1 / min(z_c, Z_ARG_CAP_AU)) * f_au / i_ha - f_au * z_c <= 0.0:
        return z_c
    z_linear = i_ha / f_au - (z_fixed + zmodel.c1 / Z_ARG_CAP_AU) / i_ha
    if z_linear >= Z_ARG_CAP_AU:
        return z_linear
    slope = i_ha - z_fixed * f_au / i_ha
    disc = slope * slope - 4.0 * zmodel.c1 * f_au * f_au / i_ha
    return (slope + math.sqrt(max(disc, 0.0))) / (2.0 * f_au)


@functools.cache
def _cosine_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s in [0, 1] and weights w: integral_a^b f ~= (b - a) sum(w f(a + (b - a) s)).

    Gauss-Legendre in t on [0, pi] with s = (1 - cos t)/2; its Jacobian cancels 1/sqrt ends.
    """
    x, w = leggauss(order)
    t = 0.5 * math.pi * (x + 1.0)
    return 0.5 * (1.0 - np.cos(t)), 0.25 * math.pi * w * np.sin(t)


def _allowed_pieces(species: SpeciesParams, env: Environment, zmodel: ZModel, n: int,
                    field_vnm: float) -> tuple[str, list[tuple[float, ...]]]:
    """At one field: an early-out note, or "" and the allowed pieces of [z_c, Z_MAX_AU],
    each (lo a.u., hi a.u., field V/nm, field a.u., *completed-step crossing distances nm).
    """
    z_c = _critical_z_au(species, env, n, field_vnm)
    if z_c >= Z_MAX_AU:
        return NOTE_EMPTY, []
    # The first-step kinetic energy has an exact double zero at the hump
    # position, so a launch at or below it stalls the ion there and the
    # dwell-time integral diverges: ionization is certain.
    if n == 1 and z_c <= length_to_au(hump_position(field_vnm)) < Z_MAX_AU:
        return NOTE_HUMP, []
    bohr = CONSTANTS.bohr_in_nm
    history_nm = tuple(_critical_z_au(species, env, r, field_vnm) * bohr for r in range(1, n))
    # Cut at the clamp distance (the near-zone weight switches off), the Z
    # argument cap (a kink) and the roots of k_n (1/sqrt(k) end points), then
    # drop the pieces inside the forbidden gap, which the ion never reaches.
    gap_lo, gap_hi = (x / bohr for x in forbidden_gap_nm(field_vnm, n, history_nm))
    cuts = (clamp_distance_au(species, zmodel, n, field_vnm, z_c), Z_ARG_CAP_AU, gap_lo, gap_hi)
    edges = sorted({z_c, Z_MAX_AU, *(p for p in cuts if z_c < p < Z_MAX_AU)})
    return "", [(lo, hi, field_vnm, field_to_au(field_vnm), *history_nm)
                for lo, hi in zip(edges, edges[1:]) if lo < gap_lo or hi > gap_hi]


def pfi_step_probability(species: SpeciesParams, env: Environment, zmodel: ZModel, n: int,
                         field_vnm) -> PfiStepResult:
    """Step n -> n+1: P_t = 1 - exp(-integral of R/u over the allowed part of [z_c, z_max]).

    field_vnm is a float or a 1-D array of fields. The allowed pieces of all
    fields go through one node pass, and their sums are added up per field.
    """
    fields = np.array(field_vnm, dtype=float, ndmin=1)
    if fields.ndim != 1 or not all(0.0 < f < math.inf for f in fields.tolist()):
        raise DomainError(f"field must be finite and > 0 V/nm, a float or 1-D, got {field_vnm}")
    if not 1 <= n < species.max_charge:
        raise ConfigError(f"step {n}->{n + 1} needs I_{n + 1} in the {species.name} ladder")
    notes, owner, pieces = [], [], []
    for i, f_vnm in enumerate(fields.tolist()):
        note, own = _allowed_pieces(species, env, zmodel, n, f_vnm)
        notes.append(note)
        owner += [i] * len(own)
        pieces += own
    # an empty window leaves P = 0; a stalled launch has an infinite integral and P = 1
    value = np.array([math.inf if note == NOTE_HUMP else 0.0 for note in notes])
    coarse = value.copy()
    if pieces:
        (s_fine, w_fine), (s_coarse, w_coarse) = map(_cosine_rule, (RULE_ORDER, RULE_ORDER // 2))
        lo, hi, f_vnm, f_au, *history_nm = np.array(pieces).T[:, :, None]
        z = lo + (hi - lo) * np.concatenate((s_fine, s_coarse))
        # extreme model inputs can overflow here; the check below turns a
        # non-finite integral into a NumericalError, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            k_ev = kinetic_energy_unchecked(f_vnm, n, history_nm, z * CONSTANTS.bohr_in_nm)
            u_au = np.sqrt(2.0 * (k_ev / CONSTANTS.hartree_in_ev)
                           / mass_amu_to_me(species.mass_amu))
            f = (hi - lo) * _rate_au(species, zmodel, n, f_au, z) / u_au
            value += np.bincount(owner, f[:, :RULE_ORDER] @ w_fine, fields.size)
            coarse += np.bincount(owner, f[:, RULE_ORDER:] @ w_coarse, fields.size)
    p_t = -np.expm1(-value)
    est_error = np.abs(np.expm1(-coarse) + p_t)
    for f_vnm, note, v, err in zip(fields.tolist(), notes, value.tolist(), est_error.tolist()):
        if not (note or math.isfinite(v) and err <= P_TOL):
            raise NumericalError(
                f"{species.name} step {n}->{n + 1} at {f_vnm} V/nm: step integral "
                f"{v:.6e} not resolved (P error estimate {err:.2e} > {P_TOL:g})")
    if np.ndim(field_vnm) == 0:
        p_t, value, est_error = p_t[0].item(), value[0].item(), est_error[0].item()
    early = set(notes)
    return PfiStepResult(p_t, value, est_error, len(pieces) * (RULE_ORDER + RULE_ORDER // 2),
                         note=early.pop() if len(early) == 1 else "")


def charge_fractions(species: SpeciesParams, env: Environment, zmodel: ZModel,
                     field_vnm) -> tuple:
    """Sequential charge-state fractions f_1 .. f_min(K, 3), floats or arrays like the field;
    the last state absorbs the tail."""
    fractions = []
    survive = 1.0
    for n in range(1, min(species.max_charge, 3)):
        step = pfi_step_probability(species, env, zmodel, n, field_vnm)
        fractions.append(survive * (1.0 - step.p_t))
        survive *= step.p_t
    fractions.append(survive)
    return tuple(fractions)
