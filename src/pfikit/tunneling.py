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

from .constants import CONSTANTS
from .errors import ConfigError, DomainError, NumericalError
from .geometry import Environment, critical_distance
from .kinematics import energy_debt_ev, forbidden_gap_nm, kinetic_energy_unchecked
from .species import SpeciesParams
from .zmodel import ZModel

TWO52 = 2.0 ** 2.5
E23 = math.exp(2.0 / 3.0)

# Numerical constants of the step integral and the rate model.
Z_MAX_AU = 200.0          # truncation of the z0 integral
RULE_ORDER = 15           # Gauss order n of the 2n+1-node Kronrod rule used on each piece
P_TOL = 1e-6              # largest accepted |P(Kronrod) - P(its embedded Gauss rule)|
NEAR_ZONE_WEIGHT = 3.0    # constant rate multiplier inside the barrier zone
Z_ARG_CAP_AU = 100.0      # Z(n, z0) is evaluated at min(z0, cap)
Z_FLOOR_AU = 0.05         # lower floor for critical distances

NOTE_EMPTY = "integration window empty (z_c >= z_max)"
NOTE_HUMP = "launch at or below the hump; dwell diverges"


@dataclass(frozen=True)
class PfiStepResult:
    """One PFI step n -> n+1: P, its integral by the Kronrod rule and the P error estimate
    against the embedded Gauss rule (floats or arrays like the field), the nodes of the whole
    call (2 RULE_ORDER + 1 per kept piece), and the early-out every field took, else ""."""

    p_t: float | np.ndarray
    integral_value: float | np.ndarray
    est_error: float | np.ndarray
    n_evaluations: int
    note: str = ""


def prefactor_a2nu(species: SpeciesParams, n: int) -> float:
    """A^2 nu = I_{n+1} / (6 pi m_q e^(2/3)) in a.u. for step n -> n+1."""
    if not 1 <= n < species.max_charge:
        raise ConfigError(f"step {n}->{n + 1} needs I_{n + 1} in the {species.name} ladder")
    return species.ie_ev(n + 1) / CONSTANTS.hartree_in_ev / (6.0 * math.pi * species.m_q * E23)


def _rate_au(zmodel: ZModel, n, i_ha, a2nu, f_au, z_au):
    """R at distances z_au >= z_c for step n with I_{n+1} = i_ha (Hartree) and A^2 nu = a2nu,
    at fields f_au (a.u.); all broadcast together."""
    z_eff = zmodel.z(n, np.minimum(z_au, Z_ARG_CAP_AU))
    zf = z_eff * f_au
    b = np.maximum(i_ha - zf / i_ha - f_au * z_au, 0.0)
    i32 = i_ha ** 1.5
    pre = a2nu * 6.0 * math.pi * f_au
    zs2i = z_eff * np.sqrt(2.0 / i_ha)
    arg = -TWO52 * i32 / (3.0 * f_au) + zs2i / 3.0
    b32 = b * np.sqrt(b)
    denom = TWO52 * (i32 - b32)
    if (denom <= 0.0).any():
        raise NumericalError("barrier denominator <= 0; clamp invariant violated")
    # one exponential; the barrier zone adds its terms, weight and WKB denominator
    near = b > 0.0
    rate = pre * np.exp(np.where(near, arg + (TWO52 * b32 / (3.0 * f_au)
                                              + zs2i * np.log(16.0 * i_ha * i_ha / zf)), arg))
    return np.where(near, NEAR_ZONE_WEIGHT * rate / denom, rate / (TWO52 * i32))[()]


def _clamp_distance_au(zmodel: ZModel, n, i_ha, f_au, z_c):
    """Distance z* >= z_c (a.u., arrays alike) where b(z) = I - Z(n, z) F / I - F z reaches 0.

    Below the Z-argument cap z b(z) = -F z^2 + (I - (n + c0) F / I) z - c1 F / I, and
    z* is its larger root; above the cap b is linear in z. z* = z_c where b(z_c) <= 0.
    """
    z_fixed = n + zmodel.c0
    b_c = i_ha - (z_fixed + zmodel.c1 / np.minimum(z_c, Z_ARG_CAP_AU)) * f_au / i_ha - f_au * z_c
    z_linear = i_ha / f_au - (z_fixed + zmodel.c1 / Z_ARG_CAP_AU) / i_ha
    slope = i_ha - z_fixed * f_au / i_ha
    disc = slope * slope - 4.0 * zmodel.c1 * f_au * f_au / i_ha
    z_quadratic = (slope + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * f_au)
    return np.where(b_c <= 0.0, z_c, np.where(z_linear >= Z_ARG_CAP_AU, z_linear, z_quadratic))


def _kronrod_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x in [-1, 1] of the (2n + 1)-point Gauss-Kronrod rule, its n Gauss nodes first,
    with the Kronrod weights and the n-point Gauss weights on those first nodes.

    Laurie's algorithm (Math. Comp. 66 (1997) 1133) extends the Legendre recurrence
    coefficients b_k = k^2/(4k^2 - 1) (the a_k of a symmetric weight are all 0) by mixed
    moments s, t to the Kronrod Jacobi matrix; eigh gives nodes and weights (Golub-Welsch,
    with the weight's integral 2 over [-1, 1]).
    """
    # b_k up to ceil(3n/2) are known; the second loop fills the rest of the 2n
    k = np.arange(2 * n + 1)
    b = np.where(k <= (3 * n + 1) // 2, k * k / (4.0 * k * k - 1.0), 0.0)
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - 1 - m + k
        s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    jacobi = np.diag(np.sqrt(b[1:]), -1)
    (x, v), (_, v_gauss) = np.linalg.eigh(jacobi), np.linalg.eigh(jacobi[:n, :n])
    # the ascending Kronrod nodes alternate, and every second one is a Gauss node
    gauss_first = np.r_[1:2 * n:2, 0:2 * n + 1:2]
    return x[gauss_first], 2.0 * v[0, gauss_first] ** 2, 2.0 * v_gauss[0] ** 2


@functools.cache
def _cosine_rule(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes s in [0, 1] of the ``_kronrod_rule(order)``, its Gauss nodes first, with the
    Kronrod weights w and the Gauss weights on the first ``order`` nodes:
    integral_a^b f ~= (b - a) sum(w f(a + (b - a) s)).

    Both rules are in t on [0, pi] with s = (1 - cos t)/2; its Jacobian cancels 1/sqrt ends.
    """
    x, w_kronrod, w_gauss = _kronrod_rule(order)
    t = 0.5 * math.pi * (x + 1.0)
    jacobian = 0.25 * math.pi * np.sin(t)
    return 0.5 * (1.0 - np.cos(t)), jacobian * w_kronrod, jacobian[:order] * w_gauss


def _pfi_steps(species: SpeciesParams, env: Environment, zmodel: ZModel, steps: range,
               field_vnm) -> list[PfiStepResult]:
    """The steps n -> n+1, n in ``steps``, at a float or 1-D array of fields: array
    geometry over (steps, fields) cuts [z_c, z_max] into a (steps, fields, 5) layout of
    pieces, and the kept pieces of every step and field go through one node pass."""
    fields = np.array(field_vnm, dtype=float, ndmin=1)
    if fields.ndim != 1 or not (np.isfinite(fields).all() and (fields > 0.0).all()):
        raise DomainError(f"field must be finite and > 0 V/nm, a float or 1-D, got {field_vnm}")
    per_step = np.array([(n, prefactor_a2nu(species, n),
                          species.ie_ev(n + 1) / CONSTANTS.hartree_in_ev) for n in steps])
    bohr, f_au = CONSTANTS.bohr_in_nm, fields / CONSTANTS.field_au_in_vnm
    # edges: z_c, then the cuts at the clamp distance (the near-zone weight switches
    # off), the Z argument cap (a kink) and the roots of k_n (1/sqrt(k) end points)
    edges = np.zeros((len(steps), fields.size, 6))
    edges[..., 2], edges[..., 5] = Z_ARG_CAP_AU, Z_MAX_AU
    debt, hump, history_nm = np.empty(edges.shape[:2]), np.zeros(edges.shape[:2], bool), []
    for n in range(1, steps[-1] + 1):
        geo = critical_distance(species, env, n, fields)
        z_c = np.maximum(geo.z_c_nm / bohr, Z_FLOOR_AU)
        if n in steps:
            s = n - steps[0]
            edges[s, :, 0], debt[s] = z_c, energy_debt_ev(fields, history_nm)
            if n == 1:
                # k_1(L) = (sqrt(F L) - sqrt(C / L))^2: no forbidden gap, but a launch at or
                # below the hump stalls there, the dwell diverges, and ionization is certain
                l_i = geo.l_i_nm / bohr
                hump[s] = (z_c <= l_i) & (l_i < Z_MAX_AU)
            else:
                edges[s, :, 3], edges[s, :, 4] = forbidden_gap_nm(fields, n, debt[s])
        history_nm.append(z_c * bohr)
    edges[..., 1] = _clamp_distance_au(zmodel, per_step[:, :1], per_step[:, 2:], f_au,
                                       edges[..., 0])
    gap = edges[..., 3:5] = edges[..., 3:5] / bohr
    # z_c >= z_max empties the window; a cut outside [z_c, z_max] leaves an empty piece
    empty = edges[..., 0] >= Z_MAX_AU
    early = empty | hump
    edges = np.sort(np.minimum(np.maximum(edges, edges[..., :1]), Z_MAX_AU), axis=-1)
    lo, hi = edges[..., :-1], edges[..., 1:]
    # keep the non-empty pieces outside the forbidden gap, of fields without an early out
    keep = (hi > lo) & ((lo < gap[..., :1]) | (hi > gap[..., 1:])) & ~early[..., None]
    step_of, field_of, _ = np.nonzero(keep)
    lo, width = lo[keep][:, None], (hi - lo)[keep][:, None]
    n, a2nu, i_ha = per_step[step_of].T[:, :, None]
    f_vnm, f_au = fields[field_of][:, None], f_au[field_of][:, None]
    s_nodes, w_kronrod, w_gauss = _cosine_rule(RULE_ORDER)
    z = lo + width * s_nodes
    # extreme model inputs can overflow here; the check below turns a
    # non-finite integral into a NumericalError, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k_ev = kinetic_energy_unchecked(f_vnm, n, (), z * bohr, debt[step_of, field_of][:, None])
        m_au = species.mass_amu * CONSTANTS.amu_in_me
        u_au = np.sqrt(k_ev * (2.0 / (CONSTANTS.hartree_in_ev * m_au)))
        f = width * _rate_au(zmodel, n, i_ha, a2nu, f_au, z) / u_au
    # einsum, not a BLAS product (its rounding can depend on a piece's row), so that a
    # field gets the same P in every call; each field's pieces add up in ascending order.
    # An empty window leaves P = 0; a stalled launch has an infinite integral and P = 1.
    owner = step_of * fields.size + field_of
    value, coarse = (np.where(hump, math.inf, np.bincount(owner, np.einsum(
        "pk,k->p", nodes, weights), hump.size).reshape(hump.shape))
        for nodes, weights in ((f, w_kronrod), (f[:, :RULE_ORDER], w_gauss)))
    p_t = -np.expm1(-value)
    est_error = np.abs(np.expm1(-coarse) + p_t)
    resolved = early | np.isfinite(value) & (est_error <= P_TOL)
    if not resolved.all():
        s, i = np.argwhere(~resolved)[0]
        raise NumericalError(
            f"{species.name} step {steps[s]}->{steps[s] + 1} at {fields[i].item()} V/nm: "
            f"step integral {value[s, i]:.6e} not resolved (P error estimate "
            f"{est_error[s, i]:.2e} > {P_TOL:g})")
    if not np.ndim(field_vnm):
        p_t, value, est_error = p_t[:, 0].tolist(), value[:, 0].tolist(), est_error[:, 0].tolist()
    evals = np.bincount(step_of, minlength=len(steps)) * s_nodes.size
    # a call without fields took no early-out, although all() over no fields is true
    taken = fields.size > 0
    notes = [NOTE_EMPTY if taken and e else NOTE_HUMP if taken and h else ""
             for e, h in zip(empty.all(axis=1).tolist(), hump.all(axis=1).tolist())]
    return [PfiStepResult(*step) for step in zip(p_t, value, est_error, evals.tolist(), notes)]


def pfi_step_probability(species: SpeciesParams, env: Environment, zmodel: ZModel, n: int,
                         field_vnm) -> PfiStepResult:
    """Step n -> n+1: P_t = 1 - exp(-integral of R/u over the allowed part of [z_c, z_max]).

    field_vnm is a float or a 1-D array of fields, and P, its integral and error estimate
    are floats or arrays like it; the note is the early-out every field took, else "".
    """
    return _pfi_steps(species, env, zmodel, range(n, n + 1), field_vnm)[0]


def charge_fractions(species: SpeciesParams, env: Environment, zmodel: ZModel,
                     field_vnm) -> tuple:
    """Sequential charge-state fractions f_1 .. f_min(K, 3), floats or arrays like the field;
    the last state absorbs the tail. All steps go through one ``_pfi_steps`` call."""
    fractions, survive = [], 1.0
    for step in _pfi_steps(species, env, zmodel, range(1, min(species.max_charge, 3)),
                           field_vnm):
        fractions.append(survive * (1.0 - step.p_t))
        survive *= step.p_t
    fractions.append(survive)
    return tuple(fractions)
