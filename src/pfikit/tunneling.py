"""Ionization rate constant R(z0), per-step PFI probability, and charge-state fractions.

The rate model: inside the residual-barrier zone, where b = I - ZF/I - F*z0 > 0
(Hartree units), the corrected WKB expression carries the barrier term, the
Coulomb power factor (16 I^2 / ZF)^(Z sqrt(2/I)) and a constant near-zone weight;
outside it all three are off, leaving a plateau. The step integral cuts its
window at both ends of the zone, so a piece lies wholly inside or outside it,
and the zone's terms are evaluated on the zone's pieces only. The Z-model
argument is capped at 100 a.u. (the polynomial's fit range), which makes the
plateau beyond the cap exactly independent of z0. One kernel call serves one or
several problems (species, environment, Z model): each problem's constants, built
once per problem, are rows beside its fields, so a problem gets the same bits alone
or in company.

Each piece is integrated by a ladder of Gauss-Kronrod rules, as in QUADPACK's qng:
K21 on every piece, then K31 on the pieces of each (step, column) whose K21 and
embedded G10 values of P differ by more than P_TOL or whose integral is not finite.
K21 resolves 6947 of the 6951 pairs of the curve-sweep benchmark's seed-0 pass, so
a curve costs about 0.8 of K31 on every piece. An escalated pair gets K31's value
bit for bit; fractions lie within 1.2e-9 of K31 alone on the shipped species and
Z models.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .constants import CONSTANTS
from .errors import ConfigError, DomainError, NumericalError
from .geometry import Environment, _crossing_nm, _gap_nm, _kinetic_ev, energy_debt_ev
from .species import SpeciesParams
from .zmodel import ZModel

TWO52 = 2.0 ** 2.5
E23 = math.exp(2.0 / 3.0)

# Numerical constants of the step integral and the rate model.
Z_MAX_AU = 200.0          # truncation of the z0 integral
RULE_ORDERS = (10, 15)    # Gauss orders n of the (2n+1)-node Kronrod rules K21 and K31: a rung
                          # integrates only the pairs that the rung before it refuses
P_TOL = 1e-6              # largest accepted |P(Kronrod) - P(its embedded Gauss rule)|, every rung
NEAR_ZONE_WEIGHT = 3.0    # constant rate multiplier inside the barrier zone
Z_ARG_CAP_AU = 100.0      # Z(n, z0) is evaluated at min(z0, cap)
PIECE_CHUNK = 256         # kept pieces per node pass: about 8k nodes, whose arrays fit in cache


@functools.lru_cache(maxsize=256)
def _step_constants(sp: SpeciesParams, env: Environment, zmodel: ZModel, last: int
                    ) -> np.ndarray:
    """The constant rows of the problem (sp, env, zmodel) for the steps 1 .. last, a read-only
    (18, last) array built once per problem: n and the n^2 C of k_n; I_{n+1} in Hartree, n + c0,
    c1, the rate's 6 pi A^2 nu = I_{n+1} / (m_q e^(2/3)), sqrt(2 / I), 16 I^2, I^1.5, 2^2.5 I^1.5
    and -2^2.5 I^1.5; 2 / (E_h m); Z(n, cap), the zone's 4 c1 and the gap's 4 n^3; and the
    crossing's I_{n+1} - phi in eV, lambda and 2n + 1. They are the factors that the kernel
    would otherwise compute on each call's planes and piece columns, in the same order, so the
    bits stay. Python floats round them as numpy does, but for I^1.5: numpy's power on arrays
    may round otherwise than Python's. A ladder without I_{n+1} reads it as infinite: z_c is
    infinite, so the step's window is empty, P = 0."""
    mass = 2.0 / (CONSTANTS.hartree_in_ev * (sp.mass_amu * CONSTANTS.amu_in_me))
    ladder = (sp.ie_ladder_ev + (math.inf,) * last)[1:last + 1]
    i_ha = np.array(ladder) / CONSTANTS.hartree_in_ev
    with np.errstate(over="ignore"):  # an I near the float limit empties its window anyway
        i_15 = i_ha ** 1.5
    steps = enumerate(zip(ladder, i_ha.tolist(), i_15.tolist()), 1)
    rows = np.array([(n, n * n * CONSTANTS.c_image_evnm, i, n + zmodel.c0, zmodel.c1,
                      i / (6.0 * math.pi * sp.m_q * E23) * 6.0 * math.pi, math.sqrt(2.0 / i),
                      16.0 * i * i, i32, TWO52 * i32, -TWO52 * i32, mass,
                      n + zmodel.c0 + zmodel.c1 / Z_ARG_CAP_AU, 4.0 * zmodel.c1, 4.0 * n ** 3,
                      ie - env.work_function_ev, env.screening_length_nm, 2 * n + 1)
                     for n, (ie, i, i32) in steps]).T
    rows.flags.writeable = False
    return rows


def _rate_au(step, f_au, z_au, zone: int):
    """R at distances z_au >= z_c and fields f_au (a.u.) of the steps whose
    ``_step_constants`` I (Ha), n + c0, c1, 6 pi A^2 nu, sqrt(2 / I), 16 I^2, I^1.5, 2^2.5 I^1.5
    and -2^2.5 I^1.5 are the rows of ``step``; all broadcast together, and their first ``zone``
    rows lie in the barrier zone b = I - Z F / I - F z > 0, the other rows beyond it."""
    i_ha, z_fixed, c1, pre, root_2_i, i16, i32, i32_up, i32_down = step
    # node-sized results overwrite spent arrays (here and in the node pass that calls this):
    # a fresh array costs about as much as the arithmetic that fills it
    z_eff = np.minimum(z_au, Z_ARG_CAP_AU)  # the capped z, then Z(n, z) = n + c0 + c1 / z
    z_eff = np.add(np.divide(c1, z_eff, out=z_eff), z_fixed, out=z_eff)
    zf_b = z_eff[:zone] * f_au[:zone]  # Z F, which only the barrier zone's terms use
    f3 = 3.0 * f_au
    zs2i = np.multiply(z_eff, root_2_i, out=z_eff)
    arg = zs2i / 3.0
    arg += i32_down / f3
    # the barrier zone adds its terms, the weight and the WKB denominator; b > 0 there up to
    # the rounding of the zone's ends, where it is floored at 0
    i_b = i_ha[:zone]
    b = np.maximum(i_b - zf_b / i_b - f_au[:zone] * z_au[:zone], 0.0)
    b32 = b * np.sqrt(b)
    denom = TWO52 * (i32[:zone] - b32)
    if np.count_nonzero(denom <= 0.0):
        raise NumericalError("barrier denominator <= 0; clamp invariant violated")
    arg[:zone] += TWO52 * b32 / f3[:zone] + zs2i[:zone] * np.log(i16[:zone] / zf_b)
    rate = np.exp(arg, out=arg)
    rate *= pre * f_au
    np.divide(NEAR_ZONE_WEIGHT * rate[:zone], denom, out=rate[:zone])
    rate[zone:] /= i32_up[zone:]
    return rate


def _clamp_distance_au(i_ha, f_au, z_fixed, four_c1, z_cap):
    """Ends z_lo, z_hi (a.u., arrays alike) of the barrier zone, where b(z) = I - Z(n, z) F / I
    - F z > 0, given 4 c1: both NaN where b < 0 at every z (numpy flags the invalid square
    root), and z_lo >= z_hi where the zone would lie above the cap.

    Below the Z-argument cap z b(z) = -F z^2 + (I - z_fixed F / I) z - c1 F / I (z_fixed =
    n + c0), and the zone lies between its roots; above it Z is z_cap and b falls linearly to 0
    at z_linear. So the zone ends at z_linear where b(cap) > 0, else at the larger root, capped.
    """
    z_linear = i_ha / f_au - z_cap / i_ha
    slope = i_ha - z_fixed * f_au / i_ha
    disc = slope * slope - four_c1 * f_au * f_au / i_ha
    root, two_f = np.sqrt(disc), 2.0 * f_au
    z_quadratic = (slope + root) / two_f
    z_hi = np.where(z_linear >= Z_ARG_CAP_AU, z_linear, np.minimum(z_quadratic, Z_ARG_CAP_AU))
    return (slope - root) / two_f, z_hi


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


def _pfi_steps(species, env, zmodel, last: int, field_vnm):
    """P of the steps 1 -> 2 ... last -> last+1 of a problem (species, env, zmodel) at a float
    or 1-D array of fields: one float per step, or a (last, fields) array; of several, given
    as sequences, at a (problems, fields) array: a (last, problems, fields) array. One array
    geometry pass over (steps, columns), a column being a problem at a field, cuts [z_c, z_max]
    into a (6, steps, columns) layout of pieces; the kept pieces of every step and column,
    those in the barrier zone first, go through the node pass under K21 PIECE_CHUNK at a time,
    and one bincount per rule sums each column's pieces. The pieces of the pairs that K21's gate
    refuses, in the same order, go through one more node pass under K31; the gate of the last
    rung decides, and a pair it refuses raises NumericalError."""
    one = isinstance(species, SpeciesParams)
    fields = np.array(field_vnm, dtype=float)
    scalar = not fields.ndim
    if one:  # one row of fields, of one field for a float
        species, env, zmodel = (species,), (env,), (zmodel,)
        fields = fields.reshape((1,) + (fields.shape or (1,)))
    finite_positive = (fields > 0.0) & (fields < math.inf)
    if fields.ndim != 2 or len(fields) != len(species) or not finite_positive.all():
        bad = fields[~finite_positive]
        raise DomainError(f"field must be finite and > 0 V/nm, a float or 1-D (one row per "
                          f"problem for several), got shape {np.shape(field_vnm)}"
                          + (f" holding {bad[0]}" if bad.size else ""))
    # (steps, columns) planes of the field in V/nm and a.u., the debt and each problem's
    # constant rows: equal shapes beat broadcasting in numpy
    rows = np.array([_step_constants(*problem, last) for problem in zip(species, env, zmodel)])
    plane = np.empty((3 + rows.shape[1], last) + fields.shape)
    plane[0], plane[1] = fields, fields / CONSTANTS.field_au_in_vnm
    plane[3:] = rows.transpose(1, 2, 0)[..., None]
    plane = plane.reshape(len(plane), last, fields.size)
    f_vnm, f_au, debt, n, n2_c, i_ha, z_fixed = plane[:7]
    z_cap, four_c1, four_n3, a_ev, lam, odd = plane[15:]
    bohr = CONSTANTS.bohr_in_nm
    # extreme inputs may overflow from here on: an infinite z_c empties the window, an infinite
    # zone end is clipped to z_max, a non-finite integral fails the check below, and a field
    # without a barrier zone has NaN zone ends, which fmax and fmin pass over; numpy need not warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # a vanished crossing (L_c = 0) has z_c at the floor; debts count the floored z_c
        _, z_c, l_i = _crossing_nm(a_ev, lam, odd, f_vnm)
        debt[...] = energy_debt_ev(f_vnm[0], z_c[:-1] * bohr)
        # edges, along a new first axis: z_c, both ends of the barrier zone (its terms and
        # weight switch on and off), the Z argument cap (a kink), the roots of k_n (1/sqrt(k)
        # end points) and z_max
        edges = np.empty((7,) + z_c.shape)
        edges[0] = z_c
        edges[1], edges[2] = _clamp_distance_au(i_ha, f_au, z_fixed, four_c1, z_cap)
        edges[3], edges[4:6], edges[6] = Z_ARG_CAP_AU, 0.0, Z_MAX_AU
        # k_1(L) = (sqrt(F L) - sqrt(C / L))^2: no gap (ends stay 0), but a launch at or below the
        # hump stalls, and P = 1; z_c >= z_max, like a cut outside [z_c, z_max], keeps no piece
        if last > 1:
            np.divide(_gap_nm(f_vnm[1:], n[1:], debt[1:], four_n3[1:], n2_c[1:]), bohr,
                      out=edges[4:6, 1:])
        l_i = l_i[0] / bohr
        hump = (z_c[0] <= l_i) & (l_i < Z_MAX_AU)
        edges[0, 0][hump] = Z_MAX_AU  # a stalled launch integrates nothing
        cuts = np.fmin(np.fmax(edges, edges[0]), Z_MAX_AU)
        cuts.sort(axis=0)
        # the non-empty pieces outside the forbidden gap, those inside the barrier zone first,
        # each part in (piece, step, field) order, which puts a field's pieces in ascending z
        # within each part; at: a piece's flat index in cuts, owner: its flat (step, field)
        lo, hi = cuts[:-1], cuts[1:]
        keep = (hi > lo) & ((lo < edges[4]) | (hi > edges[5]))
        near = keep & (lo >= edges[1]) & (hi <= edges[2])
        at = np.concatenate((near, keep > near)).ravel().nonzero()[0] % keep.size
        owner, zone = at % z_c.size, np.count_nonzero(near)
        lo = cuts.take(at)[:, None]
        width = cuts.take(at + z_c.size)[:, None] - lo
        columns = plane.reshape(len(plane), -1)[:15]
        # each field's zone pieces add up first, then its others, each in ascending z, which is
        # ascending overall unless the zone begins above z_c. An empty window leaves P = 0; a
        # stalled launch, whose integral is infinite, P = 1.
        for order in RULE_ORDERS:
            s_nodes, w_kronrod, w_gauss = _cosine_rule(order)
            sums = np.empty((2, owner.size))  # each kept piece's Kronrod and Gauss sums
            for start in range(0, owner.size, PIECE_CHUNK):  # chunks keep node arrays in cache
                chunk = slice(start, start + PIECE_CHUNK)
                f_vnm, f_au, debt, n, n2_c, *step, mass = columns[:, owner[chunk, None]]
                z = width[chunk] * s_nodes
                z += lo[chunk]
                k_ev = _kinetic_ev(f_vnm, n, z * bohr, debt, n2_c)
                k_ev *= mass
                u_au = np.sqrt(k_ev, out=k_ev)
                f = _rate_au(step, f_au, z, min(max(zone - start, 0), len(z)))
                f *= width[chunk]
                f /= u_au
                # einsum, not a BLAS product (its rounding can depend on a piece's row), so that
                # a field gets the same P in every call and every chunk
                np.einsum("pk,k->p", f, w_kronrod, out=sums[0, chunk])
                np.einsum("pk,k->p", f[:, :order], w_gauss, out=sums[1, chunk])
            by_pair = [np.bincount(owner, piece_sums, z_c.size).reshape(z_c.shape)
                       for piece_sums in sums]
            if order != RULE_ORDERS[0]:  # a later rung redoes the pairs the one before refuses
                for by_rung, redone in zip((value, coarse), by_pair):
                    np.copyto(by_rung, redone, where=redo)
            else:  # with no piece kept, bincount gives int zeros, whose P would be -0.0
                value, coarse = by_pair if owner.size else np.zeros((2,) + z_c.shape)
            p_t = -np.expm1(-value)
            est_error = np.abs(np.expm1(-coarse) + p_t)
            redo = ~(np.isfinite(value) & (est_error <= P_TOL))
            refused = np.count_nonzero(redo)  # any() costs more on small arrays
            if order == RULE_ORDERS[-1] or not refused:
                break
            # the next rung takes the pieces of the pairs this one refuses, in the same order
            again = redo.reshape(-1)[owner]
            zone = np.count_nonzero(again[:zone])
            owner, lo, width = owner[again], lo[again], width[again]
    if refused:  # name the first failing problem, then its step, then its field
        k, s, i = np.argwhere(redo.reshape((last,) + fields.shape).transpose(1, 0, 2))[0]
        c = k * fields.shape[1] + i
        raise NumericalError(f"{species[k].name} step {s + 1}->{s + 2} at "
                             f"{fields[k, i].item()} V/nm: step integral {value[s, c]:.6e} not "
                             f"resolved (P error estimate {est_error[s, c]:.2e} > {P_TOL:g})")
    p_t[0][hump] = 1.0
    if not one:
        return p_t.reshape((last,) + fields.shape)
    return p_t[:, 0].tolist() if scalar else p_t


def pfi_step_probability(species: SpeciesParams, env: Environment, zmodel: ZModel, n: int,
                         field_vnm):
    """Step n -> n+1: P_t = 1 - exp(-integral of R/u over the allowed part of [z_c, z_max]),
    a float or an array like the field (a float or a 1-D array of fields)."""
    if not 1 <= n < species.max_charge:
        raise ConfigError(f"step {n}->{n + 1} needs I_{n + 1} in the {species.name} ladder")
    return _pfi_steps(species, env, zmodel, n, field_vnm)[n - 1]


def charge_fractions(species, env, zmodel, field_vnm) -> tuple:
    """Sequential charge-state fractions f_1 .. f_min(K, 3), floats or arrays like the field;
    the last state absorbs the tail. All steps, and problems given as to ``_pfi_steps``, go
    through one ``_pfi_steps`` call, with K the longest ladder's; a problem with a shorter
    ladder reads 0 in the states it cannot reach."""
    one = isinstance(species, SpeciesParams)
    if not one and not 0 < len(species) == len(env) == len(zmodel):
        raise ConfigError(f"species, environment and Z model sequences of lengths {len(species)}"
                          f", {len(env)} and {len(zmodel)}: one of each a problem, at least one")
    last = min(max(sp.max_charge for sp in ((species,) if one else species)), 3) - 1
    fractions, survive = [], 1.0
    for p_t in _pfi_steps(species, env, zmodel, last, field_vnm):
        fractions.append(survive * (1.0 - p_t))
        survive *= p_t
    return (*fractions, survive)
