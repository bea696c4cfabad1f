"""The step kernel's P against an independent integrator.

The oracle rewrites the integrand R(z)/u(z) of a PFI step as scalar Python from the formulas in
the README's model notes, not through ``tunneling._rate_au``: at each point it picks the regime
from the sign of the barrier residual b, so no cut decides which formula a point gets. It
integrates with ``scipy.integrate.quad`` over [z_c, z_max] outside the forbidden gap that
``geometry`` gives, with the ends of the barrier zone and the Z-argument cap as break points only.
So it checks the quadrature, not the model: model choices that the kernel makes, such as taking
k_n at L = z under screening, the oracle makes too.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from pfikit import (CONSTANTS, Environment, NumericalError, ZModel,
                    critical_distance, tunneling)
from pfikit.geometry import _gap_nm

Z_MAX_AU, CAP_AU = 200.0, 100.0
SHIPPED_BOUND = 1e-10  # |P(kernel) - P(quad)| on the shipped set; not to be widened


def _oracle_steps(sp, env, zmodel, last, field):
    """P of the steps 1 -> 2 ... last -> last+1 at one field (V/nm), each from its own quad."""
    e_h, bohr, c_image = CONSTANTS.hartree_in_ev, CONSTANTS.bohr_in_nm, CONSTANTS.c_image_evnm
    f_au, mass_au = field / CONSTANTS.field_au_in_vnm, sp.mass_amu * CONSTANTS.amu_in_me
    two52 = 2.0 ** 2.5
    debt = CONSTANTS.c_s * math.sqrt(field)  # the hump escape, eV
    steps = []
    for n in range(1, last + 1):
        i_ha = sp.ie_ladder_ev[n] / e_h
        prefactor = i_ha / (sp.m_q * math.exp(2.0 / 3.0))  # 6 pi A^2 nu

        def integrand(z, n=n, i_ha=i_ha, prefactor=prefactor, debt=debt):
            z_eff = n + zmodel.c0 + zmodel.c1 / min(z, CAP_AU)
            b = i_ha - z_eff * f_au / i_ha - f_au * z
            exponent = z_eff * math.sqrt(2.0 / i_ha) / 3.0 - two52 * i_ha ** 1.5 / (3.0 * f_au)
            if b > 0.0:  # inside the barrier zone: barrier term, Coulomb factor, weight 3
                exponent += (two52 * b ** 1.5 / (3.0 * f_au)
                             + z_eff * math.sqrt(2.0 / i_ha) * math.log(16.0 * i_ha ** 2
                                                                         / (z_eff * f_au)))
                rate = 3.0 * prefactor * f_au * math.exp(exponent) / (
                    two52 * (i_ha ** 1.5 - b ** 1.5))
            else:
                rate = prefactor * f_au * math.exp(exponent) / (two52 * i_ha ** 1.5)
            l_nm = z * bohr
            k_ev = n * field * l_nm + n * n * c_image / l_nm - debt
            return rate / math.sqrt(2.0 * k_ev / (e_h * mass_au))

        z_c = critical_distance(sp, env, n, field).z_c_nm / bohr
        l_i = 0.5 * math.sqrt(CONSTANTS.w_image_evnm / field) / bohr
        if n == 1 and z_c <= l_i < Z_MAX_AU:
            steps.append(1.0)  # a launch at or below the hump stalls
        else:
            gap_lo, gap_hi = (float(end) / bohr
                              for end in _gap_nm(field, n, debt, 4.0 * n ** 3, n * n * c_image))
            spans = ([(z_c, min(gap_lo, Z_MAX_AU)), (max(gap_hi, z_c), Z_MAX_AU)]
                     if gap_hi > gap_lo else [(z_c, Z_MAX_AU)])
            # break points: the cap, where b is linear beyond it, and b's roots below it
            slope = i_ha - (n + zmodel.c0) * f_au / i_ha
            disc = slope * slope - 4.0 * zmodel.c1 * f_au * f_au / i_ha
            breaks = [CAP_AU, i_ha / f_au - (n + zmodel.c0 + zmodel.c1 / CAP_AU) / i_ha]
            if disc >= 0.0:
                breaks += [(slope + sign * math.sqrt(disc)) / (2.0 * f_au) for sign in (-1, 1)]
            integral = 0.0
            for lo, hi in spans:
                if hi > lo:
                    inside = [z for z in breaks if lo < z < hi] or None
                    integral += quad(integrand, lo, hi, points=inside, epsabs=0.0,
                                     epsrel=1e-11, limit=200)[0]
            steps.append(-math.expm1(-integral))
        z_c_nm = z_c * bohr  # the next step's debt counts this step's floored z_c
        debt += field * z_c_nm + (2 * n + 1) * c_image / z_c_nm
    return steps


def test_kernel_matches_quad_on_the_shipped_set(species_table, named_zmodels):
    # 5 species x 3 named Z models x phi {4.5, 4.9, 5.3} x lambda {0, 0.1} x 17 fields, every
    # step: 2754 values. K21 alone is within 6.3e-11 here; K31 was within 1.8e-14
    fields = np.linspace(5.0, 45.0, 17)
    differences = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for sp, (zname, zmodel), phi, lam in itertools.product(
                species_table.values(), named_zmodels.items(), (4.5, 4.9, 5.3), (0.0, 0.1)):
            env, last = Environment(phi, lam), min(sp.max_charge, 3) - 1
            kernel = tunneling._pfi_steps(sp, env, zmodel, last, fields)
            for i, field in enumerate(fields.tolist()):
                for n, p_quad in enumerate(_oracle_steps(sp, env, zmodel, last, field), 1):
                    differences[sp.name, zname, phi, lam, field, n] = abs(kernel[n - 1, i] - p_quad)
    assert len(differences) == 2754
    worst = max(differences, key=differences.get)
    assert differences[worst] <= SHIPPED_BOUND, (worst, differences[worst])


def test_every_accepted_value_of_a_harder_sample_is_within_the_tolerance(species_table):
    # ROADMAP item 14's harder set: 5 species x m_q {1, 3, 10, 100, 1e3, 1e5} x phi {2, 4.9, 8}
    # eV x (c0, c1) {(-0.9, 0), (0, 0), (1, 4.5), (3, 20)} x lambda {0, 0.1} nm, on 120 fields in
    # 0.5-60 V/nm; a seeded sample of 60 configurations at 8 fields each, every step, one kernel
    # call per field. A field the kernel refuses is skipped; every value it accepts must lie
    # within P_TOL of quad
    configurations = list(itertools.product(
        species_table.values(), (1, 3, 10, 100, 1000, 100000), (2.0, 4.9, 8.0),
        ((-0.9, 0.0), (0.0, 0.0), (1.0, 4.5), (3.0, 20.0)), (0.0, 0.1)))
    assert len(configurations) == 720
    rng = np.random.default_rng(20261020)
    grid = np.linspace(0.5, 60.0, 120)
    accepted = 0
    with warnings.catch_warnings():
        # quad reports "extremely bad integrand behavior" at a few fields of the harder set
        # (Si2 and Si4 with c0 = c1 = 0 at phi 2 eV), yet agrees with the kernel there within
        # 3e-10, far inside the tolerance checked here
        warnings.simplefilter("ignore", IntegrationWarning)
        for k in rng.choice(len(configurations), 60, replace=False):
            sp, m_q, phi, (c0, c1), lam = configurations[k]
            sp, env, zmodel = dataclasses.replace(sp, m_q=m_q), Environment(phi, lam), ZModel(
                c0, c1)
            last = min(sp.max_charge, 3) - 1
            for field in rng.choice(grid, 8, replace=False).tolist():
                try:
                    kernel = tunneling._pfi_steps(sp, env, zmodel, last, field)
                except NumericalError:
                    continue
                oracle = _oracle_steps(sp, env, zmodel, last, field)
                for n, (p_kernel, p_quad) in enumerate(zip(kernel, oracle), 1):
                    key = (sp.name, m_q, phi, c0, c1, lam, field, n)
                    assert abs(p_kernel - p_quad) <= tunneling.P_TOL, (key, p_kernel, p_quad)
                accepted += last
    assert accepted == 880  # the kernel refuses no field of this sample


@pytest.mark.xfail(raises=NumericalError, strict=True,
                   reason="gate refuses an accurate value")
@pytest.mark.parametrize("name, zname, phi, lam, n, field", [
    ("si4", "si3", 4.5, 0.2, 2, 19.5),
    ("si4", "si4", 4.5, 0.2, 2, 19.5),
    ("rh", "kingham", 4.0, 0.1, 1, 43.5),
    ("rh", "kingham", 4.3, 0.1, 1, 42.0),
])
def test_refused_steps_are_accurate(species_table, named_zmodels, monkeypatch,
                                    name, zname, phi, lam, n, field):
    # these exit 3: K21 and K31 both miss P_TOL on their embedded Gauss rules. With the gate
    # off, K31 lies within 3.3e-9 of quad (and within 4.3e-12 for Si4), but its estimate
    # reads 1.2e-6 to 2.4e-6
    sp, zmodel = species_table[name], named_zmodels[zname]
    env, last = Environment(phi, lam), min(sp.max_charge, 3) - 1
    p_quad = _oracle_steps(sp, env, zmodel, last, field)[n - 1]
    with monkeypatch.context() as patch:
        patch.setattr(tunneling, "RULE_ORDERS", tunneling.RULE_ORDERS[-1:])
        patch.setattr(tunneling, "P_TOL", math.inf)
        gate_off = tunneling._pfi_steps(sp, env, zmodel, last, field)[n - 1]
    assert abs(gate_off - p_quad) <= 1e-8
    p_kernel = tunneling._pfi_steps(sp, env, zmodel, last, field)[n - 1]
    assert abs(p_kernel - p_quad) <= tunneling.P_TOL
