"""The numpy-only solvers against scipy's, which the ``test`` extra installs.

Brent's roots must be bit-identical (F50 values are printed to 9 digits and
fit results in full), the PCHIP inversion must agree to rounding, and NNLS to
a relative 1e-12.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq as scipy_brentq, nnls as scipy_nnls

from pfikit import KINGHAM_Z, NumericalError, evaluate_csr, find_f50, generate_curve
from pfikit._numerics import _pchip_end_slope, brentq, nnls, pchip
from pfikit.curves import _monotone_runs

ENVS = {"si": "si_env", "si2": "si_env", "si3": "si_env", "rh": "rh_env"}


def _bracketed_functions(rng, count):
    """Seeded monotone functions of four shapes, each with a root inside its bracket."""
    shapes = (
        lambda c, r: lambda x: (x - r) * (1.0 + c[0] ** 2) + abs(c[1]) * (x - r) ** 3,
        lambda c, r: lambda x: math.expm1(3.0 * c[0] * (x - r)),
        lambda c, r: lambda x: math.atan(10.0 ** c[1] * (x - r)),
        lambda c, r: lambda x: math.copysign(abs(x - r) ** (0.2 + abs(c[2])), x - r),
    )
    for k in range(count):
        c, r = rng.normal(size=3), rng.uniform(-3.0, 3.0)
        f = shapes[k % len(shapes)](c, r)
        a, b = r - rng.uniform(0.01, 5.0), r + rng.uniform(0.01, 5.0)
        yield f, a, b, 10.0 ** rng.uniform(-12.0, -3.0)


def test_brent_roots_are_bit_identical_to_scipy():
    rng = np.random.default_rng(20220711)
    compared = unconverged = 0
    for f, a, b, xtol in _bracketed_functions(rng, 2000):
        f_a, f_b = f(a), f(b)
        if f_a * f_b >= 0.0:  # exp of a zero coefficient is flat
            continue
        try:
            expected = scipy_brentq(f, a, b, xtol=xtol)
        except RuntimeError:
            with pytest.raises(NumericalError):
                brentq(f, a, b, f_a, f_b, xtol=xtol)
            unconverged += 1
            continue
        root, f_root = brentq(f, a, b, f_a, f_b, xtol=xtol)
        assert root == expected, (a, b, xtol)
        assert f_root == f(root)
        compared += 1
    assert compared >= 1900 and unconverged >= 1


@pytest.mark.parametrize("name", sorted(ENVS))
def test_brent_f50_is_bit_identical_to_scipy(species_table, request, name):
    # find_f50 solves inside the cell of its batched bracket; scipy on that cell gives
    # the same root bit for bit, and scipy on the whole range a root within 2e-9 V/nm
    species, env = species_table[name], request.getfixturevalue(ENVS[name])

    def g(f_vnm):
        return evaluate_csr(species, env, KINGHAM_Z, f_vnm) - 0.5

    result = find_f50(species, env, KINGHAM_Z)
    assert result.f50_vnm == scipy_brentq(g, *result.bracket_vnm, xtol=1e-9, rtol=8.9e-16)
    whole = scipy_brentq(g, 5.0, 45.0, xtol=1e-9, rtol=8.9e-16)
    assert abs(result.f50_vnm - whole) <= 2e-9


def test_brent_raises_numerical_error_past_maxiter():
    # a sign step bisected from 1e300 down to double resolution takes ~1000 steps
    def step(x):
        return math.copysign(1.0, x - 0.5)

    with pytest.raises(RuntimeError):
        scipy_brentq(step, -1e300, 1e300)
    with pytest.raises(NumericalError, match="did not converge in 100 iterations"):
        brentq(step, -1e300, 1e300, -1.0, 1.0)


def _assert_pchip_matches(x, y, values):
    reference = PchipInterpolator(x, y, extrapolate=False)
    for value in values:
        expected = float(reference(value))
        assert abs(pchip(x, y, value) - expected) <= 1e-14 * max(1.0, abs(expected)), value


@pytest.mark.parametrize("name", sorted(ENVS))
def test_pchip_matches_scipy_on_every_run_of_the_default_curves(species_table, request,
                                                                name):
    curve = generate_curve(species_table[name], request.getfixturevalue(ENVS[name]),
                           KINGHAM_Z)
    runs = [(i, j) for i, j in _monotone_runs(curve.csr) if j - i >= 2]
    assert runs
    for i, j in runs:
        x, y = curve.csr[i:j + 1], curve.field_grid_vnm[i:j + 1]
        if x[0] > x[-1]:
            x, y = x[::-1], y[::-1]
        mids = [0.5 * (p + q) for p, q in zip(x, x[1:])]
        thirds = [p + (q - p) / 3.0 for p, q in zip(x, x[1:])]
        _assert_pchip_matches(x, y, [*x, *mids, *thirds, x[0], x[-1]])


def test_pchip_matches_scipy_on_three_point_runs():
    rng = np.random.default_rng(3)
    for _ in range(300):
        x = np.cumsum(rng.uniform(0.01, 2.0, 3)).tolist()
        y = (np.cumsum(rng.uniform(0.01, 2.0, 3)) * rng.choice((-1.0, 1.0))).tolist()
        _assert_pchip_matches(x, y, [x[0], x[-1], *rng.uniform(x[0], x[-1], 5).tolist()])


def test_pchip_end_rule_branches():
    # one-sided end estimate (3 m0 - m1) / 2 = -1 has the wrong sign: it becomes 0
    assert _pchip_end_slope(1.0, 1.0, 1.0, 5.0) == 0.0
    _assert_pchip_matches([0.0, 1.0, 2.0], [0.0, 1.0, 6.0], [0.25, 0.5, 1.5])
    # slopes of opposite sign and (3 m0 - m1) / 2 = 6.5 > 3 m0: clamped to 3 m0
    assert _pchip_end_slope(1.0, 1.0, 1.0, -10.0) == 3.0
    _assert_pchip_matches([0.0, 1.0, 2.0], [0.0, 1.0, -9.0], [0.1, 0.5, 0.9, 1.5, 2.0])
    # a flat interval and a sign change inside zero the interior derivative
    _assert_pchip_matches([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 0.0], [0.5, 1.5, 2.5])
    _assert_pchip_matches([0.0, 1.0, 3.0, 4.0], [0.0, 2.0, -1.0, 0.0], [0.5, 2.0, 3.5])


def test_two_point_runs_interpolate_linearly():
    assert pchip((1.0, 3.0), (10.0, 20.0), 2.5) == 17.5


def test_nnls_matches_scipy_on_random_full_rank_problems():
    rng = np.random.default_rng(11)
    compared = binding = 0
    while compared < 3000:
        n = int(rng.integers(1, 7))
        m = int(rng.integers(n, 13))
        a = rng.random((m, n)) * (rng.random((m, n)) < 0.7)
        if np.linalg.matrix_rank(a) < n:
            continue
        x_true = rng.uniform(-0.5, 1.0, n) * 10.0 ** rng.uniform(0.0, 5.0)
        b = a @ x_true + rng.normal(0.0, 1.0, m) * rng.uniform(0.0, 10.0)
        expected, expected_norm = scipy_nnls(a, b)
        x, norm = nnls(a, b, np.linalg.lstsq(a, b, rcond=None)[0])
        assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max(), (a, b)
        # a residual far below |b| carries the rounding of a x - b at the scale of |b|
        assert norm == pytest.approx(expected_norm, rel=1e-12, abs=1e-12 * np.abs(b).max())
        assert (x >= 0.0).all()
        binding += bool((expected == 0.0).any())
        compared += 1
    assert binding >= 500
