"""The numpy-only solvers against scipy's, which the ``test`` extra installs.

The lockstep bracket solver's roots must lie within its tolerance of scipy's
Brent roots (F50 values are printed to 9 digits), the PCHIP inversion must
agree to rounding, and NNLS to a relative 1e-12.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq as scipy_brentq, nnls as scipy_nnls

from pfikit import (KINGHAM_Z, BracketError, Environment, NumericalError, ZModel,
                    charge_fractions, evaluate_csr, find_f50, generate_curve)
from pfikit._numerics import (DENSE, NEAREST, RTOL, STENCIL, _pchip_end_slope, nnls, pchip,
                              roots_lockstep)
from pfikit import _numerics, curves
from pfikit.curves import _monotone_runs, find_f50s

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


@pytest.mark.parametrize("name", sorted(ENVS))
def test_brent_f50_is_bit_identical_to_scipy(species_table, request, name):
    # find_f50 solves inside the cell of its batched bracket; scipy on that cell gives
    # a root within 1e-9 V/nm, and scipy on the whole range a root within 2e-9 V/nm
    species, env = species_table[name], request.getfixturevalue(ENVS[name])

    def g(f_vnm):
        return evaluate_csr(species, env, KINGHAM_Z, f_vnm) - 0.5

    result = find_f50(species, env, KINGHAM_Z)
    assert abs(result.f50_vnm - scipy_brentq(g, *result.bracket_vnm, xtol=1e-9)) <= 1e-9
    whole = scipy_brentq(g, 5.0, 45.0, xtol=1e-9)
    assert abs(result.f50_vnm - whole) <= 2e-9


def test_f50s_lie_near_scipys_root_across_species_models_and_environments(
        species_table, named_zmodels, monkeypatch):
    # Si to Si4 and Rh under the named Z models at three work functions and two screening
    # lengths: each F50 within 1e-9 V/nm of scipy's Brent root in its bracket cell, at a
    # mean of at most 3.4 kernel calls per root (the bracket, the dense round, one more)
    problems = [(species_table[name], Environment(phi, lam), zmodel)
                for name in ("si", "si2", "si3", "si4", "rh")
                for zmodel in named_zmodels.values()
                for phi in (4.5, 4.9, 5.3) for lam in (0.0, 0.1)]
    calls, charge_fractions = [], curves.charge_fractions
    monkeypatch.setattr(curves, "charge_fractions",
                        lambda *args: calls.append(1) or charge_fractions(*args))
    results = [find_f50(*problem) for problem in problems]
    monkeypatch.undo()
    assert len(problems) == 90 and len(calls) <= 3.4 * len(problems)
    for (species, env, zmodel), result in zip(problems, results):
        expected = scipy_brentq(lambda f: evaluate_csr(species, env, zmodel, f) - 0.5,
                                *result.bracket_vnm, xtol=1e-9)
        assert abs(result.f50_vnm - expected) <= 1e-9, (species.name, zmodel, env)


def _lockstep_values(funcs):
    """f of ``roots_lockstep`` for cells whose functions are ``funcs``."""
    return lambda live, xs: [[funcs[i](x) for x in row] for i, row in zip(live, xs.tolist())]


def test_lockstep_roots_lie_in_a_narrow_bracket_near_scipys_root():
    # cells of every shape in seeded batches of 1 to 60, one xtol a batch: f changes sign
    # within w = xtol + 4 eps |x| of each root x, which lies within w of scipy's Brent root;
    # the first round evaluates DENSE points of each cell, each later one STENCIL points of
    # each cell still unsolved
    rng = np.random.default_rng(20221019)
    cells = list(_bracketed_functions(rng, 2000))
    compared = 0
    while cells:
        size = int(rng.integers(1, 61))
        batch, cells, xtol = cells[:size], cells[size:], 10.0 ** rng.uniform(-12.0, -3.0)
        values, rounds = _lockstep_values([g for g, _, _, _ in batch]), []

        def f(live, xs):
            assert xs.shape == (len(live), STENCIL if rounds else DENSE)
            rounds.append(live)
            return values(live, xs)

        results = roots_lockstep(f, [(a, b, g(a), g(b)) for g, a, b, _ in batch], xtol)
        assert all(rounds) and all(set(r) >= set(s) for r, s in zip(rounds, rounds[1:]))
        for (g, a, b, _), (x, g_x) in zip(batch, results):
            w = xtol + RTOL * abs(x)
            assert a <= x <= b and g_x == g(x)
            assert g_x == 0.0 or g(x - w) * g_x <= 0.0 or g(x + w) * g_x <= 0.0, (a, b, xtol)
            try:
                expected = scipy_brentq(g, a, b, xtol=xtol)
            except RuntimeError:
                continue
            assert abs(x - expected) <= w, (a, b, xtol)
            compared += 1
    assert compared >= 1900


def test_a_failing_lockstep_cell_fails_alone():
    # among cells that solve, a cell whose f is NaN inside it, a cell whose ends share a sign
    # and a sign step that takes more than MAXITER rounds to resolve from 1e300 fail with
    # their errors, and every other cell takes the root it takes alone
    rng = np.random.default_rng(5)
    good = [cell for cell in _bracketed_functions(rng, 40)
            if cell[0](cell[1]) * cell[0](cell[2]) < 0.0]
    funcs = [g for g, _, _, _ in good] + [lambda x: x - 0.5 if x in (0.0, 1.0) else math.nan,
                                          abs, lambda x: math.copysign(1.0, x - 0.5)]
    cells = [(a, b, g(a), g(b)) for g, a, b, _ in good] + [
        (0.0, 1.0, -0.5, 0.5), (1.0, 2.0, 1.0, 2.0), (-1e300, 1e300, -1.0, 1.0)]
    *solved, nan, flat, step = roots_lockstep(_lockstep_values(funcs), cells, xtol=2e-12)
    assert isinstance(nan, NumericalError) and "is NaN" in str(nan)
    assert isinstance(flat, BracketError)
    assert isinstance(step, NumericalError) and "did not converge in 100" in str(step)
    assert len(solved) == len(good) >= 30
    for g, cell, result in zip(funcs, cells, solved):
        assert result == roots_lockstep(_lockstep_values([g]), [cell], xtol=2e-12)[0]


def test_lockstep_f50s_equal_their_single_solves(species_table, named_zmodels):
    # Si, Si2, Si3 and Si4 under four Z models, at two work functions and two screening
    # lengths: the lockstep F50 of each equals its own find_f50 in every result field
    problems = [(species_table[name], Environment(phi, lam), zmodel)
                for name in ("si", "si2", "si3", "si4")
                for zmodel in (*named_zmodels.values(), ZModel(0.5, 2.0))
                for phi in (4.6, 5.1) for lam in (0.0, 0.1)]
    together = find_f50s(*zip(*problems))
    assert len(together) == len(problems)
    for problem, result in zip(problems, together):
        alone = find_f50(*problem)
        assert (result.f50_vnm, result.bracket_vnm, result.achieved_csr) == (
            alone.f50_vnm, alone.bracket_vnm, alone.achieved_csr), problem


def _two_pass_inverse_root(points) -> float:
    """x at g = 0 of the polynomial x(g) through the (x, g) ``points`` (Lagrange form), one
    pass per point set: the reference for ``_inverse_roots``, which takes two sets in one."""
    root = 0.0
    for i, (x_i, g_i) in enumerate(points):
        for j, (_, g_j) in enumerate(points):
            if j != i:
                x_i *= g_j / (g_j - g_i)
        root += x_i
    return root


def _two_pass_estimate(known: dict, middle: float):
    """``_estimate`` from two passes of the reference: every set of the nearest m points
    checked, m from NEAREST down, and the estimate of one point fewer solved again."""
    near = sorted(known.items(), key=lambda point: abs(point[0] - middle))[:NEAREST]
    for m in range(len(near), 1, -1):
        values = [g for _, g in sorted(near[:m])]
        steps = [v - u for u, v in zip(values, values[1:])]
        if all(map(math.isfinite, values)) and (min(steps) > 0.0 or max(steps) < 0.0):
            root = _two_pass_inverse_root(near[:m])
            return root, abs(root - _two_pass_inverse_root(near[:m - 1]))
    return None


def test_one_pass_estimates_keep_the_bits_of_two_passes():
    # seeded point sets of five kinds: monotone, monotone with -inf below a threshold (a log
    # ratio where f2 = 0), monotone with NaNs, random, and flat in parts; x on a 1/8 grid with
    # the middle on a 1/16 grid, so that points often tie in distance from it. Both estimates,
    # and the distance between them, equal the reference bit for bit
    rng = np.random.default_rng(20221020)
    served = ties = 0
    for k in range(4000):
        x = np.unique(rng.integers(-40, 40, int(rng.integers(1, 25)))) / 8.0
        root = rng.uniform(-4.0, 4.0)
        kind = k % 5
        with np.errstate(divide="ignore", invalid="ignore"):
            g = (np.tanh(x - root) * rng.choice((-1.0, 1.0)) if kind == 0
                 else np.log(np.maximum(x - root + 2.0, 0.0)) if kind == 1
                 else np.where(rng.uniform(size=x.size) < 0.2, np.nan, x - root) if kind == 2
                 else rng.normal(size=x.size) if kind == 3
                 else np.round(x - root, 0))
        known = dict(zip(x.tolist(), g.tolist()))
        middle = int(rng.integers(-80, 80)) / 16.0
        distances = [abs(v - middle) for v in known]
        ties += len(set(distances)) < len(distances)
        expected = _two_pass_estimate(known, middle)
        assert _numerics._estimate(known, middle) == expected, (known, middle)
        served += expected is not None
        points = list(zip(x.tolist(), rng.normal(size=x.size).tolist()))
        if len(points) > 1:
            assert _numerics._inverse_roots(points) == (
                _two_pass_inverse_root(points), _two_pass_inverse_root(points[:-1]))
    assert served > 2000 and ties > 1000


def test_one_pass_estimates_keep_the_bits_of_two_passes_on_bracket_ends(species_table):
    # a bracket's ends tie in distance from its middle, where every round's estimate centres;
    # the known points of an F50 solve (the probes and a dense round) give the same estimate
    # through one pass as through two
    probes = np.linspace(5.0, 45.0, curves.F50_PROBES)
    f1, f2, *_ = charge_fractions(species_table["si"], Environment(4.9), KINGHAM_Z, probes)
    known = dict(zip(probes.tolist(), curves._log_ratio(f1, f2).tolist()))
    a, b = 17.5, 20.0
    assert abs(a - 0.5 * (a + b)) == abs(b - 0.5 * (a + b))
    estimate = _numerics._estimate(known, 0.5 * (a + b))
    assert estimate is not None and estimate == _two_pass_estimate(known, 0.5 * (a + b))
    dense = np.linspace(estimate[0] - 0.25, estimate[0] + 0.25, DENSE)
    f1, f2, *_ = charge_fractions(species_table["si"], Environment(4.9), KINGHAM_Z, dense)
    known.update(zip(dense.tolist(), curves._log_ratio(f1, f2).tolist()))
    for a, b in ((dense[3], dense[5]), (dense[4], dense[5]), (a, b)):
        assert _numerics._estimate(known, 0.5 * (a + b)) == _two_pass_estimate(
            known, 0.5 * (a + b))


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
