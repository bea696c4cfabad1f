"""Numpy-only root finding, monotone interpolation and nonnegative least squares.

pfikit's solvers, kept in pure Python and numpy so that importing the package
loads no compiled optimisation library.  The PCHIP derivatives and polynomial
follow, in their evaluation order, the established implementation that
``tests/test_numerics.py`` compares them against.  Every root, the F50s and the
fits' parameter alike, comes from ``roots_lockstep``, a bracket solver that
evaluates several points per bracket in each round, so that one kernel call
serves a round of every problem; its roots lie within its tolerance of scipy's
Brent roots.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .errors import BracketError, NumericalError

EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)
MAXITER = 100  # rounds of ``roots_lockstep`` before a root fails
RTOL = 4.0 * EPS  # relative part of a root's tolerance, scipy's brentq default
DENSE = 9  # points a bracket of ``roots_lockstep`` is evaluated at in its first round
STENCIL = 3  # points a bracket of ``roots_lockstep`` is evaluated at in each later round
NEAREST = 9  # evaluated points, at most, that ``roots_lockstep`` interpolates through


def _inverse_roots(points) -> tuple[float, float]:
    """x at g = 0 of the polynomials x(g) through the (x, g) ``points`` and through all of them
    but the last (Lagrange form), in one pass: each term of the fewer points is a prefix of the
    product of the same term of all, so both sums get the bits of separate passes."""
    root = fewer = 0.0
    *head, (_, g_last) = points
    for i, (x_i, g_i) in enumerate(points):
        for j, (_, g_j) in enumerate(head):
            if j != i:
                x_i *= g_j / (g_j - g_i)
        if i < len(head):
            fewer += x_i
            x_i *= g_last / (g_last - g_i)
        root += x_i
    return root, fewer


def _estimate(known: dict, middle: float) -> tuple[float, float] | None:
    """Root of the inverse interpolation of the at most NEAREST evaluated points (x: f) nearest
    ``middle``, and its distance from the estimate of one point fewer; the nearest two or
    more on which f is finite and strictly monotone serve, and where none do, None."""
    near = sorted(known.items(), key=lambda point: abs(point[0] - middle))[:NEAREST]
    # no set of nearest points that holds one where f is not finite serves
    finite = next((m for m, (_, g) in enumerate(near) if not math.isfinite(g)), len(near))
    for m in range(finite, 1, -1):
        values = [g for _, g in sorted(near[:m])]
        steps = [v - u for u, v in zip(values, values[1:])]
        if min(steps) > 0.0 or max(steps) < 0.0:
            root, fewer = _inverse_roots(near[:m])
            return root, abs(root - fewer)
    return None


def _stencil(known: dict, a: float, b: float, even: bool, first: bool, tol: float) -> list:
    """Points in [a, b] for the next round on the bracket [a, b] (see ``roots_lockstep``), n of
    them, DENSE in the ``first`` round and STENCIL after it: unless ``even``, the interpolated
    root and its neighbours at a spacing h, in the first round a quarter of an even spread's
    (1/40 of the bracket for DENSE = 9), so that the next round's estimate interpolates through
    points close around the root, and later twice the estimate's distance from the one of a
    point fewer, at least tol / 2; else, or where the estimate is missing, outside the bracket
    or h no smaller than an even spread's, points that divide [a, b] into n + 1 equal parts."""
    n = DENSE if first else STENCIL
    part = (b - a) / (n + 1)
    guess = None if even else _estimate(known, 0.5 * (a + b))
    if guess is not None and a < guess[0] < b:
        x, h = guess[0], 0.25 * part if first else max(2.0 * guess[1], 0.5 * tol)
        if h < part:
            return [min(max(x + h * (j - (n - 1) / 2.0), a), b) for j in range(n)]
    return [a + part * (j + 1) for j in range(n)]


def _narrow(bracket: list, row: list, values: list):
    """Take a round's points ``row`` and their f ``values`` into ``bracket`` (see
    ``roots_lockstep``): at the lowest point where f is 0 or NaN, the root and f there or a
    NumericalError, else None with the bracket narrowed to its lowest sign change."""
    a, f_a, b, f_b, known, even = bracket
    points = sorted([(a, f_a), *zip(row, values), (b, f_b)])
    for x, g in points:
        if math.isnan(g):
            return NumericalError(f"root finding: f({x}) is NaN")
        if g == 0.0:
            return x, g
    known.update(zip(row, values))
    k = next(k for k, ((_, u), (_, v)) in enumerate(zip(points, points[1:]))
             if (u < 0.0) != (v < 0.0))
    (a, f_a), (b, f_b) = points[k:k + 2]
    bracket[:] = (a, f_a, b, f_b, known,
                  not even and (b - a) * (STENCIL + 1) > bracket[2] - bracket[0])
    return None


def roots_lockstep(f, cells, xtol: float) -> list:
    """Root of each cell (a, b, f(a), f(b)), a < b, f(a) and f(b) of opposite signs or one 0,
    which may add a dict of further x: f(x) to interpolate through, the cells in
    lockstep: each round calls f(live, xs) once, on the indices of the cells not yet solved
    and a (live, DENSE) array of points in the first round, (live, STENCIL) in each later
    one, one row a cell, and takes an array like xs of f there. A round evaluates each
    bracket at its inverse-interpolated root and on both sides of it, in the first round
    densely (see ``_stencil``), so that after it the estimate through the nearest NEAREST
    points usually lies within the tolerance of the root and one more round confirms it;
    or at points that divide it evenly where that estimate cannot serve or the previous
    round interpolated and shrank the bracket less than (STENCIL + 1)-fold, so every two
    rounds shrink it at least that much; the bracket becomes the lowest sign change among
    them. A cell is solved at an f of exactly 0,
    or by a bracket no wider than xtol + RTOL |a| (|b| if smaller), whose end with the smaller
    |f| is its root. Returns per cell the root and f there, or the error that ended it: a
    BracketError where f(a) and f(b) share a sign, a NumericalError where f is NaN or the
    bracket is not narrow enough after MAXITER rounds."""
    results, brackets = [None] * len(cells), {}
    for i, (a, b, f_a, f_b, *seen) in enumerate(cells):
        if f_a == 0.0 or f_b == 0.0:
            results[i] = (float(a), f_a) if f_a == 0.0 else (float(b), f_b)
        elif (f_a < 0.0) == (f_b < 0.0):
            results[i] = BracketError(f"f({a}) = {f_a} and f({b}) = {f_b} have the same sign")
        else:  # [a, f(a), b, f(b), the evaluated points, whether the next round spreads evenly]
            known = dict(*seen)
            known.update({float(a): f_a, float(b): f_b})
            brackets[i] = [float(a), f_a, float(b), f_b, known, False]
    for rounds in range(MAXITER + 1):
        live, rows = [], []  # the cells not yet solved and their points for this round
        for i, (a, f_a, b, f_b, known, even) in list(brackets.items()):
            tol = xtol + RTOL * min(abs(a), abs(b))
            if b - a <= tol:
                results[i] = (b, f_b) if abs(f_b) < abs(f_a) else (a, f_a)
                del brackets[i]
            else:
                live.append(i)
                rows.append(_stencil(known, a, b, even, rounds == 0, tol))
        if not brackets or rounds == MAXITER:
            break
        for i, row, values in zip(live, rows, np.asarray(f(live, np.array(rows)), float).tolist()):
            results[i] = _narrow(brackets[i], row, values)
            if results[i] is not None:
                del brackets[i]
    for i, (a, _, b, _, _, _) in brackets.items():
        results[i] = NumericalError(f"root finding did not converge in {MAXITER} rounds "
                                    f"(bracket [{a}, {b}])")
    return results


def _sign(v: float) -> int:
    return int(v > 0.0) - int(v < 0.0)  # numpy bools do not subtract


def _pchip_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """Fritsch-Carlson derivative at the node between slopes m0 and m1 (widths h0, h1)."""
    if m0 == 0.0 or m1 == 0.0 or (m0 > 0.0) != (m1 > 0.0):
        return 0.0
    w1 = 2.0 * h1 + h0
    w2 = h1 + 2.0 * h0
    return 1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2))


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point derivative at an end node (slope m0, width h0), kept
    shape preserving: 0 where its sign differs from m0's, at most 3 m0 where the
    two slopes differ in sign."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip(x, y, value: float) -> float:
    """Monotone cubic interpolant (PCHIP; Fritsch & Carlson 1980) of (x, y) at ``value``.

    ``x`` is strictly ascending and ``x[0] <= value <= x[-1]``.  Derivatives
    and end rule are the usual ``PchipInterpolator`` ones; two points interpolate
    linearly.  Only the two node derivatives of the interval holding
    ``value`` are computed.
    """
    n = len(x)
    if n == 2:
        return y[0] + (value - x[0]) / (x[1] - x[0]) * (y[1] - y[0])

    def interval(k: int) -> tuple[float, float]:
        h = x[k + 1] - x[k]
        return h, (y[k + 1] - y[k]) / h

    i = min(bisect.bisect_right(x, value) - 1, n - 2)
    h, m = interval(i)
    if i > 0:
        h_prev, m_prev = interval(i - 1)
    if i < n - 2:
        h_next, m_next = interval(i + 1)
    d0 = (_pchip_slope(h_prev, h, m_prev, m) if i > 0
          else _pchip_end_slope(h, h_next, m, m_next))
    d1 = (_pchip_slope(h, h_next, m, m_next) if i < n - 2
          else _pchip_end_slope(h, h_prev, m, m_prev))
    # Hermite coefficients, summed by ascending powers of s like a piecewise polynomial.
    t = (d0 + d1 - 2.0 * m) / h
    s = value - x[i]
    s2 = s * s
    return y[i] + d0 * s + ((m - d0) / h - t) * s2 + (t / h) * (s2 * s)


def _norm(v: np.ndarray) -> float:
    return math.sqrt(v @ v)


def nnls(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """argmin ||a x - b|| over x >= 0 for a full-column-rank ``a``; returns x, ||a x - b||.

    ``x`` is the unconstrained least-squares solution, which the caller has
    from the ``np.linalg.lstsq`` call that also gave it the rank of ``a``.
    Lawson & Hanson's active-set method (1974), started with every column
    passive: the unconstrained solution is the answer when it is
    nonnegative, and otherwise its positive part is the feasible start.
    Raises NumericalError after 3 n passes without meeting the optimality test.
    """
    m, n = a.shape
    if x.min() >= 0.0:
        return x, _norm(a @ x - b)
    passive = x > 0.0
    x = np.where(passive, x, 0.0)
    tol = 10.0 * max(m, n) * EPS * float(np.abs(a).max() * np.abs(b).sum())
    for _ in range(3 * n):
        # Move from x toward the least-squares solution s on the passive set,
        # freeing the columns that reach 0 first, until s is positive there.
        while True:
            s = np.zeros(n)
            s[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            blocking = passive & (s <= 0.0)
            if not blocking.any():
                break
            # x - s > 0 on blocking columns, except for 0 on a column just made passive
            ratios = x[blocking] / np.maximum(x[blocking] - s[blocking], TINY)
            x += ratios.min() * (s - x)
            passive[np.flatnonzero(blocking)[ratios.argmin()]] = False
            passive &= x > 0.0
            x[~passive] = 0.0
        x = s
        w = np.where(passive, -np.inf, a.T @ (b - a @ x))
        if not w.max() > tol:
            return x, _norm(a @ x - b)
        passive[w.argmax()] = True
    raise NumericalError(f"nonnegative least squares did not converge in {3 * n} passes")
