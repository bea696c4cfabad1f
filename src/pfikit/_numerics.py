"""Numpy-only root finding, monotone interpolation and nonnegative least squares.

pfikit's three solvers, kept in pure Python and numpy so that importing the
package loads no compiled optimisation library.  Where a result must not move,
each follows the arithmetic of the established implementations that
``tests/test_numerics.py`` compares it against: the Brent iteration step for
step, and the PCHIP derivatives and polynomial in their evaluation order.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .errors import BracketError, NumericalError

BRENT_MAXITER = 100
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)


def brentq(f, a: float, b: float, f_a: float, f_b: float, xtol: float = 2e-12,
           rtol: float = 4.0 * EPS) -> tuple[float, float]:
    """Root of ``f`` in [a, b] by Brent's method (Brent 1973; the classic ``brentq`` steps).

    ``f_a`` and ``f_b`` are f(a) and f(b), which the caller has already
    evaluated and which must differ in sign.  Returns the root and f at the
    root.  Raises NumericalError when f returns NaN or the iteration does not
    converge within BRENT_MAXITER steps.
    """
    xpre, xcur, fpre, fcur = float(a), float(b), f_a, f_b
    xblk = fblk = spre = scur = 0.0
    if fpre == 0.0:
        return xpre, fpre
    if fcur == 0.0:
        return xcur, fcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketError(f"f({a}) = {fpre} and f({b}) = {fcur} have the same sign")
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)  # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise NumericalError(f"root finding: f({xcur}) is NaN")
    raise NumericalError(f"root finding did not converge in {BRENT_MAXITER} iterations "
                         f"(last iterate {xcur}, bracket [{min(xcur, xblk)}, "
                         f"{max(xcur, xblk)}])")


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
