"""Tiny 1-D search helpers with absolute tolerances.

Library minimizers stop at a relative sqrt-epsilon floor, which is too
coarse for corner-shaped extremes (the map's iterates are only
one-sided differentiable at breakpoints).  Golden-section with an
absolute interval tolerance localizes those to machine precision.

Brent's method serves the zero engine of ``rotation`` alone, at fixed
tolerances: it polishes each sign change that a caller reads, in the one
place a located zero is read (``ZeroScan.read``).  Golden section no
longer serves the engine, which reads each tangency at the extremum its
pieces give; the benchmark's tracer still binds ``golden_min`` by name,
and it goes when the tracer drops it.
"""

from __future__ import annotations

import math
from typing import Callable

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: the interval width at which golden section stops, absolute
_GOLDEN_XTOL = 1e-12

#: Brent's absolute and relative bracket widths (the relative one just above
#: 4 ulp at 1, the least its bracket test honours) and its step cap
_BRENT_XTOL, _BRENT_RTOL, _BRENT_MAXITER = 1e-13, 8.9e-16, 100


def golden_min(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Minimize a unimodal f on [lo, hi] to an absolute interval width
    ``_GOLDEN_XTOL``."""
    a, b = lo, hi
    h = b - a
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    fc, fd = f(c), f(d)
    while h > _GOLDEN_XTOL:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INV_PHI * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = f(d)
    x = c if fc < fd else d
    return x, min(fc, fd)


def brentq(f: Callable[[float], float], xa: float, xb: float) -> float:
    """Zero of f in [xa, xb], where f(xa) and f(xb) differ in sign.

    Brent's method (Brent, 1973, ch. 4), step for step as the classic C
    ``brentq`` routine, so it returns the same floats to the bit.  The
    bracket shrinks to within ``_BRENT_XTOL + _BRENT_RTOL*|x|`` of the
    zero.  Raises ``ValueError`` for a same-sign bracket or a NaN value and
    ``RuntimeError`` when ``_BRENT_MAXITER`` steps do not converge.
    """

    def fval(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"f({x}) is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fval(xpre), fval(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # f values are nonzero and not NaN from here on, so `< 0` is the sign bit
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = fval(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations, value is {xcur}")
