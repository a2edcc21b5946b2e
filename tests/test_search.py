import math
import random

import numpy as np
import pytest

from barbilliard import search
from barbilliard.search import brentq, golden_min

scipy_optimize = pytest.importorskip("scipy.optimize")

#: the fixed tolerances that ``search.brentq`` passes to Brent's method
TOLS = {"xtol": 1e-13, "rtol": 8.9e-16}


def _functions(a, b, c):
    return [
        lambda x: (x - a) * (x - b) * (x + c),
        lambda x: math.sin(5.0 * x + a) - b / 3.0,
        lambda x: math.tanh(20.0 * (x - a)) + 1e-12 * b,
        lambda x: (x - a) ** 3,
        lambda x: math.floor(7.0 * (x - a)) + 0.5,
        lambda x: (x - a) if x < b else (x - a) + 0.1 * c,
    ]


def _solve(solver, *args, **kwargs):
    try:
        return ("root", solver(*args, **kwargs))
    except (ValueError, RuntimeError) as exc:
        return (type(exc).__name__,)


def _ours(f, lo, hi):
    """``_solve`` of the package's brentq given the end values, its zero
    alone once its second value is checked to be f at the zero."""
    got = _solve(brentq, f, lo, hi, f(lo), f(hi))
    if got[0] != "root":
        return got
    x, fx = got[1]
    assert fx == f(x), (x, fx)
    return ("root", x)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_scipy_bit_for_bit(monkeypatch, seed):
    """Brent's method at the package's tolerances, its step cap cut to 3
    on a quarter of the draws to reach the RuntimeError outcome."""
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(600):
        a, b, c = (rng.uniform(-1.0, 1.0) for _ in range(3))
        f = rng.choice(_functions(a, b, c))
        lo, hi = rng.uniform(-2.0, 1.0), rng.uniform(-1.0, 2.0)
        maxiter = rng.choice([100, 100, 100, 3])
        monkeypatch.setattr(search, "_BRENT_MAXITER", maxiter)
        want = _solve(scipy_optimize.brentq, f, lo, hi, maxiter=maxiter, **TOLS)
        got = _ours(f, lo, hi)
        assert got == want, (a, b, c, lo, hi, maxiter)
        outcomes.add(got[0])
    assert outcomes == {"root", "ValueError", "RuntimeError"}


def test_tolerances_are_the_package_constants():
    assert (search._BRENT_XTOL, search._BRENT_RTOL, search._BRENT_MAXITER) == (
        TOLS["xtol"], TOLS["rtol"], 100)


def test_zero_at_an_endpoint():
    for lo, hi in ((0.25, 1.0), (-1.0, 0.25)):
        f = lambda x: x - 0.25  # noqa: E731
        want = _solve(scipy_optimize.brentq, f, lo, hi, **TOLS)
        assert _ours(f, lo, hi) == want == ("root", 0.25)


def test_same_sign_bracket_raises():
    with pytest.raises(ValueError):
        scipy_optimize.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-13)
    with pytest.raises(ValueError):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, 2.0, 2.0)


def test_returns_plain_float_for_numpy_bounds():
    x, fx = brentq(lambda u: np.float64(u) - 0.3, np.float64(0.0), np.float64(1.0),
                   np.float64(-0.3), np.float64(0.7))
    assert (type(x), type(fx)) == (float, float)
    assert fx == x - 0.3


def test_nan_value_rejected():
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0, -0.75, math.nan)


@pytest.mark.parametrize("lo, hi, c", [(0.0, 1.0, 0.3141592653589793), (0.0, 1.0, 0.9),
                                       (-0.25, 0.5, 0.4999), (2.0, 3.5, 2.000001)])
def test_golden_min_locates_a_corner_minimum(lo, hi, c):
    """A corner, where no derivative vanishes, off the bracket's centre."""
    x, v = golden_min(lambda u: abs(u - c), lo, hi)
    assert abs(x - c) <= 1e-12
    assert v == abs(x - c)
