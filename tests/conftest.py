import importlib.util
import math
import os

import numpy as np
import pytest

from barbilliard import ConvexBody, DiskPoint, TangentMap, Triangle


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def benchmark_inputs():
    """The benchmark's input generators, ``benchmark/inputs.py``."""
    path = os.path.join(os.path.dirname(SRC), "benchmark", "inputs.py")
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def src_env():
    """Environment for a child Python process that imports the package
    from this checkout's src/, whether or not it is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def delta_from_sides(alpha, beta, gamma):
    """Perpendicular distance from the apex to the base, from side lengths:
    the oracle of ``foot_and_delta``.

    ``gamma`` is the base, ``alpha`` and ``beta`` the sides adjacent to
    the far endpoints.  Tiny negative radicands from collinear limits are
    clamped to zero.
    """
    if alpha <= 0.0 or beta <= 0.0 or gamma <= 0.0:
        raise ValueError("side lengths must be positive")
    rad = (math.cosh(beta) - math.cosh(alpha - gamma)) * (
        math.cosh(alpha + gamma) - math.cosh(beta)
    )
    if rad < -1e-12:
        raise ValueError(f"sides ({alpha}, {beta}, {gamma}) violate the triangle inequality")
    return math.asinh(math.sqrt(max(0.0, rad)) / math.sinh(gamma))


def equidistant_x(k, y):
    """Abscissa of the locus at distance k from the vertical diameter.

    The locus is the ellipse x^2/tanh(k)^2 + y^2 = 1; the nonnegative
    abscissa at height y is sqrt(1-y^2) tanh(k).
    """
    if k <= 0.0:
        raise ValueError(f"locus distance must be positive, got {k}")
    if abs(y) >= 1.0:
        raise ValueError(f"height must satisfy |y| < 1, got {y}")
    return math.sqrt(1.0 - y * y) * math.tanh(k)


def mp_turn(P, a):
    """The half-turn about the Klein point P (an mpmath complex) of the
    boundary point at angle a, in turns, at mpmath's working precision."""
    import mpmath

    z = mpmath.expjpi(2 * a)
    return mpmath.arg((P - z) / (1 - mpmath.conj(P) * z)) / (2 * mpmath.pi)


def mp_lift(vertices, a, n):
    """F^n(a) lifted, for the body with these vertices, at mpmath's working
    precision.  Each step takes the least counterclockwise gap over the
    vertices' half-turns, the first chord that touches the body: no
    breakpoint table, so no rounding is shared with the package."""
    import mpmath

    ps = [mpmath.mpc(v.x, v.y) for v in vertices]
    a = mpmath.mpf(a)
    for _ in range(n):
        a += min((mp_turn(P, a) - a) % 1 for P in ps)
    return a


def mp_newton_step(R, w, h=1e-10):
    """|R'(w)| / |R''(w)| by central differences of step h, at mpmath's
    working precision: how far a witness w of a tangency lies from the
    extremum of R, in the units of w."""
    import mpmath

    w, h = mpmath.mpf(w), mpmath.mpf(h)
    lo, mid, hi = R(w - h), R(w), R(w + h)
    return abs((hi - lo) / (2 * h)) / abs((hi - 2 * mid + lo) / (h * h))


def disk_xy(rng, radius):
    """A point uniform in the disk of this radius, by rejection."""
    while True:
        x, y = rng.uniform(-radius, radius), rng.uniform(-radius, radius)
        if x * x + y * y < radius * radius:
            return x, y


def random_disk_points(rng, count, rmax=0.92):
    pts = []
    while len(pts) < count:
        x, y = rng.uniform(-rmax, rmax, 2)
        if x * x + y * y < rmax * rmax:
            pts.append(DiskPoint(float(x), float(y)))
    return pts


def random_triangle(rng, rmax=0.92, min_area=1e-3, min_side=5e-2):
    while True:
        p, q, r = random_disk_points(rng, 3, rmax)
        area2 = abs((q.x - p.x) * (r.y - q.y) - (q.y - p.y) * (r.x - q.x))
        sides = (p.euclid_to(q), q.euclid_to(r), r.euclid_to(p))
        if area2 > min_area and min(sides) > min_side:
            return Triangle(p, q, r)


def random_convex_polygon(rng, n=5, radius=0.6):
    angles = np.sort(rng.uniform(0, 1, n))
    if np.min(np.diff(np.concatenate([angles, [angles[0] + 1]]))) < 0.02:
        return random_convex_polygon(rng, n, radius)
    rr = rng.uniform(0.8 * radius, radius, n)
    pts = [
        DiskPoint(float(r * math.cos(2 * math.pi * a)), float(r * math.sin(2 * math.pi * a)))
        for a, r in zip(angles, rr)
    ]
    try:
        return ConvexBody.polygon(pts)
    except Exception:
        return random_convex_polygon(rng, n, radius)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def ex31_triangle():
    s3 = math.sqrt(3.0) / 4.0
    return Triangle(DiskPoint(-0.25, s3), DiskPoint(-0.25, -s3), DiskPoint(0.5, 0.0))


@pytest.fixture
def ex31_map(ex31_triangle):
    return TangentMap(ConvexBody.polygon(ex31_triangle.vertices))
