"""Seeded inputs for the benchmark workloads, each with its known answer.

The inputs are built from closed forms and checked with a small
hyperbolic-geometry oracle of their own (hyperboloid model), so a
defect in the program's distance conditions cannot change the inputs or
the answers they are checked against.  Only the threshold
configurations of the certify workload come from the library itself
(``standard_pentagram`` and ``ellipse_pentagram``), because their
closing orbits are what is being exercised.

The same seed gives the same inputs: everything is drawn from one
``random.Random(seed)`` in a fixed order.
"""

from __future__ import annotations

import math
import random

#: the criterion-9 band of the (t, r) family, swept at a 20x20 grid
SWEEP_T = (0.85, 0.95)
SWEEP_R = (-0.04, -0.006)
SWEEP_GRID = (20, 20)
SWEEP_ITERS = 2000
#: the set-up warm-up sweeps the same band on a 2x2 grid
WARMUP_GRID = (2, 2)

RHO_CLASSES = ("equilateral", "sandwich", "strict_inside", "tall_isosceles", "random")
RHO_PER_CLASS = 4
CERTIFY_PER_CLASS = 12
TAU_PER_REGIME = 2


# --- hyperbolic oracle (Klein model, hyperboloid formulas) -----------------

def delta_n(d: float, n: int) -> float:
    """Order-n threshold log((e^{nd}+1)/(e^{nd}-1)) of a base of length d."""
    return -math.log(math.tanh(0.5 * n * d))


def hyp_distance(a, b) -> float:
    num = 1.0 - (a[0] * b[0] + a[1] * b[1])
    den = math.sqrt((1.0 - a[0] ** 2 - a[1] ** 2) * (1.0 - b[0] ** 2 - b[1] ** 2))
    return math.acosh(max(1.0, num / den))


def drop(apex, a, b) -> float:
    """Hyperbolic distance from apex to the geodesic through a and b.

    The geodesic is the plane n.X = 0 with n = (a,1) x (b,1); for a unit
    timelike X the distance satisfies sinh(d) = |<X, Jn>|/|Jn|.
    """
    n1 = a[1] - b[1]
    n2 = b[0] - a[0]
    n3 = a[0] * b[1] - a[1] * b[0]
    dot = n1 * apex[0] + n2 * apex[1] + n3
    norm = math.sqrt((1.0 - apex[0] ** 2 - apex[1] ** 2) * (n1 * n1 + n2 * n2 - n3 * n3))
    return math.asinh(abs(dot) / norm)


def labelings(verts):
    """(base length, apex drop) for each choice of base pair."""
    out = []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        out.append((hyp_distance(verts[i], verts[j]), drop(verts[k], verts[i], verts[j])))
    return out


def is_sandwich(verts) -> bool:
    for base, delta in labelings(verts):
        d2, half1 = delta_n(base, 2), 0.5 * delta_n(base, 1)
        if min(d2, half1) - 1e-9 <= delta <= max(d2, half1) + 1e-9:
            return True
    return False


def is_strict_inside(verts) -> bool:
    return all(delta < delta_n(base, 2) for base, delta in labelings(verts))


def is_one_third(verts) -> bool:
    return any(delta >= delta_n(base, 1) - 1e-9 for base, delta in labelings(verts))


def _base_length(t: float) -> float:
    return math.log((1.0 + t) / (1.0 - t))


# --- triangle classes ---------------------------------------------------------

def equilateral(rng: random.Random):
    """Jittered equilateral triangle large enough for rho = 1/3."""
    while True:
        radius = rng.uniform(0.55, 0.8)
        turn = rng.uniform(0.0, 2.0 * math.pi)
        verts = []
        for k in range(3):
            ang = turn + 2.0 * math.pi * k / 3.0 + rng.uniform(-0.05, 0.05)
            rad = radius * rng.uniform(0.97, 1.03)
            verts.append((rad * math.cos(ang), rad * math.sin(ang)))
        if is_one_third(verts):
            return verts


def sandwich(rng: random.Random):
    """Apex drop inside the 2/5 sandwich of the vertical base (rho = 2/5)."""
    while True:
        t = rng.uniform(0.2, 0.95)
        v = rng.uniform(-0.6, 0.6)
        frac = rng.uniform(0.02, 0.98)
        d = _base_length(t)
        lo, hi = sorted((delta_n(d, 2), 0.5 * delta_n(d, 1)))
        x = math.tanh(lo + frac * (hi - lo)) * math.sqrt(1.0 - v * v)
        verts = [(0.0, t), (0.0, -t), (-x, v)]
        if is_sandwich(verts):
            return verts


def strict_inside(rng: random.Random):
    """Every apex strictly inside its order-2 threshold (rho > 2/5)."""
    while True:
        t = rng.uniform(0.05, 0.35)
        v = rng.uniform(-t / 2.0, t / 2.0)
        delta = rng.uniform(0.05, 0.95) * delta_n(_base_length(t), 2)
        x = math.tanh(delta) * math.sqrt(1.0 - v * v)
        verts = [(0.0, t), (0.0, -t), (-x, v)]
        if is_strict_inside(verts):
            return verts


def tall_isosceles(rng: random.Random):
    """Isosceles, base longer than log 9, apex beyond half the order-1
    threshold (rho < 2/5).  Returned as (t, r) for the ``--t/--r`` flags."""
    t = rng.uniform(0.802, 0.98)
    x = math.tanh(0.5 * delta_n(_base_length(t), 1) * rng.uniform(1.05, 2.5))
    return t, -x


def random_triangle(rng: random.Random, rmax: float = 0.92):
    """Uniform vertices in a disk of radius rmax, not too thin."""
    while True:
        verts = []
        while len(verts) < 3:
            x, y = rng.uniform(-rmax, rmax), rng.uniform(-rmax, rmax)
            if x * x + y * y < rmax * rmax:
                verts.append((x, y))
        (ax, ay), (bx, by), (cx, cy) = verts
        area2 = abs((bx - ax) * (cy - by) - (by - ay) * (cx - bx))
        sides = (math.dist(verts[0], verts[1]), math.dist(verts[1], verts[2]),
                 math.dist(verts[2], verts[0]))
        if area2 > 1e-3 and min(sides) > 5e-2:
            return verts


def tall_vertices(t: float, r: float):
    return [(0.0, t), (0.0, -t), (r, 0.0)]


def tau_query(rng: random.Random, regime: int, n: int) -> dict:
    """Segment (0, +-t), a query point and fold order n with `regime` roots.

    The count is 0, 1 or 2 as the point's distance from the base line is
    below, at or above the order-n threshold of the base.
    """
    t = rng.uniform(0.6, 0.95)
    y = rng.uniform(-0.3 * t, 0.3 * t)
    side = rng.choice((-1.0, 1.0))
    scale = (rng.uniform(0.3, 0.7), 1.0, rng.uniform(1.5, 3.0))[regime]
    k = delta_n(_base_length(t), n) * scale
    x = side * math.sqrt(1.0 - y * y) * math.tanh(k)
    return {"kind": "tau", "p1": (0.0, t), "p2": (0.0, -t), "pt": (x, y), "n": n,
            "want": regime}


# --- workload inputs ----------------------------------------------------------

def sweep_argv(seed: int, grid=SWEEP_GRID) -> list[str]:
    """``barbilliard sweep`` arguments over the band; the jitter seed is the
    benchmark seed, so every sweep of one run writes the same CSV."""
    return [
        "sweep",
        "--t", f"{SWEEP_T[0]}:{SWEEP_T[1]}:{grid[0]}",
        f"--r={SWEEP_R[0]}:{SWEEP_R[1]}:{grid[1]}",
        "--iters", str(SWEEP_ITERS),
        "--seed", str(seed),
    ]


def _vertices_flag(verts) -> list[str]:
    # one token: a value starting with "-" would read as an option
    return ["--vertices=" + ",".join(repr(c) for v in verts for c in v)]


def rho_inputs(seed: int, per_class: int = RHO_PER_CLASS) -> list[dict]:
    """Shuffled ``barbilliard rho`` calls, per_class of each class.

    ``want`` holds the class's known answer; random triangles have none
    and are checked for exit code and format only.
    """
    rng = random.Random(seed)
    items = []
    for _ in range(per_class):
        items.append({"cls": "equilateral", "argv": _vertices_flag(equilateral(rng)),
                      "want": {"rho_pq": [1, 3]}})
        items.append({"cls": "sandwich", "argv": _vertices_flag(sandwich(rng)),
                      "want": {"rho_pq": [2, 5], "verdict": "equals"}})
        items.append({"cls": "strict_inside", "argv": _vertices_flag(strict_inside(rng)),
                      "want": {"verdict": "above"}})
        t, r = tall_isosceles(rng)
        items.append({"cls": "tall_isosceles", "argv": ["--t", repr(t), f"--r={r!r}"],
                      "want": {"verdict": "below"}})
        items.append({"cls": "random", "argv": _vertices_flag(random_triangle(rng)),
                      "want": {}})
    rng.shuffle(items)
    return [dict(item, argv=["rho"] + item["argv"]) for item in items]


def certify_inputs(seed: int, per_class: int = CERTIFY_PER_CLASS,
                   tau_per_regime: int = TAU_PER_REGIME) -> list[dict]:
    """Shuffled batch of 2/5 verdicts over four classes plus tau_n queries.

    Threshold configurations are given by their parameters; the library
    builds the triangle during set-up.
    """
    rng = random.Random(seed)
    items = []
    for i in range(per_class):
        items.append({"kind": "verdict", "cls": "sandwich", "verts": sandwich(rng),
                      "want": "certified"})
        t = rng.uniform(0.3, 0.95)
        if i % 2 == 0:
            threshold = {"family": "standard", "t": t}
        else:
            threshold = {"family": "ellipse", "t": t, "v": rng.uniform(-0.9 * t, 0.9 * t),
                         "side": rng.choice(("left", "right"))}
        items.append({"kind": "verdict", "cls": "threshold", "threshold": threshold,
                      "want": "certified"})
        items.append({"kind": "verdict", "cls": "strict_inside", "verts": strict_inside(rng),
                      "want": "greater"})
        items.append({"kind": "verdict", "cls": "tall_isosceles",
                      "verts": tall_vertices(*tall_isosceles(rng)), "want": "less"})
    for regime in (0, 1, 2):
        for i in range(tau_per_regime):
            # n = 2 costs twice n = 1, so every batch holds both equally
            items.append(tau_query(rng, regime, 1 + i % 2))
    rng.shuffle(items)
    return items
