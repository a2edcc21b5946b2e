"""Period-5 orbit machinery and distance-condition checkers.

A triangle whose apex sits at hyperbolic distance between the two
thresholds (the order-2 threshold and half the order-1 threshold of the
base) has rotation number 2/5, and its boundary orbits close into a
pentagram winding twice around the circle.  This module builds the
explicit closing orbits of the canonical families, detects period-5
orbits of arbitrary triangles, counts chord incidences, and evaluates
all the distance conditions that decide 1/3, 2/5, above or below.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .circlemap import ConvexBody, TangentMap
from .errors import OutOfRange, PointOnLine, PreconditionFailed
from .geometry import (
    DiskPoint,
    IdealPoint,
    Triangle,
    _sides_and_drops,
    angular_distance,
    chord_through,
    delta_n,
)
from .rotation import MAX_Q, RotationResult, _circle_zeros, classify_rho, scan_winding_zeros

LOG3 = math.log(3.0)
LOG9 = math.log(9.0)

#: closure and incidence tolerance for periodic orbits
CLOSURE_TOL = 1e-9


class Pentagram(NamedTuple):
    """A period-5 boundary orbit in traversal order."""

    points: tuple[IdealPoint, ...]

    @classmethod
    def build(cls, tmap: TangentMap, points) -> "Pentagram":
        """Validate the orbit against the map.

        The map must send each point to the next within the closure
        tolerance, and sorted-by-angle positions must advance by 2 mod 5.
        """
        pts = tuple(points)
        if len(pts) != 5:
            raise PreconditionFailed("a pentagram needs exactly five points")
        for i in range(5):
            miss = angular_distance(tmap.eval_angle(pts[i].angle), pts[(i + 1) % 5].angle)
            if miss > CLOSURE_TOL:
                raise PreconditionFailed(f"orbit does not close: step {i} misses by {miss:.3e}")
        angles = [p.angle for p in pts]
        rank = {i: r for r, i in enumerate(sorted(range(5), key=lambda i: angles[i]))}
        for i in range(5):
            if rank[(i + 1) % 5] != (rank[i] + 2) % 5:
                raise PreconditionFailed("orbit does not advance by 2 mod 5")
        return cls(pts)


class OrbitSet(NamedTuple):
    """All period-5 orbits found for one map, plus the raw zero count."""

    orbits: tuple[Pentagram, ...]
    zero_count: int


class TauResult(NamedTuple):
    """Chord-incidence count for the 2n-fold segment map."""

    n: int
    count: int
    roots: tuple[IdealPoint, ...]


class LabelingReport(NamedTuple):
    """Distance data for one choice of base pair (i, j) and apex k.  The
    ``rho`` and ``verify`` JSON prints every field, under its own name."""

    pair: tuple[int, int]
    apex: int
    d_base: float
    delta: float
    delta1: float
    delta2: float
    half_delta1: float
    sandwich: bool
    orientation: str  # "inner_to_half" | "half_to_inner"
    one_third: bool
    strict_inside: bool
    isosceles: bool


class ConditionReport(NamedTuple):
    """Per-labeling distance conditions and their aggregate verdicts."""

    labelings: tuple[LabelingReport, LabelingReport, LabelingReport]
    one_third: bool
    two_fifths_sandwich: bool
    all_strictly_inside: bool
    isosceles_above: bool
    isosceles_below: bool


class ConjectureVerdict(NamedTuple):
    """Condition vs certified rotation number for one triangle: rho equals,
    lies above or lies below 2/5, as ``classify_rho``'s 2/5 scan proved."""

    condition: bool
    rho_verdict: str  # "equals" | "above" | "below"
    consistent: bool
    report: ConditionReport
    rotation: RotationResult


def triangle_map(tri: Triangle) -> TangentMap:
    return TangentMap(ConvexBody.polygon(tri.vertices))


def _standard_vertices(t: float) -> tuple[DiskPoint, DiskPoint, DiskPoint]:
    """(0, t), (0, -t) and ((t-1)/(t+1), 0), in that order.

    ``Triangle`` reorders this clockwise input, so callers that need the
    apex or the base ends use these points, not the triangle's fields.
    """
    return DiskPoint(0.0, t), DiskPoint(0.0, -t), DiskPoint((t - 1.0) / (t + 1.0), 0.0)


def standard_pentagram(t: float) -> tuple[Triangle, Pentagram]:
    """Canonical closing configuration at half the order-1 threshold.

    The triangle is (0, t), (0, -t), ((t-1)/(t+1), 0); its apex distance
    equals half the order-1 threshold of the base, and the five closed
    -form boundary points form a pentagram through the triangle sides.
    """
    if not 0.0 < t < 1.0:
        raise OutOfRange(f"parameter must satisfy 0 < t < 1, got {t}")
    tri = Triangle(*_standard_vertices(t))
    tmap = triangle_map(tri)
    den = t * t + 1.0
    pts = [
        IdealPoint.from_xy(1.0, 0.0),
        IdealPoint.from_xy((t * t - 1.0) / den, 2.0 * t / den),
        IdealPoint.from_xy(0.0, -1.0),
        IdealPoint.from_xy(0.0, 1.0),
        IdealPoint.from_xy((t * t - 1.0) / den, -2.0 * t / den),
    ]
    return tri, Pentagram.build(tmap, pts)


def ellipse_pentagram(t: float, v: float, side: str = "left") -> tuple[Triangle, Pentagram]:
    """Closing configuration with the apex on the order-2 threshold ellipse.

    The apex is placed at height v on the ellipse of points whose
    distance to the vertical base equals the order-2 threshold.  The map
    walks the boundary orbit from the contact point at height v on the
    apex's side, and ``Pentagram.build`` checks that the five points kept
    close.
    """
    if not 0.0 < t < 1.0:
        raise OutOfRange(f"parameter must satisfy 0 < t < 1, got {t}")
    if abs(v) > t:
        raise OutOfRange(f"apex height must satisfy |v| <= t, got {v}")
    if side not in ("left", "right"):
        raise OutOfRange(f"side must be 'left' or 'right', got {side!r}")
    s = math.sqrt(1.0 - v * v)
    t2 = t * t
    u_mag = s * (1.0 - t2) * (1.0 - t2) / (t2 * t2 + 6.0 * t2 + 1.0)
    if u_mag <= 1e-15:
        raise OutOfRange(f"ellipse abscissa collapsed to zero: t={t} is too close to 1")
    sign = 1.0 if side == "right" else -1.0
    tri = Triangle(DiskPoint(0.0, t), DiskPoint(0.0, -t), DiskPoint(sign * u_mag, v))
    tmap = triangle_map(tri)
    # the two steps back into the contact point stretch by up to 1e4 each
    # as t nears 1, so a walk that closes through them misses CLOSURE_TOL;
    # the five points from the third step on close through shrinking steps
    return tri, Pentagram.build(tmap, tmap.orbit(IdealPoint.from_xy(sign * s, v), 7)[3:])


def detect_period5(tmap: TangentMap) -> OrbitSet:
    """Find every period-5, winding-2 boundary orbit of a triangle map:
    the zeros of F^5 - id - 2 from its Mobius pieces, grouped by orbit.
    Each orbit is walked from the first unclaimed zero, the only one it
    reads, and claims each zero whose stretch holds one of its points.
    Raises PreconditionFailed where that scan cannot resolve."""
    if tmap.body.kind != "polygon" or len(tmap.body.vertices) != 3:
        raise PreconditionFailed("period-5 detection applies to triangle bodies")
    scan = scan_winding_zeros(tmap, 2, 5)
    remaining = list(scan.roots)
    orbits = []
    while remaining:
        pts = tmap.orbit(IdealPoint(scan.read(remaining.pop(0))[0]), 4)
        remaining = [z for z in remaining if not any(z.holds(p.angle) for p in pts)]
        orbits.append(Pentagram.build(tmap, pts))
    return OrbitSet(orbits=tuple(orbits), zero_count=len(scan.roots))


def _chord_distance(pt: DiskPoint, w: float, b: float) -> float:
    """Distance from pt to the chord between angles w and b (turns): the
    chord is the line x . u = cos(pi (b - w)), u at angle (w + b) / 2."""
    m = math.pi * (w + b)
    return abs(math.cos(math.pi * (b - w)) - pt.x * math.cos(m) - pt.y * math.sin(m))


def tau_n(p1: DiskPoint, p2: DiskPoint, pt: DiskPoint, n: int) -> TauResult:
    """Count boundary points w whose chord to the 2n-fold image covers pt.

    The count is 0, 1 or 2 as pt's hyperbolic distance to the base line
    is below, at or above ``delta_n(d, n)``, d the length of the base.
    pt lies on the chord from w to F^{2n}(w) exactly when F^{2n}(w) is
    w's half-turn about pt: the roots are the fixed points of that
    half-turn after each piece of F^{2n}, tangent within a 1e-9 band on
    the chord distance.

    n runs from 1 to MAX_Q // 2, the piece engine's range.  The cuts of
    F^{2n} are the base line's ends.  F^{2n} is steep there, so a root
    near them is accurate in angle, not in residual.  The residual's
    extrema close in on them geometrically in n, so from some n the scan's
    resolution check raises PreconditionFailed (see ``_circle_zeros``).
    """
    if not 1 <= n <= MAX_Q // 2:
        raise OutOfRange(f"fold order must be an integer in [1, {MAX_Q // 2}], got {n}")
    ch = chord_through(p1, p2)
    if _chord_distance(pt, ch.a.angle, ch.b.angle) <= 1e-12:
        raise PointOnLine("query point lies on the base line")
    tmap = TangentMap(ConvexBody.segment(p1, p2))
    turn = TangentMap(ConvexBody.point(pt))
    P = complex(pt.x, pt.y)
    pieces = [pc.then_half_turn(P) for pc in tmap.pieces(2 * n)]

    def image(u: float) -> tuple[float, float]:
        """F^{2n}(u) lifted, and its half-turn about pt lifted after it:
        the point body's map, stepped by its gap."""
        b = tmap.lift_iter(u, 2 * n)
        return b, b + turn.gap_angle(b % 1.0)

    def h(u: float) -> float:
        # the chord distance, signed by the way the half-turn misses u: the
        # chord's direction flips where F^{2n}(u) passes u, at the base's ends
        b, w = image(u)
        return math.copysign(_chord_distance(pt, u, b), w - u - round(w - u))

    scan = _circle_zeros(pieces, range(1, 2 * n + 1), lambda u: image(u)[1] - u, h)
    roots = tuple(IdealPoint(scan.read(z)[0]) for z in scan.roots)
    return TauResult(n=n, count=len(roots), roots=roots)


def condition_report(tri: Triangle) -> ConditionReport:
    """Evaluate every distance condition for all three vertex labelings."""
    # each side is the base of one labeling and a leg of the other two
    opposite, drops = zip(*_sides_and_drops(tri))
    labelings = []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        base, side_ik, side_jk, delta = opposite[k], opposite[j], opposite[i], drops[k]
        d1 = delta_n(base, 1)
        d2 = delta_n(base, 2)
        half1 = 0.5 * d1
        lo, hi = min(d2, half1), max(d2, half1)
        labelings.append(
            LabelingReport(
                pair=(i, j),
                apex=k,
                d_base=base,
                delta=delta,
                delta1=d1,
                delta2=d2,
                half_delta1=half1,
                sandwich=(lo - 1e-9 <= delta <= hi + 1e-9),
                orientation="inner_to_half" if d2 <= half1 else "half_to_inner",
                one_third=(delta >= d1 - 1e-9),
                strict_inside=(delta < d2),
                isosceles=abs(side_ik - side_jk) <= 1e-9,
            )
        )
    labelings = tuple(labelings)
    return ConditionReport(
        labelings=labelings,
        one_third=any(l.one_third for l in labelings),
        two_fifths_sandwich=any(l.sandwich for l in labelings),
        all_strictly_inside=all(l.strict_inside for l in labelings),
        isosceles_above=any(l.isosceles and l.d_base > LOG3 and l.delta < l.delta2
                            for l in labelings),
        isosceles_below=any(l.isosceles and l.d_base > LOG9 and l.delta > l.half_delta1
                            for l in labelings),
    )


def conjecture_check(tri: Triangle, n: int = 100_000) -> ConjectureVerdict:
    """Compare the sandwich condition with the certified rotation number.

    ``classify_rho`` scans 2/5 first and carries its comparison exactly
    when 2/5 is not certified, so the verdict is "equals" without one and
    otherwise reads its side.  The verdict is the same for every n, the
    only setting: the candidates' denominators stop at rotation's MAX_Q.
    """
    report = condition_report(tri)
    rotation = classify_rho(triangle_map(tri), n=n)
    comp = rotation.comparison
    verdict = "equals" if comp is None else {"less": "below", "greater": "above"}[comp.relation]
    condition = report.two_fifths_sandwich
    consistent = condition == (verdict == "equals")
    return ConjectureVerdict(
        condition=condition,
        rho_verdict=verdict,
        consistent=consistent,
        report=report,
        rotation=rotation,
    )
