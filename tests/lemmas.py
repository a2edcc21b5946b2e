"""Checks of the paper's single proof steps, off the verdict path.

The verdicts (1/3, 2/5, above or below) need only the map, its pieces,
the distance thresholds and the drop.  The proofs behind them also use
disk isometries, the six-step chain of the canonical triangle with its
distance ratios, the contraction of the fifth iterate and the closing
witness of a pentagram.  No command needs them, so they live with the
tests that check them, next to the oracles of ``conftest``.  So do three
closed forms that the package spells otherwise: the chord map of one
point (the point body's map), the counterclockwise gap of two angles and
the contact abscissas of the ellipse pentagram (the orbit the map walks).

An isometry is the SU(1,1) pair (a, b) that :mod:`barbilliard.circlemap`
composes for its pieces: the Mobius map z -> (a z + b)/(conj(b) z +
conj(a)) of the Poincare disk, with |a|^2 - |b|^2 = 1.  The Klein and
Poincare disks share their boundary, so ideal points take the Mobius map
as it is, and a Klein point P goes through its Poincare coordinate
P / (1 + sqrt(1 - |P|^2)) and back through w -> 2w / (1 + |w|^2)
(Beardon, *The Geometry of Discrete Groups*, 1983, ch. 7).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from cmath import phase, rect
from typing import Optional

from barbilliard.circlemap import TangentMap, _compose
from barbilliard.errors import InvalidBody, OutOfRange, PreconditionFailed
from barbilliard.geometry import (
    SNAP,
    TWO_PI,
    DiskPoint,
    IdealPoint,
    Triangle,
    _boundary_gap,
    _validated,
    angular_distance,
    chord_through,
    delta_n,
    foot_and_delta,
    hyp_distance,
)
from barbilliard.pentagram import (
    CLOSURE_TOL,
    Pentagram,
    _chord_distance,
    _standard_vertices,
    standard_pentagram,
    triangle_map,
)


def ccw_gap(a: float, b: float) -> float:
    """Counterclockwise gap from angle a to angle b, in (0, 1] turns."""
    g = (b - a) % 1.0
    return g if g > 0.0 else 1.0


def second_intersection(v: IdealPoint, p: DiskPoint) -> IdealPoint:
    """Chord map of a single interior point: v across p to the boundary,
    the Mobius quotient of the half-turn about p written out, which the
    point body's ``TangentMap(ConvexBody.point(p)).eval_angle`` keeps."""
    P = complex(p.x, p.y)
    z = rect(1.0, TWO_PI * v.angle)
    return IdealPoint(phase((P - z) / (1.0 - P.conjugate() * z)) / TWO_PI)


def ellipse_contact_xs(t: float, v: float) -> tuple[float, float, float, float, float]:
    """Closed-form abscissas of the five contact points (apex on the left),
    the cross-check for the points that ``ellipse_pentagram`` walks."""
    s = math.sqrt(1.0 - v * v)
    t2 = t * t
    t4 = t2 * t2
    return (
        s * (t2 - 1.0) / (2.0 * v * t - t2 - 1.0),
        -s,
        -s * (t2 - 1.0) / (2.0 * v * t + t2 + 1.0),
        -s * (t4 - 2.0 * t2 + 1.0) / (4.0 * v * t * t2 + t4 + 4.0 * v * t + 6.0 * t2 + 1.0),
        s * (t4 - 2.0 * t2 + 1.0) / (4.0 * v * t * t2 - t4 + 4.0 * v * t - 6.0 * t2 - 1.0),
    )


def _poincare(p: DiskPoint) -> complex:
    """The Poincare coordinate of the Klein point p."""
    return complex(p.x, p.y) / (1.0 + math.sqrt(_boundary_gap(p)))


class KleinIsometry(_validated("KleinIsometry", [("a", complex), ("b", complex)])):
    """Disk isometry as the SU(1,1) pair (a, b), |a|^2 - |b|^2 = 1."""

    __slots__ = ()

    def __new__(cls, a: complex, b: complex):
        a, b = complex(a), complex(b)
        aa, bb = abs(a) ** 2, abs(b) ** 2
        if not abs(aa - bb - 1.0) <= 1e-10 * (aa + bb):
            raise OutOfRange("pair does not satisfy |a|^2 - |b|^2 = 1")
        return super().__new__(cls, a, b)

    def compose(self, other: "KleinIsometry") -> "KleinIsometry":
        """self after other."""
        return KleinIsometry(*_compose(self, other))

    def inverse(self) -> "KleinIsometry":
        return KleinIsometry(self.a.conjugate(), -self.b)

    def _mobius(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.b.conjugate() * z + self.a.conjugate())

    def apply_point(self, p: DiskPoint) -> DiskPoint:
        w = self._mobius(_poincare(p))
        k = 2.0 / (1.0 + w.real * w.real + w.imag * w.imag)
        return DiskPoint(k * w.real, k * w.imag)

    def apply_ideal(self, v: IdealPoint) -> IdealPoint:
        return IdealPoint(phase(self._mobius(rect(1.0, TWO_PI * v.angle))) / TWO_PI)


def normalize_pair(p: DiskPoint, q: DiskPoint) -> tuple[KleinIsometry, float]:
    """Isometry sending p, q to (0, t), (0, -t) on the vertical diameter.

    It translates the pair's hyperbolic midpoint to the origin, then
    rotates p onto the positive y-axis.  t = tanh(d/2) where d is the
    hyperbolic distance between the points, so the image pair is
    symmetric about the origin.
    """
    if p.euclid_to(q) <= 1e-12:
        raise InvalidBody("cannot normalize a coincident pair")
    # the midpoint of the hyperboloid lifts (p, 1) / wp and (q, 1) / wq
    wp, wq = math.sqrt(_boundary_gap(p)), math.sqrt(_boundary_gap(q))
    mz = 1.0 / wp + 1.0 / wq
    m = _poincare(DiskPoint((p.x / wp + q.x / wq) / mz, (p.y / wp + q.y / wq) / mz))
    s = math.sqrt(1.0 - (m.real * m.real + m.imag * m.imag))
    to_origin = KleinIsometry(1.0 / s, -m / s)
    # rotating by theta is the pair (e^{i theta/2}, 0)
    theta = 0.5 * math.pi - phase(to_origin._mobius(_poincare(p)))
    iso = KleinIsometry(rect(1.0, 0.5 * theta), 0.0).compose(to_origin)
    return iso, math.tanh(0.5 * hyp_distance(p, q))


def edge_incidence(pent: Pentagram, c: DiskPoint) -> int:
    """Number of pentagram edges, the chords from each point to the next,
    whose supporting line passes through c."""
    pts = pent.points
    return sum(
        _chord_distance(c, pts[i].angle, pts[(i + 1) % 5].angle) <= CLOSURE_TOL
        for i in range(5)
    )


def one_sided_slopes(tmap: TangentMap, a: float) -> tuple[float, float]:
    """Left and right slopes of the map at angle a, read from its pieces:
    the piece ending at a gives the left one, the piece holding a the
    right one.  Within SNAP of a cut the angle counts as on it, as
    ``eval_angle`` does; off the cuts both slopes are the holding piece's."""
    pieces = tmap.pieces(1)
    k = bisect_right([pc.lo for pc in pieces], (a + SNAP) % 1.0) - 1
    right = pieces[k]
    left = pieces[k - 1] if angular_distance(a, right.lo) <= SNAP else right
    return left.slope(a), right.slope(a)


def ideal_chain(t: float) -> list[IdealPoint]:
    """Six-step boundary chain of the canonical triangle's base-line ideals.

    The chain starts from the ideal points of the apex-to-bottom side,
    adds the auxiliary point across the top vertex, and then follows the
    map three more steps.  Defined for 0.8 < t < 1.
    """
    if not 0.8 < t < 1.0:
        raise OutOfRange(f"chain requires 0.8 < t < 1, got {t}")
    p, q, r = _standard_vertices(t)
    tmap = triangle_map(Triangle(p, q, r))
    ch = chord_through(q, r)
    u3, u2 = ch.a, ch.b  # nearer the bottom vertex; the upper-left one
    u1 = second_intersection(u2, p)
    return [u1, u2] + tmap.orbit(u3, 3)


def orbit_derivative_product(t: float) -> float:
    """Product of the five point-map derivatives along the ideal chain:
    the slope of F^5 at the chain's first point, on the piece that ends
    there (at a breakpoint the incoming vertex serves).

    Stays below 1 on 0.8 < t < 1, which makes the fifth iterate a
    contraction off the closing orbit.
    """
    u1 = ideal_chain(t)[0].angle
    pieces = triangle_map(Triangle(*_standard_vertices(t))).pieces(5)
    return min(pieces, key=lambda pc: angular_distance(pc.hi, u1)).slope(u1)


def contraction_check(t: float, v: IdealPoint) -> bool:
    """True when the fifth iterate pulls v back toward the gap's left end.

    v must lie strictly between two consecutive closing points; the gap's
    left endpoint is the closing point a with v in arc(a, next).
    """
    if not 0.8 < t < 1.0:
        raise OutOfRange(f"contraction regime requires 0.8 < t < 1, got {t}")
    tri, pent = standard_pentagram(t)
    tmap = triangle_map(tri)
    a_angles = sorted(pt.angle for pt in pent.points)
    for ang in a_angles:
        if angular_distance(v.angle, ang) <= 1e-12:
            raise ValueError("point coincides with a closing orbit point")
    below = [ang for ang in a_angles if ang <= v.angle]
    left = below[-1] if below else a_angles[-1]
    w = tmap.orbit(v, 5)[-1].angle
    return 0.0 < ccw_gap(left, w) < ccw_gap(left, v.angle)


def _line_intersection(a1, b1, a2, b2) -> Optional[tuple[float, float]]:
    d1x, d1y = b1[0] - a1[0], b1[1] - a1[1]
    d2x, d2y = b2[0] - a2[0], b2[1] - a2[1]
    det = d1x * d2y - d1y * d2x
    if abs(det) < 1e-14:
        return None
    s = ((a2[0] - a1[0]) * d2y - (a2[1] - a1[1]) * d2x) / det
    return (a1[0] + s * d1x, a1[1] + s * d1y)


def pentagram_witness(p: DiskPoint, q: DiskPoint, r: DiskPoint) -> IdealPoint:
    """Boundary point whose two-tangent chord construction recovers r.

    Only defined when the apex distance equals half the order-1
    threshold of the base; the witness generates the closing pentagram.
    With v1, v2 the ends of the line pq, v1 nearer p, the line from v1
    through r meets the circle again at w2, and the witness is w2's
    chord image across q.  The construction must close: the line from
    v2 through w's image across p meets the line v1 w2 at r.
    """
    base = hyp_distance(p, q)
    _, delta = foot_and_delta(p, q, r)
    if abs(delta - 0.5 * delta_n(base, 1)) > 1e-8:
        raise PreconditionFailed(
            "apex distance must equal half the order-1 threshold of the base"
        )
    ch = chord_through(p, q)
    w2 = second_intersection(ch.a, r)
    w = second_intersection(w2, q)
    x = _line_intersection(ch.a.xy, w2.xy, ch.b.xy, second_intersection(w, p).xy)
    if x is None or math.hypot(x[0] - r.x, x[1] - r.y) > 1e-8:
        raise ValueError("no boundary witness reproduces the apex within tolerance")
    return w
