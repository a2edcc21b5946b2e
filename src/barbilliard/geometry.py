"""Hyperbolic geometry in the Beltrami-Klein disk.

Points live in the open unit disk, hyperbolic lines are straight chords,
and the boundary circle holds the ideal points.  The distance of p and q
is asinh(sqrt(<m, m>) / sqrt((1 - |p|^2)(1 - |q|^2))) for m the line pq;
the module also provides the derived threshold quantities and the
perpendicular foot and drop (the hyperboloid model under the hood).

Angles on the boundary circle are measured in turns (period 1), so lifts
of circle maps live on the real line with integer deck transformations.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidBody, OutOfRange

TWO_PI = 2.0 * math.pi

#: points closer than this to the boundary are rejected; numerics degrade there
EPS_BOUNDARY = 1e-9

#: angular resolution in turns: two angles closer than this are one ideal
#: point.  A chord's ends must be farther apart; the circle map snaps angles
#: onto its breakpoints and merges its cuts within it, and the zero scan
#: refuses an extremum within it of a cut.
SNAP = 1e-12


def _validated(name: str, fields: list[tuple[str, type]]) -> type:
    """Named-tuple base of a type that checks its fields in ``__new__``:
    ``_make``, and so ``_replace``, build through that check too."""
    base = NamedTuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


def fmt(x: float) -> str:
    """Locale-independent 12-significant-digit float formatting, shared by
    the CLI's JSON and CSV and the SVG figures."""
    s = f"{x:.12g}"
    return "0" if s == "-0" else s


def wrap_turns(a: float) -> float:
    """Reduce an angle in turns to [0, 1)."""
    a = a % 1.0
    return a if a < 1.0 else 0.0


def angular_distance(a: float, b: float) -> float:
    """Shortest circular distance between two angles in turns."""
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


class DiskPoint(_validated("DiskPoint", [("x", float), ("y", float)])):
    """A point strictly inside the open unit disk."""

    __slots__ = ()

    def __new__(cls, x: float, y: float):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InvalidBody(f"non-finite coordinates ({x}, {y})")
        if x * x + y * y >= 1.0 - EPS_BOUNDARY:
            raise InvalidBody(f"point ({x}, {y}) is not strictly inside the unit disk")
        return super().__new__(cls, x, y)

    @property
    def xy(self) -> tuple[float, float]:
        return (self.x, self.y)

    def euclid_to(self, other: "DiskPoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


class IdealPoint(_validated("IdealPoint", [("angle", float)])):
    """A boundary point of the disk, stored as an angle in turns."""

    __slots__ = ()

    def __new__(cls, angle: float):
        if not math.isfinite(angle):
            raise OutOfRange(f"non-finite angle {angle}")
        return super().__new__(cls, float(wrap_turns(angle)))

    @classmethod
    def from_xy(cls, x: float, y: float) -> "IdealPoint":
        """Ideal point in the direction of (x, y); the radius is discarded."""
        return cls(math.atan2(y, x) / TWO_PI)

    @property
    def xy(self) -> tuple[float, float]:
        a = TWO_PI * self.angle
        return (math.cos(a), math.sin(a))


class Chord(_validated("Chord", [("a", IdealPoint), ("b", IdealPoint)])):
    """A hyperbolic line: the chord between two distinct ideal points."""

    __slots__ = ()

    def __new__(cls, a: IdealPoint, b: IdealPoint):
        if angular_distance(a.angle, b.angle) <= SNAP:
            raise InvalidBody("chord endpoints coincide")
        return super().__new__(cls, a, b)


class Triangle(_validated("Triangle", [("p", DiskPoint), ("q", DiskPoint), ("r", DiskPoint)])):
    """Three non-collinear disk points, reordered counterclockwise."""

    __slots__ = ()

    def __new__(cls, p: DiskPoint, q: DiskPoint, r: DiskPoint):
        cross = _signed_area2(p, q, r)
        if abs(cross) <= 1e-12:
            raise InvalidBody("triangle is degenerate (collinear vertices)")
        if cross < 0.0:
            q, r = r, q
        return super().__new__(cls, p, q, r)

    @property
    def vertices(self) -> tuple[DiskPoint, DiskPoint, DiskPoint]:
        return (self.p, self.q, self.r)


def _signed_area2(p: DiskPoint, q: DiskPoint, r: DiskPoint) -> float:
    return (q.x - p.x) * (r.y - q.y) - (q.y - p.y) * (r.x - q.x)


def chord_through(p: DiskPoint, q: DiskPoint) -> Chord:
    """Extend the line through two interior points to its ideal endpoints.

    The first endpoint of the returned chord is the one nearer ``p``.
    """
    dx, dy = q.x - p.x, q.y - p.y
    dd = dx * dx + dy * dy
    if dd <= 1e-24:
        raise InvalidBody("cannot draw a chord through coincident points")
    # |p + s d|^2 = 1, solved with the numerically stable quadratic form
    b = p.x * dx + p.y * dy
    c = p.x * p.x + p.y * p.y - 1.0
    disc = math.sqrt(b * b - dd * c)
    qq = -(b + math.copysign(disc, b)) if b != 0.0 else disc
    s1, s2 = qq / dd, c / qq
    s_neg, s_pos = (s1, s2) if s1 < s2 else (s2, s1)
    near = IdealPoint.from_xy(p.x + s_neg * dx, p.y + s_neg * dy)
    far = IdealPoint.from_xy(p.x + s_pos * dx, p.y + s_pos * dy)
    return Chord(near, far)


def hyp_distance(p: DiskPoint, q: DiskPoint) -> float:
    """Hyperbolic distance between two disk points: the arcsinh of

        sqrt(<m, m>) / sqrt((1 - |p|^2)(1 - |q|^2)),

    with <m, m> the norm of the line pq (:func:`_line_norm`).  By Lagrange's
    identity its cosh is (1 - p.q)/sqrt((1 - |p|^2)(1 - |q|^2)), whose
    arccosh would lose short distances: it rounds to 1 below d ~ 1e-8.
    Swapping p and q keeps every rounded term: symmetric bit for bit.
    """
    return math.asinh(math.sqrt(_line_norm(p, q)) / math.sqrt(_boundary_gap(p) * _boundary_gap(q)))


def delta_n(d: float, n: int) -> float:
    """Threshold log((e^{nd}+1)/(e^{nd}-1)) for a positive distance d.

    Strictly decreasing in both arguments and divergent as d -> 0.
    """
    if d <= 0.0:
        raise OutOfRange(f"threshold needs a positive distance, got {d}")
    if n < 1:
        raise OutOfRange(f"threshold order must be a positive integer, got {n}")
    # (e^x + 1)/(e^x - 1) = 1 + 2/(e^x - 1): no log of a number near 1
    return math.log1p(2.0 / math.expm1(n * d))


def _split(a: float) -> tuple[float, float]:
    """Veltkamp split a = hi + lo into halves of at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _exact_sum_of_products(*pairs: tuple[float, float]) -> float:
    """Correctly rounded sum of a*b over the pairs.

    The products of split halves are exact, so ``fsum`` rounds once.  A
    plain float sum keeps only ~1e-16/|sum| relative accuracy, which
    loses the drop of an apex close to its base line.
    """
    terms = []
    for a, b in pairs:
        ah, al = _split(a)
        bh, bl = _split(b)
        terms += (ah * bh, ah * bl, al * bh, al * bl)
    return math.fsum(terms)


def _boundary_gap(p: DiskPoint) -> float:
    """1 - |p|^2, rounded once: the float form cancels near the circle,
    where it divides every distance to p.  Each square splits into three
    exact products, so ``fsum`` rounds the exact value once."""
    xh, xl = _split(p.x)
    yh, yl = _split(p.y)
    return math.fsum((1.0, -xh * xh, -2.0 * xh * xl, -xl * xl,
                      -yh * yh, -2.0 * yh * yl, -yl * yl))


def _line_norm(p: DiskPoint, q: DiskPoint) -> float:
    """<m, m> = m1^2 + m2^2 - m3^2 of the line pq, m = (p, 1) x (q, 1), as
    |d|^2 (1 - |c|^2) + (c . d)^2 with d = q - p, c = (p + q)/2 and 1 - |c|^2
    = (1 - |p|^2 + 1 - |q|^2)/2 + |d|^2/4, which keeps a short pair near the
    circle: c . d, the one signed sum, is rounded once."""
    dx, dy = q.x - p.x, q.y - p.y
    dd = dx * dx + dy * dy
    cd = 0.5 * _exact_sum_of_products((p.x + q.x, dx), (p.y + q.y, dy))
    return dd * (0.5 * (_boundary_gap(p) + _boundary_gap(q)) + 0.25 * dd) + cd * cd


def _determinant(p: DiskPoint, q: DiskPoint, r: DiskPoint) -> float:
    """X . m for X = (r, 1) and m = (p, 1) x (q, 1): the determinant of the
    rows (p, 1), (q, 1), (r, 1), rounded once.  A cyclic relabeling keeps
    the exact value, and so the rounded one."""
    return _exact_sum_of_products(
        (r.x, p.y), (-r.x, q.y), (r.y, q.x), (-r.y, p.x), (p.x, q.y), (-p.y, q.x)
    )


def _sides_and_drops(tri: Triangle) -> list[tuple[float, float]]:
    """For each vertex k, the distance between vertices k + 1 and k + 2
    (mod 3) and the drop from k onto their line: :func:`hyp_distance` and
    the delta of :func:`foot_and_delta` on the points in that order, bit
    for bit, from one line norm per side, one boundary gap per vertex and
    the one determinant that all three labelings share."""
    verts = tri.vertices
    gaps = [_boundary_gap(v) for v in verts]
    det = abs(_determinant(*verts))
    out = []
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        mm = _line_norm(verts[i], verts[j])
        out.append((math.asinh(math.sqrt(mm) / math.sqrt(gaps[i] * gaps[j])),
                    math.asinh(det / math.sqrt(gaps[k] * mm))))
    return out


def foot_and_delta(p: DiskPoint, q: DiskPoint, r: DiskPoint) -> tuple[DiskPoint, float]:
    """Perpendicular foot of r on the line pq, and the drop's length.

    In homogeneous coordinates the line pq is the plane X . m = 0 with
    m = (p, 1) x (q, 1); its Lorentz normal J m is spacelike, with
    <m, m> = m1^2 + m2^2 - m3^2.  For X = (r, 1) the drop delta is

        sinh(delta) = |X . m| / sqrt((1 - |r|^2) <m, m>),

    and the foot is the Lorentz projection X - (X . m / <m, m>) J m,
    dehomogenised.  X . m is rounded once, because it cancels for an
    apex near the line, and <m, m> is :func:`_line_norm`, which keeps a
    short base near the circle.
    """
    m1, m2, m3 = p.y - q.y, q.x - p.x, p.x * q.y - p.y * q.x
    mm = _line_norm(p, q)
    xm = _determinant(p, q, r)
    k = xm / mm
    w = 1.0 + k * m3
    foot = DiskPoint((r.x - k * m1) / w, (r.y - k * m2) / w)
    return foot, math.asinh(abs(xm) / math.sqrt(_boundary_gap(r) * mm))
