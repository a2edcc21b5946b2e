"""Hyperbolic geometry in the Beltrami-Klein disk.

Points live in the open unit disk, hyperbolic lines are straight chords,
and the boundary circle holds the ideal points.  Distances come from the
log cross-ratio of a chord's ideal endpoints; the module also provides
the derived threshold quantities, perpendicular feet, equidistant loci,
and disk isometries represented as Lorentz-orthogonal projective
matrices (the hyperboloid model under the hood).

Angles on the boundary circle are measured in turns (period 1), so lifts
of circle maps live on the real line with integer deck transformations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    CoincidentPoints,
    InfeasibleSides,
    InvalidBody,
    NonpositiveDistance,
    OutOfRange,
)

TWO_PI = 2.0 * math.pi

#: points closer than this to the boundary are rejected; numerics degrade there
EPS_BOUNDARY = 1e-9

#: two angles closer than this (in turns) are treated as the same ideal point
EPS_ANGLE = 1e-12

#: the diagonal of the Lorentz form J = diag(1, 1, -1)
_LORENTZ_J = (1.0, 1.0, -1.0)


def wrap_turns(a: float) -> float:
    """Reduce an angle in turns to [0, 1)."""
    a = a % 1.0
    return a if a < 1.0 else 0.0


def ccw_gap(a: float, b: float) -> float:
    """Counterclockwise gap from angle a to angle b, in (0, 1] turns."""
    g = (b - a) % 1.0
    return g if g > 0.0 else 1.0


def angular_distance(a: float, b: float) -> float:
    """Shortest circular distance between two angles in turns."""
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


@dataclass(frozen=True)
class DiskPoint:
    """A point strictly inside the open unit disk."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidBody(f"non-finite coordinates ({self.x}, {self.y})")
        if self.x * self.x + self.y * self.y >= 1.0 - EPS_BOUNDARY:
            raise InvalidBody(
                f"point ({self.x}, {self.y}) is not strictly inside the unit disk"
            )

    @property
    def xy(self) -> tuple[float, float]:
        return (self.x, self.y)

    def euclid_to(self, other: "DiskPoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class IdealPoint:
    """A boundary point of the disk, stored as an angle in turns."""

    angle: float

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise OutOfRange(f"non-finite angle {self.angle}")
        object.__setattr__(self, "angle", float(wrap_turns(self.angle)))

    @classmethod
    def from_xy(cls, x: float, y: float) -> "IdealPoint":
        """Ideal point in the direction of (x, y); the radius is discarded."""
        return cls(math.atan2(y, x) / TWO_PI)

    @property
    def xy(self) -> tuple[float, float]:
        a = TWO_PI * self.angle
        return (math.cos(a), math.sin(a))

    @property
    def x(self) -> float:
        return math.cos(TWO_PI * self.angle)

    @property
    def y(self) -> float:
        return math.sin(TWO_PI * self.angle)


@dataclass(frozen=True)
class Chord:
    """A hyperbolic line: the chord between two distinct ideal points."""

    a: IdealPoint
    b: IdealPoint

    def __post_init__(self):
        if angular_distance(self.a.angle, self.b.angle) <= EPS_ANGLE:
            raise CoincidentPoints("chord endpoints coincide")


@dataclass(frozen=True)
class Triangle:
    """Three non-collinear disk points, reordered counterclockwise."""

    p: DiskPoint
    q: DiskPoint
    r: DiskPoint

    def __post_init__(self):
        cross = _signed_area2(self.p, self.q, self.r)
        if abs(cross) <= 1e-12:
            raise InvalidBody("triangle is degenerate (collinear vertices)")
        if cross < 0.0:
            q, r = self.q, self.r
            object.__setattr__(self, "q", r)
            object.__setattr__(self, "r", q)

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
        raise CoincidentPoints("cannot draw a chord through coincident points")
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
    """Hyperbolic distance between two disk points.

    Evaluated through the arccosh closed form, which is algebraically
    symmetric; it agrees with the defining half log cross-ratio of the
    chord through the points.
    """
    num = 1.0 - (p.x * q.x + p.y * q.y)
    den = math.sqrt((1.0 - p.x * p.x - p.y * p.y) * (1.0 - q.x * q.x - q.y * q.y))
    return math.acosh(max(1.0, num / den))


def delta_n(d: float, n: int) -> float:
    """Threshold log((e^{nd}+1)/(e^{nd}-1)) for a positive distance d.

    Strictly decreasing in both arguments and divergent as d -> 0.
    """
    if d <= 0.0:
        raise NonpositiveDistance(f"threshold needs a positive distance, got {d}")
    if n < 1:
        raise OutOfRange(f"threshold order must be a positive integer, got {n}")
    # (e^x + 1)/(e^x - 1) = 1 + 2/(e^x - 1): no log of a number near 1
    return math.log1p(2.0 / math.expm1(n * d))


def delta_from_sides(alpha: float, beta: float, gamma: float) -> float:
    """Perpendicular distance from the apex to the base, from side lengths.

    ``gamma`` is the base, ``alpha`` and ``beta`` the sides adjacent to
    the far endpoints.  Tiny negative radicands from collinear limits are
    clamped to zero.
    """
    if alpha <= 0.0 or beta <= 0.0 or gamma <= 0.0:
        raise NonpositiveDistance("side lengths must be positive")
    rad = (math.cosh(beta) - math.cosh(alpha - gamma)) * (
        math.cosh(alpha + gamma) - math.cosh(beta)
    )
    if rad < -1e-12:
        raise InfeasibleSides(
            f"sides ({alpha}, {beta}, {gamma}) violate the triangle inequality"
        )
    rad = max(0.0, rad)
    return math.asinh(math.sqrt(rad) / math.sinh(gamma))


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


def foot_and_delta(p: DiskPoint, q: DiskPoint, r: DiskPoint) -> tuple[DiskPoint, float]:
    """Perpendicular foot of r on the line pq, and the drop's length.

    In homogeneous coordinates the line pq is the plane X . m = 0 with
    m = (p, 1) x (q, 1); its Lorentz normal J m is spacelike, with
    <m, m> = m1^2 + m2^2 - m3^2.  For X = (r, 1) the drop delta is

        sinh(delta) = |X . m| / sqrt((1 - |r|^2) <m, m>),

    and the foot is the Lorentz projection X - (X . m / <m, m>) J m,
    dehomogenised.  X . m is rounded once, because it cancels for an
    apex near the line.  The length cross-validates against
    :func:`delta_from_sides`.
    """
    m1, m2, m3 = p.y - q.y, q.x - p.x, p.x * q.y - p.y * q.x
    mm = m1 * m1 + m2 * m2 - m3 * m3
    xm = _exact_sum_of_products(
        (r.x, p.y), (-r.x, q.y), (r.y, q.x), (-r.y, p.x), (p.x, q.y), (-p.y, q.x)
    )
    k = xm / mm
    w = 1.0 + k * m3
    foot = DiskPoint((r.x - k * m1) / w, (r.y - k * m2) / w)
    return foot, math.asinh(abs(xm) / math.sqrt((1.0 - r.x * r.x - r.y * r.y) * mm))


def equidistant_x(k: float, y: float) -> float:
    """Abscissa of the locus at distance k from the vertical diameter.

    The locus is the ellipse x^2/tanh(k)^2 + y^2 = 1; the nonnegative
    abscissa at height y is sqrt(1-y^2) tanh(k).
    """
    if k <= 0.0:
        raise OutOfRange(f"locus distance must be positive, got {k}")
    if abs(y) >= 1.0:
        raise OutOfRange(f"height must satisfy |y| < 1, got {y}")
    return math.sqrt(1.0 - y * y) * math.tanh(k)


@dataclass(frozen=True)
class KleinIsometry:
    """Disk isometry acting projectively on homogeneous coordinates.

    The matrix, kept as three rows of three floats, satisfies
    m^T J m = +-J with J = diag(1, 1, -1), which is exactly the condition
    to preserve the disk and the distance.
    """

    m: tuple[tuple[float, float, float], ...] = field(repr=False)

    def __post_init__(self):
        try:
            m = tuple(tuple(float(x) for x in row) for row in self.m)
        except TypeError:
            m = ()
        if len(m) != 3 or any(len(row) != 3 for row in m):
            raise OutOfRange("isometry matrix must be 3x3")
        e = [[sum(r[i] * j * r[k] for r, j in zip(m, _LORENTZ_J)) for k in range(3)]
             for i in range(3)]
        # m^T J m = +-J, to 1e-10 off the diagonal and 1e-10 + 1e-5 on it
        if not any(
            all(abs(e[i][k] - s * _LORENTZ_J[i] * (i == k)) <= 1e-10 + 1e-5 * (i == k)
                for i in range(3) for k in range(3))
            for s in (1.0, -1.0)
        ):
            raise OutOfRange("matrix does not satisfy the Lorentz condition")
        object.__setattr__(self, "m", m)

    @classmethod
    def identity(cls) -> "KleinIsometry":
        return cls(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))

    @classmethod
    def rotation(cls, angle_turns: float) -> "KleinIsometry":
        a = TWO_PI * angle_turns
        c, s = math.cos(a), math.sin(a)
        return cls(((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0)))

    @classmethod
    def boost_x(cls, rapidity: float) -> "KleinIsometry":
        """Translation along the x-axis moving the origin to (tanh s, 0)."""
        ch, sh = math.cosh(rapidity), math.sinh(rapidity)
        return cls(((ch, 0.0, sh), (0.0, 1.0, 0.0), (sh, 0.0, ch)))

    def compose(self, other: "KleinIsometry") -> "KleinIsometry":
        """self after other (matrix product self.m @ other.m)."""
        cols = tuple(zip(*other.m))
        return KleinIsometry(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.m)
        )

    def __matmul__(self, other: "KleinIsometry") -> "KleinIsometry":
        return self.compose(other)

    def inverse(self) -> "KleinIsometry":
        # Lorentz inverse J m^T J, exact up to sign normalization
        j = _LORENTZ_J
        return KleinIsometry(
            tuple(tuple(j[i] * j[k] * self.m[k][i] for k in range(3)) for i in range(3))
        )

    def _apply(self, x: float, y: float) -> tuple[float, float]:
        u, v, w = (row[0] * x + row[1] * y + row[2] for row in self.m)
        return u / w, v / w

    def apply_point(self, p: DiskPoint) -> DiskPoint:
        return DiskPoint(*self._apply(p.x, p.y))

    def apply_ideal(self, p: IdealPoint) -> IdealPoint:
        return IdealPoint.from_xy(*self._apply(*p.xy))


def apply(iso: KleinIsometry, p):
    """Apply an isometry to a disk or ideal point, preserving the kind."""
    if isinstance(p, DiskPoint):
        return iso.apply_point(p)
    if isinstance(p, IdealPoint):
        return iso.apply_ideal(p)
    raise TypeError(f"cannot apply an isometry to {type(p).__name__}")


def _boost_to_origin(x: float, y: float) -> KleinIsometry:
    rho = math.hypot(x, y)
    if rho < 1e-300:
        return KleinIsometry.identity()
    theta = math.atan2(y, x) / TWO_PI
    rot = KleinIsometry.rotation(theta)
    boost = KleinIsometry.boost_x(-math.atanh(rho))
    return rot @ boost @ rot.inverse()


def normalize_pair(p: DiskPoint, q: DiskPoint) -> tuple[KleinIsometry, float]:
    """Isometry sending p, q to (0, t), (0, -t) on the vertical diameter.

    t = tanh(d/2) where d is the hyperbolic distance between the points,
    so the image pair is symmetric about the origin.
    """
    if p.euclid_to(q) <= 1e-12:
        raise CoincidentPoints("cannot normalize a coincident pair")
    # hyperbolic midpoint via the hyperboloid embedding
    wp = math.sqrt(1.0 - p.x * p.x - p.y * p.y)
    wq = math.sqrt(1.0 - q.x * q.x - q.y * q.y)
    mx = p.x / wp + q.x / wq
    my = p.y / wp + q.y / wq
    mz = 1.0 / wp + 1.0 / wq
    to_origin = _boost_to_origin(mx / mz, my / mz)
    p1 = to_origin.apply_point(p)
    phi = math.atan2(p1.y, p1.x) / TWO_PI
    iso = KleinIsometry.rotation(0.25 - phi) @ to_origin
    t = math.tanh(0.5 * hyp_distance(p, q))
    return iso, t
