"""The bar-billiard circle map of a convex body inside the unit circle.

For a boundary point v, the map sends v to the first counterclockwise
boundary point w such that the chord vw supports the body.  For a point
body this is the chord through the point; for a segment or a convex
polygon the supporting vertex switches at finitely many breakpoints,
namely the ideal endpoints of the edge lines.  Between breakpoints the
map coincides with the chord map of the active vertex, which makes the
breakpoint table the whole story: evaluation, one-sided derivatives and
the lift all read from it.

The chord map of a vertex P is the boundary action of the hyperbolic
half-turn about P.  With P's Klein coordinate and the boundary point z
written as complex numbers it is the Mobius map

    w = (P - z) / (1 - conj(P) z),

the matrix [[-1, P], [-conj(P), 1]], an involution whose interior fixed
point P / (1 + sqrt(1 - |P|^2)) is P's Poincare coordinate.  The table
stores P per arc, and every evaluation is this one step.

Scaled by its known 1/sqrt(1 - |P|^2) and by i, the matrix lies in
SU(1,1): [[a, b], [conj(b), conj(a)]] with |a|^2 - |b|^2 = 1, kept as the
pair (a, b).  Products of such pairs stay in that form, so the n-fold map
is one Mobius map on each arc between the cuts F^{-j}(breakpoint), j < n
(:meth:`TangentMap.pieces`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from cmath import phase, rect
from dataclasses import dataclass, field
from itertools import cycle, islice

from .errors import InvalidBody, IterationBudgetExceeded
from .geometry import (
    TWO_PI,
    DiskPoint,
    IdealPoint,
    Triangle,
    ccw_gap,
    chord_through,
)

#: angles this close to a breakpoint (in turns) snap onto it (left-closed arcs)
SNAP = 1e-12

#: hard cap on orbit/estimate iteration counts
ITERATION_BUDGET = 10_000_000


@dataclass(frozen=True)
class ConvexBody:
    """A point, a segment, or a strictly convex CCW polygon in the disk."""

    kind: str
    vertices: tuple[DiskPoint, ...]

    def __post_init__(self):
        if self.kind not in ("point", "segment", "polygon"):
            raise InvalidBody(f"unknown body kind {self.kind!r}")
        n = len(self.vertices)
        if self.kind == "point" and n != 1:
            raise InvalidBody("point body needs exactly one vertex")
        if self.kind == "segment":
            if n != 2:
                raise InvalidBody("segment body needs exactly two vertices")
            if self.vertices[0].euclid_to(self.vertices[1]) <= 1e-12:
                raise InvalidBody("segment endpoints coincide")
        if self.kind == "polygon":
            if n < 3:
                raise InvalidBody("polygon body needs at least three vertices")
            object.__setattr__(self, "vertices", _ccw_convex(self.vertices))

    @classmethod
    def point(cls, p: DiskPoint) -> "ConvexBody":
        return cls("point", (p,))

    @classmethod
    def segment(cls, p: DiskPoint, q: DiskPoint) -> "ConvexBody":
        return cls("segment", (p, q))

    @classmethod
    def polygon(cls, vertices) -> "ConvexBody":
        return cls("polygon", tuple(vertices))

    @classmethod
    def triangle(cls, tri: Triangle) -> "ConvexBody":
        return cls("polygon", tri.vertices)


def _ccw_convex(vertices: tuple[DiskPoint, ...]) -> tuple[DiskPoint, ...]:
    """Validate strict convexity; flip CW input to CCW."""
    n = len(vertices)
    area2 = 0.0
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        area2 += a.x * b.y - a.y * b.x
    if area2 < 0.0:
        vertices = vertices[::-1]
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        c = vertices[(i + 2) % n]
        cross = (b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x)
        if cross <= 1e-12:
            raise InvalidBody("polygon is not strictly convex in CCW order")
    return vertices


@dataclass(frozen=True)
class OneSidedDerivative:
    """Left and right derivatives of the map at a boundary point."""

    left: float
    right: float


def second_intersection(v: IdealPoint, p: DiskPoint) -> IdealPoint:
    """Chord map of a single interior point: v across p to the boundary,
    the half-turn about p (the step of :meth:`TangentMap.eval_angle`)."""
    return IdealPoint(_turn(complex(p.x, p.y), v.angle))


def _turn(P: complex, a: float) -> float:
    """The half-turn about P of the boundary point at angle a, in turns."""
    z = rect(1.0, TWO_PI * a)
    return phase((P - z) / (1.0 - P.conjugate() * z)) / TWO_PI


def _half_turn(P: complex) -> tuple[complex, complex]:
    """The half-turn about P as an SU(1,1) pair (a, b)."""
    s = math.sqrt(1.0 - (P.real * P.real + P.imag * P.imag))
    return -1j / s, 1j * P / s


def _compose(m: tuple[complex, complex], n: tuple[complex, complex]) -> tuple[complex, complex]:
    """The SU(1,1) pair of m after n."""
    return m[0] * n[0] + m[1] * n[1].conjugate(), m[0] * n[1] + m[1] * n[0].conjugate()


def _dedupe_cyclic(items, tol: float) -> list:
    """Sorted items, dropping each within tol of the last kept one, and the
    last kept one if it is within tol of the first across 1.  Items are
    angles in turns, or tuples that lead with one."""

    def angle(item) -> float:
        return item[0] if isinstance(item, tuple) else item

    kept: list = []
    for item in sorted(items):
        if not kept or angle(item) - angle(kept[-1]) > tol:
            kept.append(item)
    if len(kept) > 1 and angle(kept[0]) + 1.0 - angle(kept[-1]) <= tol:
        kept.pop()
    return kept


@dataclass(frozen=True)
class Piece:
    """An arc [lo, hi) of angles (turns; hi may pass 1) on which a circle
    map is one Mobius map z -> (a z + b)/(conj(b) z + conj(a))."""

    lo: float
    hi: float
    a: complex
    b: complex

    def slope(self, x: float) -> float:
        """Derivative of the boundary action at angle x; inf at a pole that
        float cancellation put on the circle."""
        d = abs(self.b.conjugate() * rect(1.0, TWO_PI * x) + self.a.conjugate())
        return 1.0 / (d * d) if d else math.inf

    def fixed_points(self) -> tuple[float, ...]:
        """Angles the map fixes: two, one double, or none when elliptic."""
        disc = self.a.real * self.a.real - 1.0
        if disc < 0.0 or self.b == 0.0:
            return ()
        r = math.sqrt(disc)
        return tuple(phase((1j * self.a.imag + s) / self.b.conjugate()) / TWO_PI for s in (r, -r))

    def critical_points(self) -> tuple[float, ...]:
        """Where the slope is 1: R's minimum, then its maximum, either side
        of the slope's peak, at acos(|b|/|a|) = atan2(1, |b|) from it."""
        if self.b == 0.0:
            return ()
        peak = phase(-self.a.conjugate() * self.b) / TWO_PI
        w = math.atan2(1.0, abs(self.b)) / TWO_PI
        return peak - w, peak + w

    def then_half_turn(self, P: complex) -> "Piece":
        """This piece followed by the half-turn about P."""
        return Piece(self.lo, self.hi, *_compose(_half_turn(P), (self.a, self.b)))


@dataclass(frozen=True)
class TangentMap:
    """Evaluable bar-billiard map: body plus its breakpoint table.

    ``breakpoints`` lists (ideal point, active vertex index) sorted by
    angle; the vertex is the tangency on the left-closed arc starting at
    that breakpoint.  A point body has an empty table and a single arc.
    """

    body: ConvexBody
    breakpoints: tuple[tuple[IdealPoint, int], ...]
    _bp_angles: tuple[float, ...] = field(repr=False)
    # each arc's active vertex P as x + iy; arc -1 wraps past angle 1 and
    # is the only arc of a point body
    _arc_verts: tuple[complex, ...] = field(repr=False)

    def active_vertex_index(self, angle: float) -> int:
        """Index of the tangency vertex for the arc containing the angle."""
        if not self.breakpoints:
            return 0
        return self.breakpoints[bisect_right(self._bp_angles, (angle + SNAP) % 1.0) - 1][1]

    def eval_angle(self, a: float) -> float:
        """Image angle (turns in [0,1)) of the boundary point at angle a."""
        P = self._arc_verts[bisect_right(self._bp_angles, (a + SNAP) % 1.0) - 1]
        z = rect(1.0, TWO_PI * a)
        b = phase((P - z) / (1.0 - P.conjugate() * z)) / TWO_PI % 1.0
        return b if b < 1.0 else 0.0

    def gap_angle(self, a: float) -> float:
        """CCW winding gap from a to its image, in (0, 1) turns."""
        return ccw_gap(a, self.eval_angle(a))

    def gap_angles(self, angles) -> list[float]:
        """:meth:`gap_angle` of each angle, reduced mod 1.  Its only caller
        is the benchmark tracer, which binds it by name."""
        return [self.gap_angle(float(a) % 1.0) for a in angles]

    # --- public operations --------------------------------------------------

    def evaluate(self, v: IdealPoint) -> IdealPoint:
        return IdealPoint(self.eval_angle(v.angle))

    def derivative(self, v: IdealPoint) -> OneSidedDerivative:
        """One-sided derivatives |M'(z)| = (1 - |P|^2)/|z - P|^2 of the
        half-turns about the active vertices P at z = v; by the power of
        the point this is the chord ratio |P w|/|v P|."""
        a = v.angle
        k = bisect_right(self._bp_angles, (a + SNAP) % 1.0) - 1
        left = right = self._arc_verts[k]
        if self._bp_angles:
            gap = abs(a - self._bp_angles[k]) % 1.0
            if min(gap, 1.0 - gap) <= SNAP:  # at the breakpoint opening the arc
                left = self._arc_verts[k - 1]
        z = rect(1.0, TWO_PI * a)
        return OneSidedDerivative(
            left=(1.0 - abs(left) ** 2) / abs(z - left) ** 2,
            right=(1.0 - abs(right) ** 2) / abs(z - right) ** 2,
        )

    def lift(self, x: float) -> float:
        """Lift F with F(x+1) = F(x)+1 and F(x)-x in (0, 1)."""
        return x + self.gap_angle(x % 1.0)

    def lift_iter(self, x: float, n: int) -> float:
        """n-fold lift F^n(x), accumulating the winding gap per step.

        The gap depends on the angle alone, so once the float orbit repeats
        an angle exactly (on a locked rotation number every orbit is drawn
        to a periodic one) its gaps repeat too.  Brent's cycle detection
        (Brent, BIT 20, 1980) compares each angle with the one saved at the
        last power-of-two step.  At a repeat lam steps after the saved
        angle, one more lap collects the cycle's lam gaps, and the remaining
        steps add them one at a time in orbit order: the sum is
        bit-identical to stepping all n.  Orbits that never repeat exactly
        (unlocked, or semi-stable and converging too slowly) cost one map
        evaluation per step as before.
        """
        if n < 0 or n > ITERATION_BUDGET:
            raise IterationBudgetExceeded(f"lift iteration count {n} out of budget")
        eval_angle = self.eval_angle
        a = x % 1.0
        total = 0.0
        saved_a, saved_k, next_save = a, 0, 1
        for k in range(1, n + 1):
            g = (eval_angle(a) - a) % 1.0
            if g == 0.0:
                g = 1.0
            total += g
            a = (a + g) % 1.0
            if a == saved_a:
                break
            if k == next_save:
                saved_a, saved_k, next_save = a, k, 2 * k
        else:
            return x + total
        gaps = []
        for _ in range(min(k - saved_k, n - k)):
            gaps.append(self.gap_angle(a))
            a = (a + gaps[-1]) % 1.0
        for g in islice(cycle(gaps), n - k):
            total += g
        return x + total

    def pieces(self, n: int) -> list[Piece]:
        """The n-fold map as Mobius pieces, in angle order from the first cut.

        The cuts, F^{-j}(breakpoint) for j < n merged within SNAP, are
        stepped back a half-turn at a time: F^{-1} on the image arc
        [F(bp_k), F(bp_k+1)) is arc k's half-turn, its own inverse.  A
        piece's map is the product of the half-turns along its midpoint's
        itinerary.
        """
        if n < 1 or n > ITERATION_BUDGET:
            raise IterationBudgetExceeded(f"piece order {n} out of budget")
        bps, verts = self._bp_angles, self._arc_verts
        images = sorted((self.eval_angle(a), k) for k, a in enumerate(bps))
        image_angles = [a for a, _ in images]
        level, cuts = list(bps), list(bps)
        for _ in range(n - 1):
            level = [_turn(verts[images[bisect_right(image_angles, y) - 1][1]], y) % 1.0
                     for y in level]
            cuts.extend(level)
        # a cut within SNAP of the wrap point is put on it, so a zero there
        # reads 0 rather than 1 - ulp
        cuts = _dedupe_cyclic([0.0 if min(c, 1.0 - c) <= SNAP else c for c in cuts], SNAP)
        ends = cuts + [cuts[0] + 1.0] if cuts else [0.0, 1.0]
        turns = [_half_turn(P) for P in verts]
        pieces = []
        for lo, hi in zip(ends, ends[1:]):
            m, a = (1.0 + 0j, 0j), (0.5 * (lo + hi)) % 1.0
            for _ in range(n):
                k = bisect_right(bps, a) - 1  # no SNAP: the midpoint is inside its piece
                a = _turn(verts[k], a) % 1.0
                m = _compose(turns[k], m)
            pieces.append(Piece(lo, hi, *m))
        return pieces

    def orbit(self, v: IdealPoint, n: int) -> list[IdealPoint]:
        """Iterates [v, map(v), ..., map^n(v)]."""
        if n < 0 or n > ITERATION_BUDGET:
            raise IterationBudgetExceeded(f"orbit length {n} out of budget")
        pts = [v]
        a = v.angle
        for _ in range(n):
            a = self.eval_angle(a)
            pts.append(IdealPoint(a))
        return pts


def build_tangent_map(body: ConvexBody) -> TangentMap:
    """Breakpoint table of the map: one breakpoint per supporting edge.

    For the edge from vertex i to vertex i+1 the breakpoint is the ideal
    endpoint nearer vertex i, and the arc it opens is served by vertex
    i+1.  A segment is handled as a 2-gon with both edge orientations.
    """
    verts = [complex(p.x, p.y) for p in body.vertices]
    entries = []
    n = len(verts) if body.kind != "point" else 0
    for i in range(n):
        k = (i + 1) % n
        u = chord_through(body.vertices[i], body.vertices[k]).a
        entries.append((u.angle, u, k))
    entries.sort(key=lambda e: e[0])
    for (a1, _, _), (a2, _, _) in zip(entries, entries[1:]):
        if a2 - a1 <= SNAP:
            raise InvalidBody("breakpoints collide; body is numerically degenerate")
    arc_verts = tuple(verts[k] for _, _, k in entries) or (verts[0],)
    return TangentMap(
        body,
        tuple((u, k) for _, u, k in entries),
        tuple(a for a, _, _ in entries),
        arc_verts,
    )
