"""The bar-billiard circle map of a convex body inside the unit circle.

For a boundary point v, the map sends v to the first counterclockwise
boundary point w such that the chord vw supports the body.  For a point
body this is the chord through the point; for a segment or a convex
polygon the supporting vertex switches at finitely many breakpoints,
namely the ideal endpoints of the edge lines.  Between breakpoints the
map coincides with the chord map of the active vertex, which makes the
breakpoint table the whole story: evaluation, the lift and the pieces
all read from it, and slopes, one-sided at a breakpoint, are read from
the pieces of :meth:`TangentMap.pieces` by :meth:`Piece.slope`.

The chord map of a vertex P is the boundary action of the hyperbolic
half-turn about P.  With P's Klein coordinate and the boundary point z
written as complex numbers it is the Mobius map

    w = (P - z) / (1 - conj(P) z),

the matrix [[-1, P], [-conj(P), 1]], an involution whose interior fixed
point P / (1 + sqrt(1 - |P|^2)) is P's Poincare coordinate.  The table
stores P per arc, and every image is this one step.

The lift steps the winding gap alone: as 1 - conj(P) z = z conj(z - P)
on |z| = 1, the half-turn moves the angle a by 1/2 + arg(1 - P conj(z)) / pi
(:meth:`TangentMap.gap_angle`).  Images keep the quotient, which places
them more accurately than a plus that gap, and the pieces rest on its bits.

Scaled by its known 1/sqrt(1 - |P|^2) and by i, the matrix lies in
SU(1,1): [[a, b], [conj(b), conj(a)]] with |a|^2 - |b|^2 = 1, kept as the
pair (a, b).  Products of such pairs stay in that form, so the n-fold map
is one Mobius map on each arc between the cuts F^{-j}(breakpoint), j < n
(:meth:`TangentMap.pieces`).  Crossing the cut F^{-j}(bp_i) changes only
the j-th factor of that product, so the cuts' (j, i) tags give every
piece's itinerary.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from cmath import phase, rect
from typing import NamedTuple

from .errors import InvalidBody, OutOfRange
from .geometry import (
    SNAP,
    TWO_PI,
    DiskPoint,
    IdealPoint,
    _signed_area2,
    _validated,
    chord_through,
    wrap_turns,
)

#: hard cap on orbit/estimate iteration counts
ITERATION_BUDGET = 10_000_000


class ConvexBody(_validated("ConvexBody", [("kind", str), ("vertices", tuple)])):
    """A point, a segment, or a strictly convex CCW polygon in the disk."""

    __slots__ = ()

    def __new__(cls, kind: str, vertices: tuple[DiskPoint, ...]):
        if kind not in ("point", "segment", "polygon"):
            raise InvalidBody(f"unknown body kind {kind!r}")
        n = len(vertices)
        if kind == "point" and n != 1:
            raise InvalidBody("point body needs exactly one vertex")
        if kind == "segment":
            if n != 2:
                raise InvalidBody("segment body needs exactly two vertices")
            if vertices[0].euclid_to(vertices[1]) <= 1e-12:
                raise InvalidBody("segment endpoints coincide")
        if kind == "polygon":
            if n < 3:
                raise InvalidBody("polygon body needs at least three vertices")
            vertices = _ccw_convex(vertices)
        return super().__new__(cls, kind, vertices)

    @classmethod
    def point(cls, p: DiskPoint) -> "ConvexBody":
        return cls("point", (p,))

    @classmethod
    def segment(cls, p: DiskPoint, q: DiskPoint) -> "ConvexBody":
        return cls("segment", (p, q))

    @classmethod
    def polygon(cls, vertices) -> "ConvexBody":
        return cls("polygon", tuple(vertices))


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
        if _signed_area2(vertices[i], vertices[(i + 1) % n], vertices[(i + 2) % n]) <= 1e-12:
            raise InvalidBody("polygon is not strictly convex in CCW order")
    return vertices


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


class Piece(NamedTuple):
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


def _add_laps(total: float, gaps: list[float], steps: int) -> float:
    """total plus the first ``steps`` terms of the cycle ``gaps``, with the
    bits of adding them one at a time.  Inside one binade an add moves the
    sum by its gap rounded to the binade's ulp, unless the gap is a tie (an
    odd multiple of half an ulp).  So after a lap stepped inside one binade
    with no tie, the next m laps add m times its increment, exactly, while
    the sum stays below the next power of two."""
    laps, tail = divmod(steps, len(gaps) or 1)
    while laps:
        start = total
        for g in gaps:
            total += g
        laps -= 1
        ulp = math.ulp(start)
        if laps and math.ulp(total) == ulp and not any(g / ulp % 1.0 == 0.5 for g in gaps):
            lap = total - start
            room = 2 ** 53 - int(total / ulp)  # ulps below the next power of two
            m = min(laps, (room - 1) // int(lap / ulp))
            total += m * lap
            laps -= m
    for g in gaps[:tail]:
        total += g
    return total


class TangentMap:
    """Evaluable bar-billiard map of a body: ``TangentMap(body)``.

    The body fixes the map, so the constructor builds the breakpoint table
    from it: one breakpoint per supporting edge.  For the edge from vertex
    i to vertex i+1 the breakpoint is the ideal endpoint nearer vertex i,
    and the arc it opens is served by vertex i+1.  A segment is handled as
    a 2-gon with both edge orientations; a point body has an empty table
    and a single arc.

    ``breakpoints`` lists (ideal point, active vertex index) sorted by
    angle; the vertex is the tangency on the left-closed arc starting at
    that breakpoint.  ``_bp_angles`` holds the breakpoint angles and
    ``_arc_verts`` each arc's active vertex P as x + iy; arc -1 wraps past
    angle 1 and is the only arc of a point body.

    Immutable, and compared, hashed and pickled by its body.  A slot
    class, not a named tuple: equality, hash and pickling read the body
    alone, and the tables stay private fields, where a named tuple would
    make them public and compare them too.
    """

    __slots__ = ("body", "breakpoints", "_bp_angles", "_arc_verts")

    def __init__(self, body: ConvexBody):
        vs = body.vertices
        n = len(vs) if body.kind != "point" else 0
        breakpoints = tuple(sorted(
            ((chord_through(vs[i], vs[(i + 1) % n]).a, (i + 1) % n) for i in range(n)),
            key=lambda e: e[0].angle))
        bp_angles = tuple(u.angle for u, _ in breakpoints)
        if any(a2 - a1 <= SNAP for a1, a2 in zip(bp_angles, bp_angles[1:])):
            raise InvalidBody("breakpoints collide; body is numerically degenerate")
        verts = [complex(p.x, p.y) for p in vs]
        arc_verts = tuple(verts[k] for _, k in breakpoints) or (verts[0],)
        for name, value in zip(self.__slots__, (body, breakpoints, bp_angles, arc_verts)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self.body == other.body if type(other) is TangentMap else NotImplemented

    def __hash__(self) -> int:
        return hash(self.body)

    def __reduce__(self):
        return TangentMap, (self.body,)

    def __repr__(self) -> str:
        return f"TangentMap(body={self.body!r}, breakpoints={self.breakpoints!r})"

    def eval_angle(self, a: float) -> float:
        """Image angle (turns in [0,1)) of the boundary point at angle a."""
        P = self._arc_verts[bisect_right(self._bp_angles, (a + SNAP) % 1.0) - 1]
        return wrap_turns(_turn(P, a))

    def gap_angle(self, a: float) -> float:
        """CCW winding gap from a to its image, in (0, 1) turns.

        For |z| = 1, 1 - conj(P) z = z conj(z - P), so the half-turn about
        P sends z to -z (1 - P conj(z)) / conj(1 - P conj(z)): it moves the
        angle a by 1/2 + arg(1 - P conj(z)) / pi, which Re(1 - P conj(z))
        >= 1 - |P| > 0 keeps strictly inside (0, 1), with no wrap.  That is
        a more accurate gap than a's distance to :meth:`eval_angle`, but a
        plus it is a less accurate image than the quotient, which
        :meth:`eval_angle` and the pullback of :meth:`pieces` keep.
        """
        P = self._arc_verts[bisect_right(self._bp_angles, (a + SNAP) % 1.0) - 1]
        return 0.5 + phase(1.0 - P * rect(1.0, -TWO_PI * a)) / math.pi

    def gap_angles(self, angles) -> list[float]:
        """:meth:`gap_angle` of each angle, reduced mod 1.  Its only caller
        is the benchmark tracer, which binds it by name."""
        return [self.gap_angle(float(a) % 1.0) for a in angles]

    def lift_iter(self, x: float, n: int) -> float:
        """n-fold lift F^n(x) of the map, accumulating the winding gap
        1/2 + arg(1 - P conj(z)) / pi per step; the lift F has
        F(x+1) = F(x) + 1 and F(x) - x in (0, 1).

        The gap depends on the angle alone, so once the float orbit repeats
        an angle exactly (on a locked rotation number every orbit is drawn
        to a periodic one) its gaps repeat too.  Brent's cycle detection
        (Brent, BIT 20, 1980) compares each angle with the one saved at the
        last power-of-two step: the steps run in blocks that end at steps
        1, 2, 4, 8, ..., each comparing with the angle saved at its start.
        At a repeat lam steps after the saved angle, one more lap collects
        the cycle's lam gaps, and the remaining steps add them in orbit
        order, whole laps a binade at a time (``_add_laps``): the sum is
        bit-identical to stepping all n.  Orbits that never repeat exactly
        (unlocked, or semi-stable and converging too slowly) are stepped
        all n.

        Each step is :meth:`gap_angle` taken inline, in its float
        operations and their order; on a triangle's three breakpoints two
        comparisons find the arc that ``bisect_right`` finds, which picks
        it on other bodies.  An angle in [0, 1] and SNAP or a gap in (0, 1)
        sum below 2, so subtracting 1 from a sum at or past 1 is exact and
        wraps it as ``% 1.0`` does.  The step must keep :meth:`gap_angle`'s
        bits: the replay collects the cycle's gaps through it, so a step
        rounded otherwise would replay a cycle it never stepped.
        """
        if n < 0 or n > ITERATION_BUDGET:
            raise OutOfRange(f"lift iteration count {n} out of budget")
        bps, arcs = self._bp_angles, self._arc_verts
        three = len(bps) == 3
        if three:
            b0, b1, b2 = bps
            P0, P1, P2 = arcs
        snap, turn, arg, pi, back = SNAP, rect, phase, math.pi, -TWO_PI
        a = x % 1.0
        total, k, end = 0.0, 0, 1
        while k < n:
            saved_a, saved_k = a, k
            for k in range(k + 1, (end if end < n else n) + 1):
                s = a + snap
                if s >= 1.0:
                    s -= 1.0
                P = (((P0 if s >= b0 else P2) if s < b1 else P1 if s < b2 else P2) if three
                     else arcs[bisect_right(bps, s) - 1])
                g = 0.5 + arg(1.0 - P * turn(1.0, back * a)) / pi
                total += g
                a += g
                if a >= 1.0:
                    a -= 1.0
                if a == saved_a:
                    break
            else:  # no repeat in this block: save the angle, run the next
                end += end
                continue
            break  # a repeat: collect its lap
        else:
            return x + total  # no repeat within n steps
        gaps = []
        for _ in range(min(k - saved_k, n - k)):
            gaps.append(self.gap_angle(a))
            a = (a + gaps[-1]) % 1.0
        return x + _add_laps(total, gaps, n - k)

    def pieces(self, n: int) -> list[Piece]:
        """The n-fold map as Mobius pieces, in angle order from the first cut.

        The cuts F^{-j}(bp_i), j < n, are stepped back a half-turn at a
        time (F^{-1} on the image arc [F(bp_k), F(bp_k+1)) is arc k's
        half-turn, its own inverse), tagged (j, i) and merged within SNAP,
        each merged cut keeping its tags.  A piece's map is the product of
        the half-turns along its itinerary.  Crossing the cut tagged (j, i)
        counterclockwise moves the j-th iterate into arc i, so each piece
        takes arc i's half-turn as step j for each tag of the cut it starts
        at, and recomposes its prefix products from the lowest level that
        cut changed, in the order a walk of its midpoint would compose them.
        No midpoint is walked: one lap of the tags gives the first piece's
        itinerary.
        """
        if n < 1 or n > ITERATION_BUDGET:
            raise OutOfRange(f"piece order {n} out of budget")
        bps, verts, m = self._bp_angles, self._arc_verts, len(self._bp_angles)
        images = sorted((self.eval_angle(a), k) for k, a in enumerate(bps))
        image_angles = [a for a, _ in images]
        image_verts = [verts[k] for _, k in images]
        level, flat = list(bps), list(bps)  # flat[j * m + i] is F^{-j}(bp_i)
        for _ in range(n - 1):
            level = [_turn(image_verts[bisect_right(image_angles, y) - 1], y) % 1.0
                     for y in level]
            flat.extend(level)
        # a cut within SNAP of the wrap point is put on it, so a zero there
        # reads 0 rather than 1 - ulp; a cut's tags stay in angle order
        keys = [c - 1.0 if 1.0 - c <= SNAP else c for c in flat]
        cuts, tags = [], []
        for k in sorted(range(len(keys)), key=keys.__getitem__):
            c = 0.0 if -SNAP <= keys[k] <= SNAP else keys[k]
            if not cuts or c - cuts[-1] > SNAP:
                cuts.append(c)
                tags.append([])
            tags[-1].append(k)
        # a cut merged with a breakpoint lands on it: from there on its chain
        # is the breakpoint's but for rounding, which F^{-1} may spread past
        # SNAP, so its tags cross where the breakpoint chain's cuts do
        lands = {k: min(g) for g in tags if len(g) > 1 and min(g) < m for k in g if k >= m}
        if lands:
            rep = list(range(len(flat)))
            for k in range(m, len(flat)):
                r = rep[k - m] + m
                rep[k] = rep[r] if r < k else lands.get(k, k)
            where = {k: p for p, g in enumerate(tags) for k in g}
            tags = [[] for _ in tags]
            for k in where:
                tags[where[rep[k]]].append(k)
        ends = cuts + [cuts[0] + 1.0] if cuts else [0.0, 1.0]
        turns = [_half_turn(P) for P in verts]
        # steps[j] is the half-turn of the j-th iterate's arc; one lap of the
        # tags sets each step, as every level has cuts (a point body has one
        # arc and none), and leaves them as they are on the last piece
        steps = [turns[-1]] * n
        for k in (k for g in tags for k in g):
            steps[k // m] = turns[k % m]
        prefix, pieces = [(1.0 + 0j, 0j)] * (n + 1), []
        for p, g in enumerate(tags or [[]]):
            for k in g:
                steps[k // m] = turns[k % m]
            start = min(g, default=m * n) // m if p else 0
            a, b = prefix[start]
            for j in range(start, n):  # _compose(steps[j], prefix[j]), inline
                sa, sb = steps[j]
                a, b = sa * a + sb * b.conjugate(), sa * b + sb * a.conjugate()
                prefix[j + 1] = a, b
            pieces.append(Piece(ends[p], ends[p + 1], a, b))
        return pieces

    def orbit(self, v: IdealPoint, n: int) -> list[IdealPoint]:
        """Iterates [v, map(v), ..., map^n(v)]."""
        if n < 0 or n > ITERATION_BUDGET:
            raise OutOfRange(f"orbit length {n} out of budget")
        pts = [v]
        a = v.angle
        for _ in range(n):
            a = self.eval_angle(a)
            pts.append(IdealPoint(a))
        return pts

