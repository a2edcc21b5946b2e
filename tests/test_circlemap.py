import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from barbilliard import (
    ConvexBody,
    DiskPoint,
    IdealPoint,
    InvalidBody,
    IterationBudgetExceeded,
    Triangle,
    build_tangent_map,
    ellipse_pentagram,
    second_intersection,
    standard_pentagram,
)
from barbilliard.circlemap import TangentMap
from barbilliard.geometry import angular_distance, ccw_gap
from conftest import random_convex_polygon, random_disk_points

SQRT7 = math.sqrt(7.0)


def fig_triangle_map():
    tri = Triangle(DiskPoint(0.0, 0.5), DiskPoint(-0.5, 0.0), DiskPoint(0.0, -0.5))
    return build_tangent_map(ConvexBody.triangle(tri))


def canonical_map(t):
    tri = Triangle(
        DiskPoint(0.0, t), DiskPoint(0.0, -t), DiskPoint((t - 1.0) / (t + 1.0), 0.0)
    )
    return build_tangent_map(ConvexBody.triangle(tri))


class TestSecondIntersection:
    def test_antipode_through_center(self):
        w = second_intersection(IdealPoint(0.0), DiskPoint(0.0, 0.0))
        assert w.angle == pytest.approx(0.5, abs=1e-12)

    def test_high_point(self):
        w = second_intersection(IdealPoint.from_xy(1.0, 0.0), DiskPoint(0.0, 0.9))
        assert w.xy[0] == pytest.approx(-0.19 / 1.81, abs=1e-12)
        assert w.xy[1] == pytest.approx(1.8 / 1.81, abs=1e-12)

    def test_diameter(self):
        w = second_intersection(IdealPoint.from_xy(1.0, 0.0), DiskPoint(0.5, 0.0))
        assert w.xy[0] == pytest.approx(-1.0, abs=1e-12)

    def test_collinearity(self, rng):
        for _ in range(100):
            v = IdealPoint(float(rng.uniform(0, 1)))
            x, y = rng.uniform(-0.6, 0.6, 2)
            p = DiskPoint(float(x), float(y))
            w = second_intersection(v, p)
            vx, vy = v.xy
            wx, wy = w.xy
            cross = (wx - vx) * (p.y - vy) - (wy - vy) * (p.x - vx)
            assert abs(cross) < 1e-12
            assert angular_distance(v.angle, w.angle) > 1e-9


class TestBuildTangentMap:
    def test_fig_triangle_breakpoints(self):
        tmap = fig_triangle_map()
        assert len(tmap.breakpoints) == 3
        angles = {round(u.angle, 6) for u, _ in tmap.breakpoints}
        u1 = IdealPoint.from_xy((-1 + SQRT7) / 4, (1 + SQRT7) / 4)
        u3 = IdealPoint.from_xy(0.0, -1.0)
        assert round(u1.angle, 6) in angles
        assert round(u3.angle, 6) in angles
        xs = sorted((u.xy[0], u.xy[1]) for u, _ in tmap.breakpoints)
        assert xs[0][0] == pytest.approx(-(1 + SQRT7) / 4, abs=1e-9)

    def test_segment_breakpoints(self):
        tmap = build_tangent_map(
            ConvexBody.segment(DiskPoint(0.0, 0.9), DiskPoint(0.0, -0.9))
        )
        angles = sorted(u.angle for u, _ in tmap.breakpoints)
        assert angles[0] == pytest.approx(0.25, abs=1e-12)
        assert angles[1] == pytest.approx(0.75, abs=1e-12)

    def test_point_has_no_breakpoints(self):
        tmap = build_tangent_map(ConvexBody.point(DiskPoint(0.2, 0.1)))
        assert tmap.breakpoints == ()

    def test_nonconvex_rejected(self):
        pts = [
            DiskPoint(0.5, 0.0),
            DiskPoint(0.0, 0.5),
            DiskPoint(-0.5, 0.0),
            DiskPoint(0.0, -0.5),
            DiskPoint(0.05, 0.0),
        ]
        with pytest.raises(InvalidBody):
            ConvexBody.polygon(pts)

    def test_cw_input_flipped(self):
        body = ConvexBody.polygon(
            [DiskPoint(0.0, 0.5), DiskPoint(0.5, 0.0), DiskPoint(-0.5, 0.0)]
        )
        verts = body.vertices
        area2 = sum(
            verts[i].x * verts[(i + 1) % 3].y - verts[i].y * verts[(i + 1) % 3].x
            for i in range(3)
        )
        assert area2 > 0


class TestEvaluate:
    def test_fig_triangle_example(self):
        tmap = fig_triangle_map()
        w = tmap.evaluate(IdealPoint.from_xy(1.0, 0.0))
        assert w.xy[0] == pytest.approx(-0.6, abs=1e-12)
        assert w.xy[1] == pytest.approx(0.8, abs=1e-12)

    def test_canonical_orbit_t09(self):
        tmap = canonical_map(0.9)
        tri_pts = [
            IdealPoint.from_xy(1.0, 0.0),
            IdealPoint.from_xy(-0.19 / 1.81, 1.8 / 1.81),
            IdealPoint.from_xy(0.0, -1.0),
            IdealPoint.from_xy(0.0, 1.0),
            IdealPoint.from_xy(-0.19 / 1.81, -1.8 / 1.81),
        ]
        for i in range(5):
            img = tmap.evaluate(tri_pts[i])
            assert angular_distance(img.angle, tri_pts[(i + 1) % 5].angle) < 1e-12

    def test_breakpoint_uses_incoming_arc_vertex(self):
        # left-closed arcs: at a breakpoint the next edge's far vertex serves
        tmap = fig_triangle_map()
        for u, k in tmap.breakpoints:
            assert tmap.active_vertex_index(u.angle) == k

    def test_ccw_gap_in_unit_interval(self, rng):
        tmap = fig_triangle_map()
        for a in rng.uniform(0, 1, 200):
            g = tmap.gap_angle(float(a))
            assert 0.0 < g < 1.0

    def test_vector_path_matches_scalar(self, rng):
        for tmap in (fig_triangle_map(), canonical_map(0.9)):
            angles = np.concatenate(
                [rng.uniform(0, 1, 300), [u.angle for u, _ in tmap.breakpoints]]
            )
            vec = tmap.gap_angles(angles)
            assert type(vec) is list and len(vec) == len(angles)
            for a, b in zip(angles, vec):
                assert abs(tmap.gap_angle(float(a)) - b) < 1e-13


def chord_construction(tmap, a):
    """Reference step in the Klein model: the second intersection w of the
    circle with the line from v (at angle a) through the active vertex P,
    as an angle in turns, and the chord ratio |P w| / |v P|."""
    p = tmap.body.vertices[tmap.active_vertex_index(a)]
    t = 2.0 * math.pi * a
    vx, vy = math.cos(t), math.sin(t)
    dx, dy = p.x - vx, p.y - vy
    s = -2.0 * (vx * dx + vy * dy) / (dx * dx + dy * dy)
    wx, wy = vx + s * dx, vy + s * dy
    image = math.atan2(wy, wx) / (2.0 * math.pi) % 1.0
    return image, math.hypot(wx - p.x, wy - p.y) / math.hypot(dx, dy)


def assorted_maps(rng):
    """Random point, segment and polygon maps (vertices within radius
    0.92), then the figure and canonical triangles."""
    maps = []
    for k in range(30):
        if k % 3 == 0:
            body = ConvexBody.point(random_disk_points(rng, 1)[0])
        elif k % 3 == 1:
            body = ConvexBody.segment(*random_disk_points(rng, 2))
        else:
            body = random_convex_polygon(rng, n=3 + k % 5, radius=0.3 + 0.02 * k)
        maps.append(build_tangent_map(body))
    return maps + [fig_triangle_map(), canonical_map(0.9)]


class TestHalfTurn:
    """The map step w = (P - z)/(1 - conj(P) z) against the chord it stands for."""

    def test_matches_chord_construction(self, rng):
        for tmap in assorted_maps(rng):
            angles = [float(a) for a in rng.uniform(0, 1, 300)]
            for u, _ in tmap.breakpoints:
                angles += [u.angle, (u.angle + 2e-12) % 1.0, (u.angle - 2e-12) % 1.0]
            for a in angles:
                image, _ = chord_construction(tmap, a)
                assert angular_distance(tmap.eval_angle(a), image) <= 1e-15

    def test_derivative_is_chord_ratio(self, rng):
        for tmap in assorted_maps(rng):
            angles = [float(a) for a in rng.uniform(0, 1, 100)]
            angles += [u.angle for u, _ in tmap.breakpoints]
            for a in angles:
                _, ratio = chord_construction(tmap, a)
                d = tmap.derivative(IdealPoint(a))
                assert d.right == pytest.approx(ratio, rel=1e-12)

    def test_lift_iter_sums_one_eval_per_step(self, rng, eval_calls):
        for tmap in assorted_maps(rng)[::4]:
            for x in [0.0, -1.7, 2.25] + [float(v) for v in rng.uniform(-3, 3, 3)]:
                for n in (0, 1, 2, 7, 400, 10_000):
                    plain = plain_lift(tmap, x, n)
                    eval_calls[0] = 0
                    lifted = tmap.lift_iter(x, n)
                    # at most one evaluation per step: a repeating orbit is replayed
                    assert eval_calls[0] <= n
                    assert lifted == plain

    def test_locked_orbit_is_replayed(self, eval_calls):
        """The canonical sandwich locks at 2/5: its float orbit repeats
        exactly, and the replayed sum equals the stepped one around the lock."""
        tmap = build_tangent_map(ConvexBody.triangle(Triangle(
            DiskPoint(0.0, 0.9), DiskPoint(0.0, -0.9), DiskPoint(-0.02, 0.0))))
        lock, lam = first_repeat(tmap, 0.0, 10_000)
        plain = plain_lift(tmap, 0.0, 10_000)
        eval_calls[0] = 0
        assert tmap.lift_iter(0.0, 10_000) == plain
        assert eval_calls[0] < 1000
        for n in (lock - 1, lock, lock + 1, lock + lam):
            assert tmap.lift_iter(0.0, n) == plain_lift(tmap, 0.0, n)

    def test_semi_stable_orbit_is_stepped(self, eval_calls):
        """On a threshold triangle the orbit creeps onto its semi-stable
        period-5 orbit and never repeats exactly: every step is evaluated."""
        tmap = build_tangent_map(ConvexBody.triangle(ellipse_pentagram(0.9, 0.1)[0]))
        assert first_repeat(tmap, 0.0, 5000) is None
        plain = plain_lift(tmap, 0.0, 5000)
        eval_calls[0] = 0
        assert tmap.lift_iter(0.0, 5000) == plain
        assert eval_calls[0] == 5000

    @seed(20240817)
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(kind=st.sampled_from(("point", "segment", "polygon")),
           body_seed=st.integers(0, 2**32 - 1),
           x=st.floats(-10.0, 10.0, allow_nan=False),
           n=st.integers(0, 5000))
    def test_lift_iter_is_the_stepped_sum(self, kind, body_seed, x, n):
        rng = np.random.default_rng(body_seed)
        if kind == "point":
            body = ConvexBody.point(random_disk_points(rng, 1)[0])
        elif kind == "segment":
            body = ConvexBody.segment(*random_disk_points(rng, 2))
        else:
            body = random_convex_polygon(rng, n=int(rng.integers(3, 8)), radius=0.85)
        tmap = build_tangent_map(body)
        assert tmap.lift_iter(x, n) == plain_lift(tmap, x, n)


@pytest.fixture
def eval_calls(monkeypatch):
    """A one-item list counting TangentMap.eval_angle calls."""
    eval_angle = TangentMap.eval_angle
    calls = [0]

    def counted(self, a):
        calls[0] += 1
        return eval_angle(self, a)

    monkeypatch.setattr(TangentMap, "eval_angle", counted)
    return calls


def plain_lift(tmap, x, n):
    """F^n(x) stepped one map evaluation at a time."""
    a, total = x % 1.0, 0.0
    for _ in range(n):
        g = ccw_gap(a, tmap.eval_angle(a))
        total += g
        a = (a + g) % 1.0
    return x + total


def first_repeat(tmap, x, n):
    """(k, lam): the first step k within n whose angle the orbit of x had
    lam steps before, or None."""
    a = x % 1.0
    seen = {a: 0}
    for k in range(1, n + 1):
        a = (a + ccw_gap(a, tmap.eval_angle(a))) % 1.0
        if a in seen:
            return k, k - seen[a]
        seen[a] = k
    return None


class TestDerivative:
    def test_fig_triangle_value(self):
        tmap = fig_triangle_map()
        d = tmap.derivative(IdealPoint.from_xy(1.0, 0.0))
        assert d.left == pytest.approx(0.6, abs=1e-12)
        assert d.right == pytest.approx(0.6, abs=1e-12)

    def test_point_at_center_unit(self):
        tmap = build_tangent_map(ConvexBody.point(DiskPoint(0.0, 0.0)))
        d = tmap.derivative(IdealPoint(0.3))
        assert d.left == pytest.approx(1.0, abs=1e-12)
        assert d.right == pytest.approx(1.0, abs=1e-12)

    def test_matches_finite_difference(self, rng):
        h = 1e-6
        bodies = [
            build_tangent_map(ConvexBody.point(DiskPoint(0.3, -0.2))),
            build_tangent_map(
                ConvexBody.segment(DiskPoint(-0.3, 0.4), DiskPoint(0.2, -0.5))
            ),
            canonical_map(0.9),
            build_tangent_map(random_convex_polygon(rng)),
        ]
        for tmap in bodies:
            bps = [u.angle for u, _ in tmap.breakpoints]
            checked = 0
            for a in rng.uniform(0, 1, 120):
                a = float(a)
                if bps and min(angular_distance(a, b) for b in bps) < 1e-3:
                    continue
                fd = (tmap.lift(a + h) - tmap.lift(a - h)) / (2.0 * h)
                d = tmap.derivative(IdealPoint(a))
                assert d.left == pytest.approx(d.right, rel=1e-9)
                assert fd == pytest.approx(d.right, rel=1e-4)
                checked += 1
            assert checked > 50

    def test_point_body_monotonicity(self):
        # the chord-map derivative rises on the far arc and falls on the near arc
        p = DiskPoint(0.35, 0.15)
        tmap = build_tangent_map(ConvexBody.point(p))
        theta = math.atan2(p.y, p.x) / (2 * math.pi)
        u1 = theta  # diameter endpoint nearer p
        u2 = (theta + 0.5) % 1.0
        rising = [(u2 + f * 0.499) % 1.0 for f in np.linspace(0.001, 0.999, 40)]
        vals = [tmap.derivative(IdealPoint(a)).right for a in rising]
        assert all(x < y for x, y in zip(vals, vals[1:]))
        falling = [(u1 + f * 0.499) % 1.0 for f in np.linspace(0.001, 0.999, 40)]
        vals = [tmap.derivative(IdealPoint(a)).right for a in falling]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_corner_left_exceeds_right(self, rng):
        for tmap in (fig_triangle_map(), canonical_map(0.9)):
            for u, _ in tmap.breakpoints:
                d = tmap.derivative(u)
                assert d.left > d.right


class TestLift:
    def test_point_at_center_half_turn(self):
        tmap = build_tangent_map(ConvexBody.point(DiskPoint(0.0, 0.0)))
        for x in (-1.2, 0.0, 0.3, 2.7):
            assert tmap.lift(x) == pytest.approx(x + 0.5, abs=1e-12)

    def test_canonical_fifth_iterate_winds_twice(self):
        tmap = canonical_map(0.9)
        assert tmap.lift_iter(0.0, 5) == pytest.approx(2.0, abs=1e-9)

    def test_equivariance(self, rng):
        tmap = fig_triangle_map()
        for x in (0.3, -0.7, 1.9):
            assert tmap.lift(x + 1.0) - tmap.lift(x) == pytest.approx(1.0, abs=1e-12)

    def test_projects_to_evaluate(self, rng):
        tmap = canonical_map(0.7)
        for a in rng.uniform(0, 1, 100):
            a = float(a)
            assert angular_distance(tmap.lift(a) % 1.0, tmap.eval_angle(a)) < 1e-12

    def test_orientation_preserving(self, rng):
        for tmap in (fig_triangle_map(), canonical_map(0.9)):
            xs = np.sort(rng.uniform(0, 1, 200))
            ys = [tmap.lift(float(x)) for x in xs]
            assert all(a < b for a, b in zip(ys, ys[1:]))
            assert all(
                tmap.lift(float(x)) < tmap.lift(float(x) + 0.999) < tmap.lift(float(x)) + 1.0
                for x in xs[:20]
            )

    def test_inclusion_monotonicity(self, rng):
        # a larger body advances the lift no further than any body inside it
        for _ in range(10):
            poly = random_convex_polygon(rng, n=5)
            big = build_tangent_map(poly)
            sub = build_tangent_map(
                ConvexBody.polygon([poly.vertices[0], poly.vertices[2], poly.vertices[4]])
            )
            contains_origin = True
            verts = poly.vertices
            for i in range(len(verts)):
                a, b = verts[i], verts[(i + 1) % len(verts)]
                if a.x * b.y - a.y * b.x <= 0:
                    contains_origin = False
            for x in np.linspace(0.0, 1.0, 64, endpoint=False):
                assert big.lift(float(x)) <= sub.lift(float(x)) + 1e-12
            if contains_origin:
                scaled = build_tangent_map(
                    ConvexBody.polygon(
                        [DiskPoint(0.5 * v.x, 0.5 * v.y) for v in verts]
                    )
                )
                for x in np.linspace(0.0, 1.0, 64, endpoint=False):
                    assert big.lift(float(x)) <= scaled.lift(float(x)) + 1e-12


class TestOrbit:
    def test_canonical_closure(self):
        tmap = canonical_map(0.9)
        pts = tmap.orbit(IdealPoint(0.0), 5)
        assert len(pts) == 6
        assert angular_distance(pts[5].angle, 0.0) < 1e-9

    def test_zero_length(self):
        tmap = fig_triangle_map()
        v = IdealPoint(0.123)
        assert tmap.orbit(v, 0) == [v]

    def test_budget_enforced(self):
        tmap = fig_triangle_map()
        with pytest.raises(IterationBudgetExceeded):
            tmap.orbit(IdealPoint(0.0), 10_000_001)

    def test_ideal_endpoint_orbit_stays_on_circle(self, ex31_map):
        v = IdealPoint.from_xy(-0.25, math.sqrt(15.0) / 4.0)
        for p in ex31_map.orbit(v, 12):
            assert 0.0 <= p.angle < 1.0


def test_standard_pentagram_lift_example():
    tri, pent = standard_pentagram(0.9)
    assert pent.points[0].angle == pytest.approx(0.0, abs=1e-12)
