import math

import numpy as np
import pytest

from barbilliard import (
    CoincidentPoints,
    DiskPoint,
    IdealPoint,
    InfeasibleSides,
    InvalidBody,
    KleinIsometry,
    NonpositiveDistance,
    OutOfRange,
    Triangle,
    apply,
    chord_through,
    delta_from_sides,
    delta_n,
    equidistant_x,
    foot_and_delta,
    hyp_distance,
    normalize_pair,
)
from conftest import random_disk_points, random_triangle

SQRT5 = math.sqrt(5.0)
D_EQUILATERAL = math.log((SQRT5 + 1.0) / (SQRT5 - 1.0))
LOG_SQRT5 = 0.5 * math.log(5.0)


class TestDiskPoint:
    def test_interior_ok(self):
        p = DiskPoint(0.3, -0.4)
        assert p.xy == (0.3, -0.4)

    def test_boundary_rejected(self):
        with pytest.raises(InvalidBody):
            DiskPoint(1.0, 0.0)
        with pytest.raises(InvalidBody):
            DiskPoint(0.8, 0.61)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidBody):
            DiskPoint(float("nan"), 0.0)


class TestIdealPoint:
    def test_angle_wraps(self):
        assert IdealPoint(1.25).angle == pytest.approx(0.25, abs=1e-15)
        assert IdealPoint(-0.25).angle == pytest.approx(0.75, abs=1e-15)

    def test_unit_vector(self):
        p = IdealPoint.from_xy(3.0, 4.0)
        assert math.hypot(*p.xy) == pytest.approx(1.0, abs=1e-12)


class TestChordThrough:
    def test_equilateral_base(self):
        p = DiskPoint(-0.25, math.sqrt(3.0) / 4.0)
        q = DiskPoint(-0.25, -math.sqrt(3.0) / 4.0)
        ch = chord_through(p, q)
        ax, ay = ch.a.xy
        assert ax == pytest.approx(-0.25, abs=1e-12)
        assert ay == pytest.approx(math.sqrt(15.0) / 4.0, abs=1e-12)
        bx, by = ch.b.xy
        assert by == pytest.approx(-math.sqrt(15.0) / 4.0, abs=1e-12)

    def test_horizontal_diameter(self):
        ch = chord_through(DiskPoint(0.5, 0.0), DiskPoint(-0.25, 0.0))
        assert ch.a.xy[0] == pytest.approx(1.0, abs=1e-12)
        assert ch.b.xy[0] == pytest.approx(-1.0, abs=1e-12)

    def test_vertical_diameter(self):
        ch = chord_through(DiskPoint(0.0, 0.9), DiskPoint(0.0, -0.9))
        assert ch.a.xy[1] == pytest.approx(1.0, abs=1e-12)
        assert ch.b.xy[1] == pytest.approx(-1.0, abs=1e-12)

    def test_coincident_rejected(self):
        with pytest.raises(CoincidentPoints):
            chord_through(DiskPoint(0.1, 0.1), DiskPoint(0.1, 0.1))


class TestHypDistance:
    def test_equilateral_base(self):
        p = DiskPoint(-0.25, math.sqrt(3.0) / 4.0)
        q = DiskPoint(-0.25, -math.sqrt(3.0) / 4.0)
        assert hyp_distance(p, q) == pytest.approx(D_EQUILATERAL, abs=1e-12)

    def test_same_point_is_zero(self):
        p = DiskPoint(0.3, 0.2)
        assert hyp_distance(p, p) == 0.0

    def test_vertical_pair(self):
        d = hyp_distance(DiskPoint(0.0, 0.9), DiskPoint(0.0, -0.9))
        assert d == pytest.approx(math.log(19.0), abs=1e-12)

    def test_matches_cross_ratio_definition(self, rng):
        # the defining half log cross-ratio, via the chord endpoints
        for _ in range(200):
            p, q = random_disk_points(rng, 2)
            if p.euclid_to(q) < 1e-3:
                continue
            ch = chord_through(p, q)
            v1, v2 = ch.a.xy, ch.b.xy

            def d(a, b):
                return math.hypot(a[0] - b[0], a[1] - b[1])

            cross = (d(v1, q.xy) * d(v2, p.xy)) / (d(v1, p.xy) * d(v2, q.xy))
            assert hyp_distance(p, q) == pytest.approx(
                0.5 * abs(math.log(cross)), abs=1e-10
            )

    def test_symmetry_exact(self, rng):
        for _ in range(100):
            p, q = random_disk_points(rng, 2)
            assert hyp_distance(p, q) == hyp_distance(q, p)


class TestDeltaN:
    def test_equilateral_threshold(self):
        assert delta_n(D_EQUILATERAL, 1) == pytest.approx(LOG_SQRT5, abs=1e-12)

    def test_vertical_pair_thresholds(self):
        d = math.log(19.0)
        assert delta_n(d, 1) == pytest.approx(math.log(10.0 / 9.0), abs=1e-12)
        assert delta_n(d, 2) == pytest.approx(math.log(362.0 / 360.0), abs=1e-12)

    def test_order_two_closed_form(self):
        # log((t^2+1)/(2t)) for the normalized pair at height t
        for t in (0.3, 0.6, 0.9):
            d = math.log((1.0 + t) / (1.0 - t))
            assert delta_n(d, 2) == pytest.approx(
                math.log((t * t + 1.0) / (2.0 * t)), abs=1e-12
            )

    def test_monotone_in_order_and_distance(self):
        for d in np.linspace(0.05, 3.0, 30):
            assert delta_n(d, 2) < delta_n(d, 1)
            assert delta_n(d, 3) < delta_n(d, 2)
        grid = np.linspace(0.05, 3.0, 30)
        vals = [delta_n(float(d), 1) for d in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_50_digit_reference(self, rng):
        # long bases put coth(n d / 2) near 1, where -log(tanh) lost 1e-9
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(50):
            for _ in range(500):
                d, n = float(rng.uniform(0.5, 6.0)), int(rng.integers(1, 4))
                x = n * mpmath.mpf(d)
                ref = mpmath.log((mpmath.exp(x) + 1) / (mpmath.exp(x) - 1))
                worst = max(worst, float(abs(delta_n(d, n) - ref) / ref))
        assert worst <= 1e-14

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(NonpositiveDistance):
            delta_n(0.0, 1)
        with pytest.raises(NonpositiveDistance):
            delta_n(-1.0, 2)


def near_line_apex(rng, gap):
    """(p, q, r) with r a Euclidean distance gap off the line pq."""
    while True:
        p, q = random_disk_points(rng, 2, rmax=0.9)
        d = np.array([q.x - p.x, q.y - p.y])
        if np.hypot(*d) < 0.05:
            continue
        off = gap * rng.choice((-1.0, 1.0)) * np.array([-d[1], d[0]]) / np.hypot(*d)
        x, y = np.array(p.xy) + rng.uniform(-0.5, 1.5) * d + off
        if x * x + y * y < 0.85:
            return p, q, DiskPoint(float(x), float(y))


class TestFootAndDelta:
    def test_equilateral_drop(self, ex31_triangle):
        p, q, r = (
            DiskPoint(-0.25, math.sqrt(3.0) / 4.0),
            DiskPoint(-0.25, -math.sqrt(3.0) / 4.0),
            DiskPoint(0.5, 0.0),
        )
        foot, delta = foot_and_delta(p, q, r)
        assert foot.x == pytest.approx(-0.25, abs=1e-9)
        assert foot.y == pytest.approx(0.0, abs=1e-9)
        assert delta == pytest.approx(LOG_SQRT5, abs=1e-10)

    def test_mirror_symmetric_family(self):
        for t, r in ((0.9, -0.25), (0.5, 0.3), (0.7, -0.02)):
            foot, delta = foot_and_delta(
                DiskPoint(0.0, t), DiskPoint(0.0, -t), DiskPoint(r, 0.0)
            )
            assert foot.x == pytest.approx(0.0, abs=1e-9)
            assert foot.y == pytest.approx(0.0, abs=1e-9)
            assert delta == pytest.approx(math.atanh(abs(r)), abs=1e-10)

    def test_agrees_with_side_formula(self, rng):
        for _ in range(1000):
            tri = random_triangle(rng)
            p, q, r = tri.vertices
            _, delta = foot_and_delta(p, q, r)
            expected = delta_from_sides(
                hyp_distance(q, r), hyp_distance(r, p), hyp_distance(p, q)
            )
            assert delta == pytest.approx(expected, abs=1e-10)

    def test_matches_50_digit_reference(self, rng):
        # generic triangles, then apexes 1e-3 to 1e-6 off the base line,
        # where X . m cancels to those digits
        import mpmath

        cases = [random_triangle(rng).vertices for _ in range(300)]
        for gap in (1e-3, 1e-4, 1e-5, 1e-6):
            cases += [near_line_apex(rng, gap) for _ in range(100)]
        for p, q, r in cases:
            foot, delta = foot_and_delta(p, q, r)
            with mpmath.workdps(50):
                px, py, qx, qy, rx, ry, fx, fy = map(
                    mpmath.mpf, (p.x, p.y, q.x, q.y, r.x, r.y, foot.x, foot.y)
                )
                m1, m2, m3 = py - qy, qx - px, px * qy - py * qx
                ref = mpmath.asinh(
                    abs(rx * m1 + ry * m2 + m3)
                    / mpmath.sqrt((1 - rx * rx - ry * ry) * (m1 * m1 + m2 * m2 - m3 * m3))
                )
                assert abs(delta - ref) <= 1e-12 * ref
                # the foot lies on the line pq
                assert abs(fx * m1 + fy * m2 + m3) <= 1e-15 * mpmath.sqrt(m1 * m1 + m2 * m2)


class TestDeltaFromSides:
    def test_equilateral(self):
        d = D_EQUILATERAL
        assert delta_from_sides(d, d, d) == pytest.approx(LOG_SQRT5, abs=1e-10)

    def test_narrow_isosceles_limit(self):
        # apex over the midpoint: as the base shrinks the drop approaches a side
        beta = 0.7
        for gamma in (1e-3, 1e-4):
            val = delta_from_sides(beta, beta, gamma)
            assert val == pytest.approx(beta, abs=5e-4)

    def test_infeasible_sides_rejected(self):
        with pytest.raises(InfeasibleSides):
            delta_from_sides(0.1, 3.0, 0.5)
        with pytest.raises(NonpositiveDistance):
            delta_from_sides(1.0, -1.0, 1.0)


class TestEquidistantX:
    def test_order_two_radius_at_t09(self):
        k = delta_n(math.log(19.0), 2)
        assert equidistant_x(k, 0.0) == pytest.approx(361.0 / 65161.0, abs=1e-12)

    def test_vanishes_at_poles(self):
        assert equidistant_x(0.3, 0.9999999) == pytest.approx(0.0, abs=1e-3)

    def test_half_threshold_radius(self):
        k = 0.5 * math.log(10.0 / 9.0)
        assert equidistant_x(k, 0.0) == pytest.approx(1.0 / 19.0, abs=1e-12)

    def test_locus_consistency(self):
        # points of the locus really sit at distance k from the vertical diameter
        p = DiskPoint(0.0, 0.5)
        q = DiskPoint(0.0, -0.5)
        for k in np.linspace(0.01, 1.0, 12):
            for y in (-0.7, 0.0, 0.4):
                x = equidistant_x(float(k), y)
                _, delta = foot_and_delta(p, q, DiskPoint(x, y))
                assert delta == pytest.approx(float(k), abs=1e-10)

    def test_bad_arguments_rejected(self):
        with pytest.raises(OutOfRange):
            equidistant_x(-0.1, 0.0)
        with pytest.raises(OutOfRange):
            equidistant_x(0.5, 1.0)


class TestNormalizePair:
    def test_already_normalized(self):
        iso, t = normalize_pair(DiskPoint(0.0, 0.9), DiskPoint(0.0, -0.9))
        assert t == pytest.approx(0.9, abs=1e-12)
        img = iso.apply_point(DiskPoint(0.0, 0.9))
        assert img.x == pytest.approx(0.0, abs=1e-10)
        assert img.y == pytest.approx(0.9, abs=1e-10)

    def test_equilateral_base(self):
        p = DiskPoint(-0.25, math.sqrt(3.0) / 4.0)
        q = DiskPoint(-0.25, -math.sqrt(3.0) / 4.0)
        iso, t = normalize_pair(p, q)
        assert t == pytest.approx(1.0 / SQRT5, abs=1e-10)
        ip, iq = iso.apply_point(p), iso.apply_point(q)
        assert ip.x == pytest.approx(0.0, abs=1e-10)
        assert ip.y == pytest.approx(t, abs=1e-10)
        assert iq.y == pytest.approx(-t, abs=1e-10)

    def test_preserves_distances(self, rng):
        for _ in range(200):
            a, b, p, q = random_disk_points(rng, 4)
            if a.euclid_to(b) < 1e-2:
                continue
            iso, _ = normalize_pair(a, b)
            assert hyp_distance(
                iso.apply_point(p), iso.apply_point(q)
            ) == pytest.approx(hyp_distance(p, q), abs=1e-10)

    def test_coincident_rejected(self):
        with pytest.raises(CoincidentPoints):
            normalize_pair(DiskPoint(0.2, 0.2), DiskPoint(0.2, 0.2))


class TestApply:
    def test_identity(self):
        iso = KleinIsometry.identity()
        p = DiskPoint(0.3, -0.1)
        assert apply(iso, p).xy == p.xy
        v = IdealPoint(0.125)
        assert apply(iso, v).angle == pytest.approx(0.125, abs=1e-15)

    def test_boundary_stays_on_circle(self, rng):
        for _ in range(50):
            a, b = random_disk_points(rng, 2)
            if a.euclid_to(b) < 1e-2:
                continue
            iso, _ = normalize_pair(a, b)
            img = apply(iso, IdealPoint(float(rng.uniform(0, 1))))
            assert math.hypot(*img.xy) == pytest.approx(1.0, abs=1e-12)

    def test_drop_length_invariant(self, rng):
        p = DiskPoint(-0.25, math.sqrt(3.0) / 4.0)
        q = DiskPoint(-0.25, -math.sqrt(3.0) / 4.0)
        r = DiskPoint(0.5, 0.0)
        iso, _ = normalize_pair(p, q)
        _, delta = foot_and_delta(
            iso.apply_point(p), iso.apply_point(q), iso.apply_point(r)
        )
        assert delta == pytest.approx(LOG_SQRT5, abs=1e-10)

    def test_isometry_invariance_of_metric_quantities(self, rng):
        for _ in range(200):
            pts = random_disk_points(rng, 5)
            a, b = pts[0], pts[1]
            if a.euclid_to(b) < 1e-2:
                continue
            tri = random_triangle(rng)
            p, q, r = tri.vertices
            iso, _ = normalize_pair(a, b)
            ip, iq, ir = (iso.apply_point(v) for v in (p, q, r))
            assert hyp_distance(ip, iq) == pytest.approx(
                hyp_distance(p, q), abs=1e-10
            )
            _, d0 = foot_and_delta(p, q, r)
            _, d1 = foot_and_delta(ip, iq, ir)
            assert d1 == pytest.approx(d0, abs=1e-10)

    def test_lorentz_condition_enforced(self):
        with pytest.raises(OutOfRange):
            KleinIsometry(np.eye(3) * 2.0 + 1.0)

    @pytest.mark.parametrize(
        "m", [np.eye(2), np.eye(4), np.eye(3)[:2], [1.0] * 9, 1.0, [[1.0, 0.0], [0.0, 1.0], [0.0]]]
    )
    def test_non_3x3_rejected(self, m):
        with pytest.raises(OutOfRange, match="3x3"):
            KleinIsometry(m)

    def test_matches_numpy_matmul(self, rng):
        """compose, inverse, apply_point and apply_ideal against numpy's @
        on normalize_pair isometries.  The bounds are the worst differences
        over these 300 draws (4.4e-16, 0, 2.2e-16 and 1.1e-16 turns),
        rounded up."""
        lorentz_j = np.diag([1.0, 1.0, -1.0])
        worst = dict.fromkeys(("compose", "inverse", "point", "ideal"), 0.0)
        for _ in range(300):
            a, b, c, d, p = random_disk_points(rng, 5)
            if a.euclid_to(b) < 1e-2 or c.euclid_to(d) < 1e-2:
                continue
            f, _ = normalize_pair(a, b)
            g, _ = normalize_pair(c, d)
            fm, gm = np.array(f.m), np.array(g.m)
            worst["compose"] = max(worst["compose"], np.max(np.abs(f.compose(g).m - fm @ gm)))
            worst["inverse"] = max(
                worst["inverse"], np.max(np.abs(f.inverse().m - lorentz_j @ fm.T @ lorentz_j))
            )
            u, v, w = fm @ (p.x, p.y, 1.0)
            got = f.apply_point(p)
            worst["point"] = max(worst["point"], abs(got.x - u / w), abs(got.y - v / w))
            ideal = IdealPoint(float(rng.uniform(0, 1)))
            u, v, w = fm @ (*ideal.xy, 1.0)
            gap = abs(f.apply_ideal(ideal).angle - IdealPoint.from_xy(u / w, v / w).angle)
            worst["ideal"] = max(worst["ideal"], min(gap, 1.0 - gap))
        assert worst["compose"] <= 4.5e-16
        assert worst["inverse"] == 0.0
        assert worst["point"] <= 2.3e-16
        assert worst["ideal"] <= 1.2e-16


class TestTriangle:
    def test_reorders_to_ccw(self):
        tri = Triangle(DiskPoint(0.0, 0.9), DiskPoint(0.0, -0.9), DiskPoint(-0.2, 0.0))
        p, q, r = tri.vertices
        cross = (q.x - p.x) * (r.y - q.y) - (q.y - p.y) * (r.x - q.x)
        assert cross > 0

    def test_collinear_rejected(self):
        with pytest.raises(InvalidBody):
            Triangle(DiskPoint(0.0, 0.5), DiskPoint(0.0, 0.0), DiskPoint(0.0, -0.5))
