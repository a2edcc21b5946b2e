import math

import numpy as np
import pytest

from barbilliard import (
    DiskPoint,
    IdealPoint,
    InvalidBody,
    OutOfRange,
    Triangle,
    chord_through,
    delta_n,
    foot_and_delta,
    hyp_distance,
)
from barbilliard.geometry import _boundary_gap, _exact_sum_of_products, _sides_and_drops
from conftest import delta_from_sides, equidistant_x, random_disk_points, random_triangle
from lemmas import normalize_pair

SQRT5 = math.sqrt(5.0)
D_EQUILATERAL = math.log((SQRT5 + 1.0) / (SQRT5 - 1.0))
LOG_SQRT5 = 0.5 * math.log(5.0)


def near_boundary_points(rng, count, widest=-1.0):
    """Points 10^-8.5 to 10^widest inside the unit circle, where 1 - |p|^2
    cancels in floats."""
    gaps = 10.0 ** rng.uniform(-8.5, widest, count)
    turns = rng.uniform(0.0, 2.0 * math.pi, count)
    return [DiskPoint(float((1.0 - g) * math.cos(a)), float((1.0 - g) * math.sin(a)))
            for g, a in zip(gaps, turns)]


def short_boundary_pairs(rng, count):
    """Pairs 1e-6 to 1e-2 apart along the circle, each point 10^-8.5 to
    10^-1 inside it: the plain line norm |d|^2 - (p x q)^2 cancels there."""
    gaps = 10.0 ** rng.uniform(-8.5, -1.0, (count, 2))
    turns = rng.uniform(0.0, 2.0 * math.pi, count)
    steps = 10.0 ** rng.uniform(-6.0, -2.0, count) * rng.choice([-1.0, 1.0], count)
    return [(DiskPoint(float((1.0 - gp) * math.cos(a)), float((1.0 - gp) * math.sin(a))),
             DiskPoint(float((1.0 - gq) * math.cos(a + s)), float((1.0 - gq) * math.sin(a + s))))
            for (gp, gq), a, s in zip(gaps, turns, steps)]


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
        with pytest.raises(InvalidBody, match="chord through coincident points"):
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

    def test_short_distances_match_50_digit_reference(self, rng):
        # below d ~ 1e-8 cosh d rounds to 1, where the arccosh form read 0
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(50):
            for p in random_disk_points(rng, 500):
                sep, turn = 10.0 ** rng.uniform(-9.0, -2.0), rng.uniform(0.0, 2.0 * math.pi)
                q = DiskPoint(p.x + sep * math.cos(turn), p.y + sep * math.sin(turn))
                px, py, qx, qy = map(mpmath.mpf, (p.x, p.y, q.x, q.y))
                ref = mpmath.acosh(
                    (1 - px * qx - py * qy)
                    / mpmath.sqrt((1 - px * px - py * py) * (1 - qx * qx - qy * qy))
                )
                worst = max(worst, float(abs(hyp_distance(p, q) - ref) / ref))
        assert worst <= 1e-14

    def test_near_boundary_matches_50_digit_reference(self, rng):
        # pairs at least 0.1 apart, so that only 1 - |p|^2 can cancel
        mpmath = pytest.importorskip("mpmath")
        points = near_boundary_points(rng, 4000)
        pairs = [(p, q) for p, q in zip(points[::2], points[1::2]) if p.euclid_to(q) > 0.1]
        worst = 0.0
        with mpmath.workdps(50):
            for p, q in pairs:
                px, py, qx, qy = map(mpmath.mpf, (p.x, p.y, q.x, q.y))
                ref = mpmath.acosh(
                    (1 - px * qx - py * qy)
                    / mpmath.sqrt((1 - px * px - py * py) * (1 - qx * qx - qy * qy))
                )
                worst = max(worst, float(abs(hyp_distance(p, q) - ref) / ref))
        assert len(pairs) > 1500
        assert worst <= 1e-13

    def test_short_near_boundary_pairs_match_50_digit_reference(self, rng):
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(50):
            for p, q in short_boundary_pairs(rng, 4000):
                px, py, qx, qy = map(mpmath.mpf, (p.x, p.y, q.x, q.y))
                ref = mpmath.acosh(
                    (1 - px * qx - py * qy)
                    / mpmath.sqrt((1 - px * px - py * py) * (1 - qx * qx - qy * qy))
                )
                worst = max(worst, float(abs(hyp_distance(p, q) - ref) / ref))
        assert worst <= 1e-12

    def test_boundary_gap_is_the_exact_sum_of_products(self, rng):
        # both forms round the same exact real once, so the bits agree
        for p in near_boundary_points(rng, 10_000, widest=0.0):
            want = _exact_sum_of_products((1.0, 1.0), (-p.x, p.x), (-p.y, p.y))
            assert _boundary_gap(p).hex() == want.hex()


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

    def test_order_below_one_rejected(self):
        with pytest.raises(OutOfRange):
            delta_n(1.0, 0)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(OutOfRange, match="needs a positive distance"):
            delta_n(0.0, 1)
        with pytest.raises(OutOfRange, match="needs a positive distance"):
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
        # where X . m cancels to those digits, then apexes near the circle,
        # where 1 - |r|^2 does
        import mpmath

        cases = [random_triangle(rng).vertices for _ in range(300)]
        for gap in (1e-3, 1e-4, 1e-5, 1e-6):
            cases += [near_line_apex(rng, gap) for _ in range(100)]
        for r in near_boundary_points(rng, 300):
            p, q = random_disk_points(rng, 2, rmax=0.9)
            if p.euclid_to(q) > 0.05:
                cases.append((p, q, r))
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

    def test_short_bases_near_the_circle_match_60_digit_reference(self, rng):
        # where the plain line norm m1^2 + m2^2 - m3^2 loses digits
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(60):
            for (p, q), r in zip(short_boundary_pairs(rng, 3000),
                                 random_disk_points(rng, 3000, rmax=0.9)):
                _, delta = foot_and_delta(p, q, r)
                px, py, qx, qy, rx, ry = map(mpmath.mpf, (p.x, p.y, q.x, q.y, r.x, r.y))
                m1, m2, m3 = py - qy, qx - px, px * qy - py * qx
                ref = mpmath.asinh(
                    abs(rx * m1 + ry * m2 + m3)
                    / mpmath.sqrt((1 - rx * rx - ry * ry) * (m1 * m1 + m2 * m2 - m3 * m3))
                )
                worst = max(worst, float(abs(delta - ref) / ref))
        assert worst <= 1e-12

    def test_sides_and_drops_are_distance_and_delta_bit_for_bit(self, rng):
        """``condition_report``'s one-pass sides and drops are those of
        ``hyp_distance`` and ``foot_and_delta``, on generic triangles, on
        apexes near a side and on short sides near the circle."""
        cases = [random_triangle(rng).vertices for _ in range(300)]
        cases += [near_line_apex(rng, gap) for gap in (1e-3, 1e-6) for _ in range(100)]
        cases += [(p, q, r) for (p, q), r in zip(short_boundary_pairs(rng, 300),
                                                 random_disk_points(rng, 300, rmax=0.9))]
        for vertices in cases:
            tri = Triangle(*vertices)
            v = tri.vertices
            for k, (side, drop) in enumerate(_sides_and_drops(tri)):
                i, j = (k + 1) % 3, (k + 2) % 3
                assert side == hyp_distance(v[i], v[j])
                assert drop == foot_and_delta(v[i], v[j], v[k])[1]


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
        with pytest.raises(ValueError, match="triangle inequality"):
            delta_from_sides(0.1, 3.0, 0.5)
        with pytest.raises(ValueError, match="positive"):
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
        with pytest.raises(ValueError):
            equidistant_x(-0.1, 0.0)
        with pytest.raises(ValueError):
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
        with pytest.raises(InvalidBody, match="coincident pair"):
            normalize_pair(DiskPoint(0.2, 0.2), DiskPoint(0.2, 0.2))


class TestApply:
    def test_boundary_stays_on_circle(self, rng):
        for _ in range(50):
            a, b = random_disk_points(rng, 2)
            if a.euclid_to(b) < 1e-2:
                continue
            iso, _ = normalize_pair(a, b)
            img = iso.apply_ideal(IdealPoint(float(rng.uniform(0, 1))))
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

    def test_inverse_undoes(self, rng):
        for _ in range(200):
            a, b, p = random_disk_points(rng, 3)
            if a.euclid_to(b) < 1e-2:
                continue
            iso, _ = normalize_pair(a, b)
            back = iso.inverse().compose(iso).apply_point(p)
            assert abs(back.x - p.x) <= 1e-13 and abs(back.y - p.y) <= 1e-13

    def test_matches_numpy_matmul(self, rng):
        """compose against numpy's @ on the SU(1,1) matrices
        [[a, b], [conj b, conj a]] of normalize_pair isometries.  The bound
        is the worst difference over these 300 draws, rounded up."""
        worst = 0.0
        for _ in range(300):
            a, b, c, d = random_disk_points(rng, 4)
            if a.euclid_to(b) < 1e-2 or c.euclid_to(d) < 1e-2:
                continue
            f, _ = normalize_pair(a, b)
            g, _ = normalize_pair(c, d)
            fm, gm = (np.array([[m.a, m.b], [m.b.conjugate(), m.a.conjugate()]]) for m in (f, g))
            got = f.compose(g)
            want = fm @ gm
            worst = max(worst, abs(got.a - want[0, 0]), abs(got.b - want[0, 1]),
                        abs(got.b.conjugate() - want[1, 0]), abs(got.a.conjugate() - want[1, 1]))
        assert worst <= 1e-15


class TestTriangle:
    def test_reorders_to_ccw(self):
        tri = Triangle(DiskPoint(0.0, 0.9), DiskPoint(0.0, -0.9), DiskPoint(-0.2, 0.0))
        p, q, r = tri.vertices
        cross = (q.x - p.x) * (r.y - q.y) - (q.y - p.y) * (r.x - q.x)
        assert cross > 0

    def test_collinear_rejected(self):
        with pytest.raises(InvalidBody):
            Triangle(DiskPoint(0.0, 0.5), DiskPoint(0.0, 0.0), DiskPoint(0.0, -0.5))
