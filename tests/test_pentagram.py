import math
import random

import numpy as np
import pytest

from barbilliard import (
    ConvexBody,
    DiskPoint,
    IdealPoint,
    InvalidBody,
    OutOfRange,
    Pentagram,
    PointOnLine,
    PreconditionFailed,
    TangentMap,
    Triangle,
    certify_rational,
    chord_through,
    condition_report,
    conjecture_check,
    delta_n,
    detect_period5,
    ellipse_pentagram,
    foot_and_delta,
    hyp_distance,
    standard_pentagram,
    tau_n,
)
from barbilliard.geometry import angular_distance
from barbilliard.pentagram import triangle_map
from barbilliard.rotation import _certify
from conftest import (canonical_triangle, disk_xy, mp_lift, mp_newton_step, mp_turn,
                      random_triangle)
from lemmas import (
    ccw_gap,
    contraction_check,
    edge_incidence,
    ellipse_contact_xs,
    ideal_chain,
    normalize_pair,
    one_sided_slopes,
    orbit_derivative_product,
    pentagram_witness,
)


def closure_residual(tmap, pent):
    return max(
        abs(tmap.lift_iter(p.angle, 5) - p.angle - 2.0) for p in pent.points
    )


def threshold_draws(count, seed=7):
    """count pairs of threshold parameters in certify_inputs' ranges: a
    standard t, then an ellipse (t, v, side)."""
    rng, draws = random.Random(seed), []
    for _ in range(count):
        t, e = rng.uniform(0.3, 0.95), rng.uniform(0.3, 0.95)
        draws.append((t, (e, rng.uniform(-0.9 * e, 0.9 * e), rng.choice(("left", "right")))))
    return draws


class TestStandardPentagram:
    def test_t09_coordinates(self):
        tri, pent = standard_pentagram(0.9)
        a2 = pent.points[1]
        assert a2.xy[0] == pytest.approx(-0.1049723756906077, abs=1e-12)
        assert a2.xy[1] == pytest.approx(0.994475138121547, abs=1e-12)
        rx = [v.x for v in tri.vertices if abs(v.x) > 1e-12][0]
        assert rx == pytest.approx(-1.0 / 19.0, abs=1e-15)

    def test_edges_touch_the_triangle(self):
        for t in (0.3, 0.62, 0.9):
            tri, pent = standard_pentagram(t)
            p = DiskPoint(0.0, t)
            r = DiskPoint((t - 1.0) / (t + 1.0), 0.0)
            a1, a2, a3 = pent.points[0], pent.points[1], pent.points[2]

            def line_dist(a, b, c):
                ex, ey = b.xy[0] - a.xy[0], b.xy[1] - a.xy[1]
                return abs(
                    ex * (c.y - a.xy[1]) - ey * (c.x - a.xy[0])
                ) / math.hypot(ex, ey)

            assert line_dist(a1, a2, p) < 1e-12
            assert line_dist(a2, a3, r) < 1e-12

    def test_half_threshold_identity(self):
        for t in (0.2, 0.5, 0.77, 0.9, 0.95):
            tri, _ = standard_pentagram(t)
            p = DiskPoint(0.0, t)
            q = DiskPoint(0.0, -t)
            r = DiskPoint((t - 1.0) / (t + 1.0), 0.0)
            _, delta = foot_and_delta(p, q, r)
            assert delta == pytest.approx(
                0.5 * delta_n(hyp_distance(p, q), 1), abs=1e-10
            )

    def test_closure(self):
        for t in (0.5, 0.7, 0.9, 0.95):
            tri, pent = standard_pentagram(t)
            assert closure_residual(triangle_map(tri), pent) <= 1e-9

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            standard_pentagram(1.0)
        with pytest.raises(OutOfRange):
            standard_pentagram(0.0)


class TestEllipsePentagram:
    @pytest.mark.parametrize("t", [0.5, 0.9])
    def test_closure_and_threshold(self, t):
        for v in (0.0, t / 2.0, -t / 2.0, 0.9 * t, -0.9 * t):
            tri, pent = ellipse_pentagram(t, v, "left")
            tmap = triangle_map(tri)
            assert closure_residual(tmap, pent) <= 1e-9
            p = DiskPoint(0.0, t)
            q = DiskPoint(0.0, -t)
            apex = [w for w in tri.vertices if abs(w.x) > 1e-13][0]
            _, delta = foot_and_delta(p, q, apex)
            assert delta == pytest.approx(
                delta_n(hyp_distance(p, q), 2), abs=1e-10
            )

    def test_t09_axis_apex(self):
        tri, pent = ellipse_pentagram(0.9, 0.0, "left")
        apex = [w for w in tri.vertices if abs(w.x) > 1e-13][0]
        assert apex.x == pytest.approx(-361.0 / 65161.0, abs=1e-12)
        assert apex.y == 0.0
        angles = sorted(p.angle for p in pent.points)
        assert angles[2] == pytest.approx(0.5, abs=1e-12)  # the point (-1, 0)

    def test_extreme_height_horizontal_chord(self):
        t = 0.9
        tri, pent = ellipse_pentagram(t, t, "left")
        s = math.sqrt(1.0 - t * t)
        at_height_t = sorted(
            (p.xy for p in pent.points if abs(p.xy[1] - t) < 1e-9)
        )
        assert len(at_height_t) == 2
        assert at_height_t[0][0] == pytest.approx(-s, abs=1e-9)
        assert at_height_t[1][0] == pytest.approx(s, abs=1e-9)

    def test_mirror_side_reverses_traversal(self):
        t = 0.9
        left_tri, left_pent = ellipse_pentagram(t, 0.3, "left")
        right_tri, right_pent = ellipse_pentagram(t, 0.3, "right")
        assert closure_residual(triangle_map(right_tri), right_pent) <= 1e-9
        left_sorted = sorted(p.angle for p in left_pent.points)
        right_sorted = sorted((0.5 - p.angle) % 1.0 for p in right_pent.points)
        assert np.allclose(np.sort(left_sorted), np.sort(right_sorted), atol=1e-9)

    def test_contact_abscissas_match_closed_forms(self):
        for t in (0.5, 0.9):
            for v in (0.0, t / 2.0, -t / 2.0, 0.9 * t, -0.9 * t):
                tri, pent = ellipse_pentagram(t, v, "left")
                # identify constructed points by their role, not traversal order
                s = math.sqrt(1.0 - v * v)
                a2 = min(pent.points, key=lambda p: p.xy[0])
                assert a2.xy[0] == pytest.approx(-s, abs=1e-12)
                xs = ellipse_contact_xs(t, v)
                got = sorted(p.xy[0] for p in pent.points)
                assert np.allclose(got, sorted(xs), atol=1e-9)

    def test_closes_as_t_nears_1(self):
        # steps here stretch by up to 1e4: a five-point walk that closed
        # through the two into the contact point would miss CLOSURE_TOL
        for t, v in ((0.9996100011830421, -0.4097033313145382), (0.9998, -0.2), (0.9999, 0.5)):
            for side in ("left", "right"):
                tri, pent = ellipse_pentagram(t, v, side)
                got = sorted((-1.0 if side == "right" else 1.0) * p.xy[0] for p in pent.points)
                assert np.allclose(got, sorted(ellipse_contact_xs(t, v)), atol=1e-9)

    def test_range_checks(self):
        with pytest.raises(OutOfRange):
            ellipse_pentagram(0.9, 0.95, "left")
        with pytest.raises(OutOfRange):
            ellipse_pentagram(1.1, 0.0, "left")
        with pytest.raises(OutOfRange):
            ellipse_pentagram(0.9, 0.0, "up")

    def test_collapsed_abscissa(self):
        # near t = 1 the apex abscissa (1 - t^2)^2 / (t^4 + 6 t^2 + 1) is ~5e-19
        with pytest.raises(OutOfRange, match="abscissa collapsed to zero: t=0.999999999 "):
            ellipse_pentagram(1.0 - 1e-9, 0.0)

    def test_domain_fuzz(self, rng):
        # the construction closes across the whole admissible domain
        for _ in range(40):
            t = float(rng.uniform(0.05, 0.97))
            v = float(rng.uniform(-t, t))
            side = "left" if rng.random() < 0.5 else "right"
            tri, pent = ellipse_pentagram(t, v, side)
            tmap = triangle_map(tri)
            assert closure_residual(tmap, pent) <= 1e-9


class TestDetectPeriod5:
    def test_canonical_orbit_found(self):
        tri, pent = standard_pentagram(0.9)
        found = detect_period5(triangle_map(tri))
        assert len(found.orbits) == 1
        assert found.zero_count == 5
        got = sorted(p.angle for p in found.orbits[0].points)
        want = sorted(p.angle for p in pent.points)
        assert np.allclose(got, want, atol=1e-8)

    def test_equilateral_has_none(self, ex31_map):
        found = detect_period5(ex31_map)
        assert found.orbits == ()
        assert found.zero_count == 0

    def test_interior_condition_has_pairs(self):
        found = detect_period5(triangle_map(canonical_triangle(0.9, -0.02)))
        assert len(found.orbits) >= 2
        assert found.zero_count == 5 * len(found.orbits)
        assert len(found.orbits) <= 6

    def test_sorted_shift_by_two(self):
        found = detect_period5(triangle_map(canonical_triangle(0.9, -0.02)))
        for pent in found.orbits:
            angles = [p.angle for p in pent.points]
            rank = {
                i: r
                for r, i in enumerate(sorted(range(5), key=lambda i: angles[i]))
            }
            for i in range(5):
                assert rank[(i + 1) % 5] == (rank[i] + 2) % 5

    def test_boundary_configurations_bookkeeping(self):
        # semi-stable orbits at either threshold count exactly five zeros
        for build in (
            lambda: standard_pentagram(0.9)[0],
            lambda: standard_pentagram(0.5)[0],
            lambda: ellipse_pentagram(0.9, 0.0, "left")[0],
            lambda: ellipse_pentagram(0.5, 0.2, "left")[0],
            # benchmark threshold maps whose walks miss their own located
            # tangencies by 1.1e-7 to 1.4e-7 turns
            lambda: ellipse_pentagram(0.9217245505040526, -0.5389184701775002, "right")[0],
            lambda: ellipse_pentagram(0.8865221686856675, -0.2049373320260136, "left")[0],
            lambda: ellipse_pentagram(0.9485933974263254, -0.6732258533251608, "left")[0],
        ):
            found = detect_period5(triangle_map(build()))
            assert len(found.orbits) == 1
            assert found.zero_count == 5

    def test_walked_ellipse_pentagram_is_a_scanned_orbit(self):
        # the walk drifts off the located tangencies by up to 1.4e-7 turns,
        # as in the bookkeeping test above; below about t = 0.37 some of
        # these maps also carry transverse orbits, so this is membership
        for _, params in threshold_draws(100):
            tri, pent = ellipse_pentagram(*params)
            found = detect_period5(triangle_map(tri))
            assert any(
                all(min(angular_distance(p.angle, q.angle) for q in orbit.points) <= 2e-7
                    for p in pent.points)
                for orbit in found.orbits
            ), params

    @pytest.mark.xfail(strict=True, reason=(
        "FOUND in CHANGES.md, 'near a threshold, the zero scan's zeros are often not "
        "whole period-5 orbits': the tangency band keeps some of a semi-stable orbit's "
        "zeros and drops others (ROADMAP item 7)"))
    def test_near_threshold_zero_counts_are_whole_orbits(self):
        # 199 of these 400 maps count a part of an orbit (53 standard, 146 ellipse)
        split = []
        for t, params in threshold_draws(100):
            for tri in (standard_pentagram(t)[0], ellipse_pentagram(*params)[0]):
                verts = [(w.x, w.y) for w in tri.vertices]
                for s in (1.0 + 1e-9, 1.0 - 1e-9):
                    count = detect_period5(triangle_map(scaled_triangle(verts, s))).zero_count
                    if count % 5:
                        split.append((verts, s, count))
        assert not split

    def test_segment_map_rejected(self):
        with pytest.raises(PreconditionFailed):
            detect_period5(TangentMap(ConvexBody.segment(DiskPoint(0.0, 0.9),
                                                                DiskPoint(0.0, -0.9))))

    def test_orbit_points_are_plain_floats(self):
        found = detect_period5(triangle_map(canonical_triangle(0.9, -0.02)))
        for pent in found.orbits:
            assert all(type(p.angle) is float for p in pent.points)
        assert type(IdealPoint(np.float64(0.25)).angle) is float


def brute_tau_signs(p1, p2, pt, n, grid=20001):
    """Dense-grid sign-change count of the chord side function."""
    tmap = TangentMap(ConvexBody.segment(p1, p2))
    ch = chord_through(p1, p2)

    def h(w_angle):
        a = IdealPoint(w_angle)
        b = a
        for _ in range(2 * n):
            b = IdealPoint(tmap.eval_angle(b.angle))
        ax, ay = a.xy
        bx, by = b.xy
        ex, ey = bx - ax, by - ay
        return (ex * (pt.y - ay) - ey * (pt.x - ax)) / math.hypot(ex, ey)

    count = 0
    min_abs = math.inf
    tails = [10.0 ** -j for j in range(4, 12)]
    for start, end in ((ch.a.angle, ch.b.angle), (ch.b.angle, ch.a.angle)):
        span = ccw_gap(start, end)
        rel = sorted(
            set([(k + 0.5) / grid for k in range(grid)] + tails + [1 - u for u in tails])
        )
        hs = [h((start + u * span) % 1.0) for u in rel]
        count += sum(1 for x, y in zip(hs, hs[1:]) if x * y < 0)
        min_abs = min(min_abs, min(abs(x) for x in hs))
    return count, min_abs


def test_dedupe_cyclic_keeps_run_heads_and_drops_the_wrap():
    from barbilliard.rotation import _dedupe_cyclic

    # within tol of the last kept value is dropped; 0.3 + 1.5e-7 is kept
    assert _dedupe_cyclic([0.3 + 1.5e-7, 0.3 + 5e-8, 0.3, 0.6], 1e-7) == [0.3, 0.3 + 1.5e-7, 0.6]
    # the last value lies within tol of the first across 1 and is dropped
    assert _dedupe_cyclic([0.99999995, 0.5, 2e-8], 1e-7) == [2e-8, 0.5]
    assert _dedupe_cyclic([0.99999995], 1e-7) == [0.99999995]


class TestPentagramBuild:
    def test_needs_five_points(self):
        tri, pent = standard_pentagram(0.9)
        with pytest.raises(PreconditionFailed, match="five points"):
            Pentagram.build(triangle_map(tri), pent.points[:4])

    def test_orbit_must_close(self):
        tri, pent = standard_pentagram(0.9)
        pts = pent.points
        with pytest.raises(PreconditionFailed, match="does not close"):
            Pentagram.build(triangle_map(tri), pts[1:2] + pts[:1] + pts[2:])

    def test_orbit_must_advance_by_two(self):
        # a regular pentagon this large has rho = 1/5: its period-5 orbits
        # close but advance by one
        body = ConvexBody.polygon([DiskPoint(0.9 * math.cos(0.4 * math.pi * k),
                                             0.9 * math.sin(0.4 * math.pi * k))
                                   for k in range(5)])
        tmap = TangentMap(body)
        x = certify_rational(tmap, 1, 5).certificate.witness_x
        with pytest.raises(PreconditionFailed, match="advance by 2"):
            Pentagram.build(tmap, tmap.orbit(IdealPoint(x), 4))


class TestTau:
    def test_trichotomy_counts(self):
        p1, p2 = DiskPoint(0.0, 0.9), DiskPoint(0.0, -0.9)
        x_star = math.tanh(delta_n(math.log(19.0), 2))
        assert tau_n(p1, p2, DiskPoint(-0.003, 0.0), 2).count == 0
        assert tau_n(p1, p2, DiskPoint(-x_star, 0.0), 2).count == 1
        # 6.3e-9 above the threshold: two roots 2.66e-6 turns apart
        assert tau_n(p1, p2, DiskPoint(-0.00554013, 0.0), 2).count == 2
        assert tau_n(p1, p2, DiskPoint(-0.02, 0.0), 2).count == 2

    def test_tangent_root_is_the_40_digit_extremum(self):
        """At the threshold the one root is a tangency of the lifted
        half-turn after F^{2n}, read at the extremum the pieces give: the
        Newton step to the 40-digit extremum is at most 1e-13 turns
        (measured: 2e-17)."""
        mpmath = pytest.importorskip("mpmath")
        p1, p2 = DiskPoint(0.0, 0.9), DiskPoint(0.0, -0.9)
        pt = DiskPoint(-math.tanh(delta_n(math.log(19.0), 2)), 0.0)
        (w,) = tau_n(p1, p2, pt, 2).roots
        Q = mpmath.mpc(pt.x, pt.y)
        with mpmath.workdps(40):
            step = mp_newton_step(lambda u: mp_turn(Q, mp_lift((p1, p2), u, 4)) - u, w.angle)
        assert step <= 1e-13

    def test_counts_match_brute_force(self):
        p1, p2 = DiskPoint(0.0, 0.9), DiskPoint(0.0, -0.9)
        for x, want in ((-0.003, 0), (-0.02, 2), (-0.1, 2)):
            pt = DiskPoint(x, 0.0)
            res = tau_n(p1, p2, pt, 2)
            brute, _ = brute_tau_signs(p1, p2, pt, 2, grid=8001)
            assert res.count == brute == want

    @pytest.mark.parametrize("x", [-0.02, -0.00554013])
    def test_roots_are_plain_floats(self, x):
        res = tau_n(DiskPoint(0.0, 0.9), DiskPoint(0.0, -0.9), DiskPoint(x, 0.0), 2)
        assert res.roots and all(type(w.angle) is float for w in res.roots)

    def test_roots_lie_on_claimed_chords(self):
        p1, p2 = DiskPoint(0.0, 0.9), DiskPoint(0.0, -0.9)
        pt = DiskPoint(-0.02, 0.0)
        res = tau_n(p1, p2, pt, 2)
        tmap = TangentMap(ConvexBody.segment(p1, p2))
        for w in res.roots:
            b = w
            for _ in range(4):
                b = IdealPoint(tmap.eval_angle(b.angle))
            ax, ay = w.xy
            bx, by = b.xy
            ex, ey = bx - ax, by - ay
            dist = abs(ex * (pt.y - ay) - ey * (pt.x - ax)) / math.hypot(ex, ey)
            assert dist <= 1e-9

    def test_order_one_matches_threshold(self):
        # tau_1 flips from 0 to 2 across the order-1 threshold radius
        p1, p2 = DiskPoint(0.0, 0.9), DiskPoint(0.0, -0.9)
        x_star = math.tanh(delta_n(math.log(19.0), 1))
        assert tau_n(p1, p2, DiskPoint(-(x_star - 1e-3), 0.0), 1).count == 0
        assert tau_n(p1, p2, DiskPoint(-(x_star + 1e-3), 0.0), 1).count == 2

    def test_past_float_resolution_is_an_error_not_a_wrong_count(self):
        """The drop 0.02 lies far above delta_n for every n >= 2, so two
        chords cover the point.  The residual's extrema close in on the
        cuts at 0.25 and 0.75 by a factor 19 a fold; from n = 9 one lies
        within SNAP of a cut, where the count used to read 0."""
        p1, p2, pt = DiskPoint(0.0, 0.9), DiskPoint(0.0, -0.9), DiskPoint(-0.02, 0.0)
        counts = []
        for n in range(2, 17):
            assert 0.02 > delta_n(hyp_distance(p1, p2), n)
            try:
                counts.append(tau_n(p1, p2, pt, n).count)
            except PreconditionFailed:
                counts.append(None)
        assert counts[:7] == [2] * 7  # n = 2..8
        assert set(counts) <= {2, None}

    def test_roots_are_80_digit_roots_in_angle(self):
        """Near the base ends F^{2n} is steep, so a root's residual
        H(F^{2n}(u)) - u can read far from 0 (H the half-turn about the
        point) while its angle is right.  Each root returned for n <= 4 on
        60 random off-axis triples has the 80-digit residual change sign
        within 1e-12 turns of it (measured: within 1e-13).  Both sides read
        within a quarter turn, so the change is a crossing of 0, not the
        wrap at a half turn."""
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(3)
        triples = [[DiskPoint(*disk_xy(rng, r)) for r in (0.9, 0.9, 0.5)] for _ in range(60)]
        checked = 0
        with mpmath.workdps(80):
            for p1, p2, pt in triples:
                Q = mpmath.mpc(pt.x, pt.y)

                def residual(u, n):
                    w = mp_turn(Q, mp_lift((p1, p2), u, 2 * n))
                    return (w - u + mpmath.mpf(0.5)) % 1 - mpmath.mpf(0.5)

                for n in range(1, 5):
                    for w in tau_n(p1, p2, pt, n).roots:
                        lo, hi = (residual(w.angle + d, n) for d in (-1e-12, 1e-12))
                        assert lo * hi <= 0 and max(abs(lo), abs(hi)) < 0.25
                        checked += 1
        assert checked == 286

    @pytest.mark.parametrize("n", [0, -1, 33, 100_000_000])
    def test_fold_order_bounded(self, n):
        with pytest.raises(OutOfRange):
            tau_n(DiskPoint(0.0, 0.9), DiskPoint(0.0, -0.9), DiskPoint(-0.02, 0.0), n)

    def test_point_on_line_rejected(self):
        with pytest.raises(PointOnLine):
            tau_n(
                DiskPoint(0.0, 0.9),
                DiskPoint(0.0, -0.9),
                DiskPoint(0.0, 0.1),
                2,
            )


class TestConditionReport:
    def test_equilateral_one_third(self, ex31_triangle):
        rep = condition_report(ex31_triangle)
        assert rep.one_third
        assert not rep.two_fifths_sandwich
        assert not rep.all_strictly_inside
        for lab in rep.labelings:
            assert lab.delta == pytest.approx(lab.delta1, abs=1e-9)

    def test_sandwich_values_t09(self):
        rep = condition_report(canonical_triangle(0.9, -0.02))
        lab = next(
            l for l in rep.labelings if abs(l.d_base - math.log(19.0)) < 1e-9
        )
        assert lab.delta2 == pytest.approx(0.005540180375615, abs=1e-12)
        assert lab.delta == pytest.approx(math.atanh(0.02), abs=1e-10)
        assert lab.half_delta1 == pytest.approx(0.052680257828913, abs=1e-12)
        assert lab.sandwich and lab.orientation == "inner_to_half"
        assert rep.two_fifths_sandwich

    def test_small_triangle_all_strict(self):
        rep = condition_report(
            Triangle(DiskPoint(0.0, 0.1), DiskPoint(0.0, -0.1), DiskPoint(-0.05, 0.0))
        )
        assert rep.all_strictly_inside
        assert not rep.two_fifths_sandwich
        for lab in rep.labelings:
            assert lab.orientation == "half_to_inner"

    def test_isosceles_flags(self):
        rep = condition_report(canonical_triangle(0.9, -0.2))
        assert rep.isosceles_below
        assert not rep.isosceles_above
        rep2 = condition_report(canonical_triangle(0.9, -0.003))
        assert rep2.isosceles_above


class TestEdgeIncidence:
    def test_canonical_incidences(self):
        tri, pent = standard_pentagram(0.9)
        p = DiskPoint(0.0, 0.9)
        q = DiskPoint(0.0, -0.9)
        r = DiskPoint(-1.0 / 19.0, 0.0)
        assert edge_incidence(pent, p) == 2
        assert edge_incidence(pent, r) == 2
        total = sum(edge_incidence(pent, c) for c in (p, q, r))
        assert total == 6

    def test_offline_point_zero(self):
        _, pent = standard_pentagram(0.9)
        assert edge_incidence(pent, DiskPoint(0.4, 0.4)) == 0


class TestIdealChain:
    def test_t09_layout(self):
        chain = ideal_chain(0.9)
        assert len(chain) == 6
        u1, u2, u3 = chain[0], chain[1], chain[2]
        assert 0.0 < u1.angle < 0.25  # first quadrant
        assert 0.25 < u2.angle < 0.5  # second quadrant
        assert 0.75 < u3.angle < 1.0  # fourth quadrant
        # the chain's last point falls back into the gap before the first
        assert ccw_gap(0.0, chain[5].angle) < ccw_gap(0.0, u1.angle)

    def test_ratio_bounds_on_grid(self):
        for t in np.linspace(0.802, 0.998, 50):
            t = float(t)
            chain = ideal_chain(t)
            p = DiskPoint(0.0, t)
            q = DiskPoint(0.0, -t)
            r = DiskPoint((t - 1.0) / (t + 1.0), 0.0)

            def dist(dp, ip):
                return math.hypot(dp.x - ip.xy[0], dp.y - ip.xy[1])

            u1, u2, u3, u4, u5, u6 = chain
            assert dist(p, u2) / dist(p, u1) < 1.0 / 3.0
            assert dist(r, u3) / dist(r, u2) < 1.0 / t
            assert dist(p, u4) / dist(p, u3) <= 0.7 * (1.0 - t)
            assert dist(r, u5) / dist(r, u4) < 1.0 / t
            assert dist(q, u6) / dist(q, u5) < (1.0 + t) / (1.0 - t)

    def test_map_advances_the_chain(self):
        # the chain is an actual forward orbit segment of the map
        for t in (0.82, 0.9, 0.97):
            chain = ideal_chain(t)
            tmap = triangle_map(canonical_triangle(t, (t - 1.0) / (t + 1.0)))
            for i in range(5):
                img = IdealPoint(tmap.eval_angle(chain[i].angle))
                assert angular_distance(img.angle, chain[i + 1].angle) < 1e-12

    def test_ratios_are_map_derivatives(self):
        # each distance ratio is a one-sided derivative of the actual map
        # (at a breakpoint the stated vertex serves the incoming side)
        for t in (0.82, 0.9, 0.97):
            chain = ideal_chain(t)
            tmap = triangle_map(canonical_triangle(t, (t - 1.0) / (t + 1.0)))
            p = DiskPoint(0.0, t)
            q = DiskPoint(0.0, -t)
            r = DiskPoint((t - 1.0) / (t + 1.0), 0.0)

            def dist(dp, ip):
                return math.hypot(dp.x - ip.xy[0], dp.y - ip.xy[1])

            u = chain
            ratios = [
                dist(p, u[1]) / dist(p, u[0]),
                dist(r, u[2]) / dist(r, u[1]),
                dist(p, u[3]) / dist(p, u[2]),
                dist(r, u[4]) / dist(r, u[3]),
                dist(q, u[5]) / dist(q, u[4]),
            ]
            for i, ratio in enumerate(ratios):
                left, right = one_sided_slopes(tmap, u[i].angle)
                assert min(abs(ratio - left), abs(ratio - right)) < 1e-10

    def test_range_enforced(self):
        with pytest.raises(OutOfRange):
            ideal_chain(0.5)


class TestOrbitDerivativeProduct:
    def test_below_one_and_proof_bound(self):
        for t in (0.85, 0.9, 0.99):
            prod = orbit_derivative_product(t)
            assert prod < 1.0
            assert prod <= 7.0 * (t + 1.0) / (30.0 * t * t)

    def test_grid(self):
        for t in np.linspace(0.805, 0.995, 20):
            assert orbit_derivative_product(float(t)) < 1.0

    def test_is_the_chain_ratio_product(self):
        # the slope of the F^5 piece against the five chord ratios
        for t in np.linspace(0.805, 0.995, 20):
            t = float(t)
            u1, u2, u3, u4, u5, u6 = ideal_chain(t)
            p, q, r = DiskPoint(0.0, t), DiskPoint(0.0, -t), DiskPoint((t - 1.0) / (t + 1.0), 0.0)

            def ratio(dp, a, b):
                return math.dist((dp.x, dp.y), b.xy) / math.dist((dp.x, dp.y), a.xy)

            want = (ratio(p, u1, u2) * ratio(r, u2, u3) * ratio(p, u3, u4)
                    * ratio(r, u4, u5) * ratio(q, u5, u6))
            assert orbit_derivative_product(t) == pytest.approx(want, rel=1e-12)


class TestContractionCheck:
    @pytest.mark.parametrize(
        "t,angle", [(0.9, 0.1), (0.9, 0.05), (0.85, 0.2), (0.9, 0.6), (0.95, 0.33)]
    )
    def test_fifth_iterate_contracts(self, t, angle):
        assert contraction_check(t, IdealPoint(angle)) is True

    def test_orbit_point_rejected(self):
        with pytest.raises(ValueError, match="coincides"):
            contraction_check(0.9, IdealPoint(0.25))

    def test_range(self):
        with pytest.raises(OutOfRange):
            contraction_check(0.5, IdealPoint(0.1))


class TestPentagramWitness:
    def test_canonical_t09(self):
        w = pentagram_witness(
            DiskPoint(0.0, 0.9), DiskPoint(0.0, -0.9), DiskPoint(-1.0 / 19.0, 0.0)
        )
        assert angular_distance(w.angle, 0.0) < 1e-6

    def test_canonical_t05(self):
        w = pentagram_witness(
            DiskPoint(0.0, 0.5), DiskPoint(0.0, -0.5), DiskPoint(-1.0 / 3.0, 0.0)
        )
        assert angular_distance(w.angle, 0.0) < 1e-6

    def test_rotated_configuration_closes_through_witness(self, rng):
        # same configuration pushed through an isometry still has a witness,
        # and the witness generates a closing five-chord path
        cases = [((0.3, 0.2), (-0.1, -0.4), 0.9)]
        for _ in range(20):
            a, b = rng.uniform(-0.6, 0.6, (2, 2))
            cases.append((a, b, rng.uniform(0.3, 0.95)))
        for a, b, t in cases:
            iso, _ = normalize_pair(DiskPoint(*a), DiskPoint(*b))
            inv = iso.inverse()
            p = inv.apply_point(DiskPoint(0.0, t))
            q = inv.apply_point(DiskPoint(0.0, -t))
            r = inv.apply_point(DiskPoint((t - 1.0) / (t + 1.0), 0.0))
            w = pentagram_witness(p, q, r)
            tmap = triangle_map(Triangle(p, q, r))
            assert abs(tmap.lift_iter(w.angle, 5) - w.angle - 2.0) <= 1e-12

    def test_precondition_guard(self):
        with pytest.raises(PreconditionFailed):
            pentagram_witness(
                DiskPoint(0.0, 0.9), DiskPoint(0.0, -0.9), DiskPoint(-0.2, 0.0)
            )


class TestConjectureCheck:
    def test_sandwich_equals(self):
        v = conjecture_check(canonical_triangle(0.9, -0.02), n=30_000)
        assert v.condition and v.rho_verdict == "equals" and v.consistent

    def test_wide_isosceles_below(self):
        v = conjecture_check(canonical_triangle(0.9, -0.2), n=30_000)
        assert not v.condition and v.rho_verdict == "below" and v.consistent

    def test_small_triangle_above(self):
        v = conjecture_check(
            Triangle(DiskPoint(0.0, 0.1), DiskPoint(0.0, -0.1), DiskPoint(-0.05, 0.0)),
            n=30_000,
        )
        assert not v.condition and v.rho_verdict == "above" and v.consistent


class TestConjectureRandomTriangles:
    def test_proven_direction_on_random_triangles(self, rng):
        # the sandwich condition forces rotation number 2/5 for arbitrary
        # triangles, not just the canonical family
        checked = 0
        for _ in range(60):
            tri = random_triangle(rng)
            if not condition_report(tri).two_fifths_sandwich:
                continue
            checked += 1
            v = conjecture_check(tri, n=20_000)
            assert v.rho_verdict == "equals" and v.consistent
        assert checked >= 3


def scaled(verts, s):
    """The vertices (x, y) scaled by s about their centroid."""
    cx, cy = (sum(c) / 3.0 for c in zip(*verts))
    return [(cx + s * (x - cx), cy + s * (y - cy)) for x, y in verts]


def scaled_triangle(verts, s):
    return Triangle(*(DiskPoint(*v) for v in scaled(verts, s)))


class TestEdgeProbe:
    """Where the 2/5 region ends along the scales of a triangle about its
    centroid.  A larger body has no larger rho (order under inclusion),
    so bisection finds the scale where the 2/5 scan stops certifying, in
    each direction, and the sandwich must flip there too.  Nothing proves
    the sandwich monotone along the ray, so it is also checked at every
    scale the scan's bisection samples."""

    #: the bisection's resolution in scale
    RESOLUTION = 1e-10

    #: the two edges' widest gap, in scale: 1.17e-8 measured on these 40
    GAP = 2e-8

    @classmethod
    def _edge(cls, inside, outside, holds):
        """The scale between inside (holds) and outside (does not) where
        holds flips, to the resolution."""
        while abs(outside - inside) > cls.RESOLUTION:
            mid = 0.5 * (inside + outside)
            inside, outside = (mid, outside) if holds(mid) else (inside, mid)
        return 0.5 * (inside + outside)

    def test_scan_and_sandwich_end_together(self):
        rng, triangles = random.Random(11), []
        while len(triangles) < 40:
            verts = [disk_xy(rng, 0.9) for _ in range(3)]
            try:
                tmap = triangle_map(scaled_triangle(verts, 1.0))
            except InvalidBody:
                continue
            if _certify(tmap, 2, 5)[0] is not None:
                triangles.append(verts)
        edges = 0
        for verts in triangles:
            samples = []

            def certified(s):
                tri = scaled_triangle(verts, s)
                cert = _certify(triangle_map(tri), 2, 5)[0] is not None
                samples.append((s, cert, condition_report(tri).two_fifths_sandwich))
                return cert

            def sandwich(s):
                return condition_report(scaled_triangle(verts, s)).two_fifths_sandwich

            assert certified(1.0) and not certified(0.05)
            outside = [0.05]
            # grow until the scan stops certifying, inside radius 0.999
            grow = 0.01
            while max(math.hypot(*v) for v in scaled(verts, 1.0 + grow)) < 0.999:
                if not certified(1.0 + grow):
                    outside.append(1.0 + grow)
                    break
                grow *= 2.0
            gaps = []
            for out in outside:
                scan, flip = self._edge(1.0, out, certified), self._edge(1.0, out, sandwich)
                assert abs(scan - flip) <= self.GAP
                gaps.append(sorted((scan, flip)))
            edges += len(gaps)
            for s, cert, sand in samples:
                if not any(lo - self.RESOLUTION <= s <= hi + self.RESOLUTION for lo, hi in gaps):
                    assert cert == sand
        assert edges == 79  # one triangle still certifies where it meets radius 0.999


class TestOneThirdEdgeProbe:
    """Where the 1/3 region ends as a triangle shrinks about its centroid.
    The paper proves ``one_third`` (delta >= delta_1) sufficient for
    rho = 1/3, so at every sampled scale the condition implies a 1/3
    certificate, and the scan certifies at least as far down as the
    condition holds.  The scan reaches past the condition's edge by a
    tangency certificate inside ``TANGENCY_TOL``, by a gap bounded here."""

    #: the edges' widest gap, in scale: 4.6e-9 measured on these 30
    GAP = 6e-9

    def test_condition_implies_a_certificate_down_to_its_edge(self):
        rng, triangles = random.Random(11), []
        while len(triangles) < 30:
            verts = [disk_xy(rng, 0.9) for _ in range(3)]
            try:
                if condition_report(scaled_triangle(verts, 1.0)).one_third:
                    triangles.append(verts)
            except InvalidBody:
                continue
        for verts in triangles:
            samples = {}

            def sample(s):
                if s not in samples:
                    tri = scaled_triangle(verts, s)
                    samples[s] = (_certify(triangle_map(tri), 1, 3)[0] is not None,
                                  condition_report(tri).one_third)
                return samples[s]

            assert sample(1.0) == (True, True) and sample(0.05) == (False, False)
            scan = TestEdgeProbe._edge(1.0, 0.05, lambda s: sample(s)[0])
            flip = TestEdgeProbe._edge(1.0, 0.05, lambda s: sample(s)[1])
            assert flip - self.GAP <= scan <= flip + TestEdgeProbe.RESOLUTION
            assert all(cert for cert, one_third in samples.values() if one_third)


class TestPeriodicEquivalences:
    def test_period_five_chain(self):
        # a closing point, winding 2 per five steps, sorted shift by 2:
        # the three detections agree on the same orbit
        tri, pent = standard_pentagram(0.9)
        tmap = triangle_map(tri)
        x0 = pent.points[0].angle
        assert abs(tmap.lift_iter(x0, 5) - x0 - 2.0) <= 1e-9
        res = certify_rational(tmap, 2, 5)
        assert res.certificate is not None
        angles = [p.angle for p in pent.points]
        rank = {i: r for r, i in enumerate(sorted(range(5), key=lambda i: angles[i]))}
        assert all(rank[(i + 1) % 5] == (rank[i] + 2) % 5 for i in range(5))
