import cmath
import csv
import json
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

from barbilliard import (
    ConvexBody,
    DiskPoint,
    OutOfRange,
    OutOfTheoreticalRange,
    PreconditionFailed,
    TangentMap,
    Triangle,
    certify_rational,
    classify_rho,
    conjecture_check,
    detect_period5,
    ellipse_pentagram,
    estimate_rho,
    standard_pentagram,
)
from barbilliard.pentagram import triangle_map
from barbilliard import rotation
from barbilliard.cli import _grid_values, _triangle_from_args, build_parser, main
from barbilliard.geometry import TWO_PI, angular_distance
from barbilliard.circlemap import ITERATION_BUDGET, Piece, _compose, _half_turn
from barbilliard.rotation import (
    MAX_Q,
    MERGE_TOL,
    TANGENCY_TOL,
    RationalCertificate,
    _certify,
    _circle_zeros,
    _dedupe_cyclic,
    scan_winding_zeros,
)
from conftest import (benchmark_inputs, canonical_triangle, mp_lift, mp_newton_step,
                      random_convex_polygon, random_disk_points, random_triangle)


class TestEstimateRho:
    def test_point_body_half(self, rng):
        for p in ((0.0, 0.0), (0.3, -0.4), (-0.7, 0.1)):
            tmap = TangentMap(ConvexBody.point(DiskPoint(*p)))
            res = estimate_rho(tmap, 4000)
            assert abs(res.estimate - 0.5) <= res.error_bound
            assert res.error_bound == pytest.approx(1.0 / 4000)

    def test_equilateral_third(self, ex31_map):
        res = estimate_rho(ex31_map, 30_000)
        assert abs(res.estimate - 1.0 / 3.0) <= res.error_bound

    def test_canonical_two_fifths(self):
        tmap = triangle_map(canonical_triangle(0.9, -1.0 / 19.0))
        res = estimate_rho(tmap, 10_000)
        assert abs(res.estimate - 0.4) <= res.error_bound

    def test_start_point_independence(self, rng):
        tmap = triangle_map(canonical_triangle(0.8, -0.1))
        n = 5000
        runs = [(tmap.lift_iter(x, n) - x) / n for x in map(float, rng.uniform(0, 1, 5))]
        assert max(runs) - min(runs) <= 2.0 / n

    def test_upper_bound_half(self, rng):
        n = 3000
        for _ in range(5):
            tmap = TangentMap(random_convex_polygon(rng))
            assert estimate_rho(tmap, n).estimate <= 0.5 + 1.0 / n

    def test_budget(self):
        tmap = TangentMap(ConvexBody.point(DiskPoint(0.0, 0.0)))
        with pytest.raises(OutOfRange, match="estimate needs n >= 1"):
            estimate_rho(tmap, 0)

    def test_over_budget_rejected_before_any_step(self, monkeypatch):
        tmap = TangentMap(ConvexBody.point(DiskPoint(0.0, 0.0)))

        def no_lift(*args):
            raise AssertionError("the map was lifted")

        monkeypatch.setattr(TangentMap, "lift_iter", no_lift)
        with pytest.raises(OutOfRange, match="exceeds the budget"):
            estimate_rho(tmap, ITERATION_BUDGET + 1)


class TestCertifyRational:
    def test_canonical_two_fifths_certificate(self):
        tmap = triangle_map(canonical_triangle(0.9, -1.0 / 19.0))
        res = certify_rational(tmap, 2, 5)
        cert = res.certificate
        assert cert is not None
        assert (cert.p, cert.q) == (2, 5)
        assert abs(cert.residual) <= 1e-9
        # soundness against a freshly built map
        fresh = triangle_map(canonical_triangle(0.9, -1.0 / 19.0))
        assert abs(fresh.lift_iter(cert.witness_x, 5) - cert.witness_x - 2) <= 1e-9

    def test_point_body_half_is_one_tangency_at_0(self, rng):
        """F^2 = id for a point body, so F^2 - id - 1 vanishes everywhere:
        one tangency, reported at 0."""
        for point in random_disk_points(rng, 3):
            tmap = TangentMap(ConvexBody.point(point))
            res = certify_rational(tmap, 1, 2)
            assert res.comparison is None
            cert = res.certificate
            assert (cert.p, cert.q, cert.witness_x, cert.kind) == (1, 2, 0.0, "tangency")
            assert abs(cert.residual) <= TANGENCY_TOL
            scan = scan_winding_zeros(tmap, 1, 2)
            assert _polished(scan) == [(0.0, cert.residual, "tangency")]
            assert res.estimate == 0.5

    def test_equilateral_third_certificate(self, ex31_map):
        res = certify_rational(ex31_map, 1, 3)
        assert res.certificate is not None
        assert (res.certificate.p, res.certificate.q) == (1, 3)

    def test_small_triangle_above(self):
        tmap = triangle_map(canonical_triangle(0.1, -0.05))
        res = certify_rational(tmap, 2, 5)
        assert res.certificate is None
        assert res.comparison is not None
        assert res.comparison.relation == "greater"

    def test_wide_isosceles_below(self):
        tmap = triangle_map(canonical_triangle(0.9, -0.2))
        res = certify_rational(tmap, 2, 5)
        assert res.certificate is None
        assert res.comparison.relation == "less"

    def test_invalid_rationals_rejected(self, ex31_map):
        for p, q in ((0, 3), (3, 3), (2, 4), (1, 65), (5, 3)):
            with pytest.raises(OutOfRange, match="is not a reduced rational"):
                certify_rational(ex31_map, p, q)

    def test_rho_monotone_under_inclusion(self, rng):
        # nested bodies order their rotation numbers the opposite way
        n = 4000
        for _ in range(5):
            poly = random_convex_polygon(rng, n=5)
            big = TangentMap(poly)
            sub = TangentMap(
                ConvexBody.polygon([poly.vertices[0], poly.vertices[2], poly.vertices[4]])
            )
            rho_big = estimate_rho(big, n).estimate
            rho_sub = estimate_rho(sub, n).estimate
            assert rho_big <= rho_sub + 2.0 / n


class TestClassifyRho:
    def test_equilateral_certifies_third(self, ex31_map):
        res = classify_rho(ex31_map, n=50_000)
        assert res.certificate is not None
        assert (res.certificate.p, res.certificate.q) == (1, 3)
        assert 1.0 / 3.0 - res.error_bound <= res.estimate < 0.5

    def test_sandwich_certifies_two_fifths(self):
        tmap = triangle_map(canonical_triangle(0.9, -0.02))
        res = classify_rho(tmap, n=50_000)
        assert res.certificate is not None
        assert (res.certificate.p, res.certificate.q) == (2, 5)

    def test_wide_isosceles_below_two_fifths(self):
        tmap = triangle_map(canonical_triangle(0.9, -0.2))
        res = classify_rho(tmap, n=50_000)
        assert res.comparison is not None
        assert (res.comparison.p, res.comparison.q) == (2, 5)
        assert res.comparison.relation == "less"
        if res.certificate is not None:
            assert (res.certificate.p, res.certificate.q) != (2, 5)

    def test_triangle_precondition(self):
        seg = TangentMap(
            ConvexBody.segment(DiskPoint(0.0, 0.5), DiskPoint(0.0, -0.5))
        )
        with pytest.raises(PreconditionFailed):
            classify_rho(seg)

    @pytest.mark.parametrize("estimate", [1.0 / 3.0 - 0.002, 0.5 + 0.002])
    def test_estimate_outside_the_range_is_a_bug(self, monkeypatch, estimate):
        """An estimate beyond [1/3 - 2/n, 1/2 + 2/n] breaks the theorem."""
        real = rotation.estimate_rho
        monkeypatch.setattr(rotation, "estimate_rho",
                            lambda tmap, n: real(tmap, n)._replace(estimate=estimate))
        tmap = triangle_map(canonical_triangle(0.9, -0.02))
        with pytest.raises(OutOfTheoreticalRange, match="^estimate .* escapes"):
            classify_rho(tmap, n=2000)

    def test_certificate_outside_the_range_is_a_bug(self, monkeypatch):
        def three_fifths(tmap, p, q):
            return RationalCertificate(3, 5, 0.0, 0.0, "sign_change"), None

        monkeypatch.setattr(rotation, "_certify", three_fifths)
        tmap = triangle_map(canonical_triangle(0.9, -0.02))
        with pytest.raises(OutOfTheoreticalRange, match="certified 3/5 escapes"):
            classify_rho(tmap, n=2000)


def _side_and_certificate(tri):
    """classify_rho's side of 2/5 (-1 below, 0 equals, 1 above) and its
    certified p/q, or None."""
    res = classify_rho(triangle_map(tri), n=2000)
    side = 0 if res.comparison is None else {"less": -1, "greater": 1}[res.comparison.relation]
    cert = res.certificate
    return side, cert and Fraction(cert.p, cert.q)


def _nested_pairs(rng):
    """(A, B) with the triangle A inside B: canonical triangles with t <= t'
    and |r| <= |r'| of one sign, then random triangles B with A shrunk
    toward B's centroid."""
    pairs = []
    for _ in range(50):
        t, t2 = sorted(rng.uniform(0.75, 0.97, 2))
        r, r2 = sorted(10.0 ** rng.uniform(-3, -0.7, 2))
        sign = rng.choice([-1.0, 1.0])
        pairs.append((canonical_triangle(t, sign * r), canonical_triangle(t2, sign * r2)))
    for _ in range(50):
        big = random_triangle(rng)
        k = rng.uniform(0.3, 0.999)
        cx, cy = (sum(c) / 3.0 for c in zip(*(v.xy for v in big.vertices)))
        pairs.append((Triangle(*(DiskPoint(cx + k * (v.x - cx), cy + k * (v.y - cy))
                                 for v in big.vertices)), big))
    return pairs


class TestOrderUnderInclusion:
    """A triangle inside another has the larger rotation number: the
    larger triangle's supporting chords end no further counterclockwise,
    so its lift lies below (Katok and Hasselblatt, 1995, Prop. 11.1.9)."""

    def test_verdict_does_not_rise_from_inner_to_outer(self):
        for inner, outer in _nested_pairs(np.random.default_rng(21)):
            (side_a, cert_a), (side_b, cert_b) = map(_side_and_certificate, (inner, outer))
            assert side_b <= side_a
            if cert_a and cert_b:
                assert cert_b <= cert_a

    def test_pinned_band_csv_is_ordered_in_t_and_abs_r(self):
        path = os.path.join(os.path.dirname(__file__), "data", "sweep_band_4x4_seed3.csv")
        with open(path, newline="") as fh:
            cells = [(float(row["t"]), float(row["r"]), float(row["rho_estimate"]),
                      row["rho_q"] and Fraction(int(row["rho_p"]), int(row["rho_q"])))
                     for row in csv.DictReader(fh)]
        slack = 2.0 / 2000  # the pinned sweep's --iters
        for t, r, est, cert in cells:
            for t2, r2, est2, cert2 in cells:
                if t <= t2 and abs(r) <= abs(r2) and (r < 0) == (r2 < 0):
                    assert est2 <= est + slack
                    if cert and cert2:
                        assert cert2 <= cert


class TestCertificateSemiStable:
    @pytest.mark.parametrize("t", [0.5, 0.7, 0.9, 0.95])
    def test_boundary_configuration_certifies(self, t):
        tri, _ = standard_pentagram(t)
        res = certify_rational(triangle_map(tri), 2, 5)
        assert res.certificate is not None
        assert abs(res.certificate.residual) <= 1e-9


class TestTangencyAtTheExtremum:
    """A tangency at an interior extremum of R = F^q - id is read at the
    piece's critical point, so its witness is R's extremum to float noise:
    the Newton step |R'| / |R''| to the 40-digit extremum is at most 1e-13
    turns (measured: at most 2.5e-16)."""

    @pytest.mark.parametrize("tri, p, q", [
        *[pytest.param(ellipse_pentagram(t, v)[0], 2, 5, id=f"ellipse-{t}-{v}")
          for t, v in ((0.9, 0.1), (0.8, -0.3), (0.7, 0.5), (0.95, 0.0))],
        # the equilateral triangle as pinned for the command line
        pytest.param(Triangle(DiskPoint(-0.25, 0.433012701892),
                              DiskPoint(-0.25, -0.433012701892), DiskPoint(0.5, 0.0)),
                     1, 3, id="equilateral"),
    ])
    def test_witness_is_the_40_digit_extremum(self, tri, p, q):
        mpmath = pytest.importorskip("mpmath")
        cert, _ = _certify(triangle_map(tri), p, q)
        assert cert.kind == "tangency"
        with mpmath.workdps(40):
            step = mp_newton_step(lambda x: mp_lift(tri.vertices, x, q) - x, cert.witness_x)
        assert step <= 1e-13


@pytest.mark.parametrize("seed", [23, 28, 30])
def test_witness_at_the_wrap_is_the_zero_at_0(seed):
    """A standard_pentagram orbit runs through angle 0, a corner, and float
    noise can put that zero a last bit below 1: it is still the witness."""
    ts = [item["threshold"]["t"] for item in benchmark_inputs().certify_inputs(seed)
          if item.get("cls") == "threshold" and item["threshold"]["family"] == "standard"]
    assert ts
    for t in ts:
        cert = certify_rational(triangle_map(standard_pentagram(t)[0]), 2, 5).certificate
        assert cert.kind == "tangency" and abs(cert.witness_x) <= MERGE_TOL


class TestPlainFloatCertificates:
    @pytest.mark.parametrize(
        "tri, kind",
        [
            (standard_pentagram(0.9)[0], "tangency"),  # corner zeros on cuts
            (canonical_triangle(0.9, -0.02), "sign_change"),  # a bracketed zero
            (ellipse_pentagram(0.9, 0.1)[0], "tangency"),
        ],
    )
    def test_witness_and_residual_are_floats(self, tri, kind):
        cert = certify_rational(triangle_map(tri), 2, 5).certificate
        assert cert.kind == kind
        assert type(cert.witness_x) is float
        assert type(cert.residual) is float


CLASSIFY_CASES = {
    "sandwich": canonical_triangle(0.9, -0.02),
    "standard_pentagram": standard_pentagram(0.9)[0],
    "ellipse_pentagram": ellipse_pentagram(0.9, 0.1)[0],
    "strict_inside": canonical_triangle(0.9, -0.001),
    "tall_isosceles": canonical_triangle(0.9, -0.3),
    "equilateral": Triangle(
        DiskPoint(-0.25, 0.4330127018922193),
        DiskPoint(-0.25, -0.4330127018922193),
        DiskPoint(0.5, 0.0),
    ),
}


class TestClassifyMatchesCertify:
    """classify_rho certifies its candidates without certify_rational's
    estimate; its verdict must be the one certify_rational gives."""

    @pytest.mark.parametrize("name", sorted(CLASSIFY_CASES))
    def test_same_certificate_and_comparison(self, name):
        tmap = triangle_map(CLASSIFY_CASES[name])
        res = classify_rho(tmap, n=20_000)
        cert = res.certificate
        if cert is not None:
            assert certify_rational(tmap, cert.p, cert.q).certificate == cert
        if cert is None or (cert.p, cert.q) == (2, 5):
            probe = certify_rational(tmap, 2, 5)
            assert (probe.certificate, probe.comparison) == (cert, res.comparison)
        if res.comparison is not None:
            assert res.comparison == certify_rational(tmap, 2, 5).comparison
        assert cert is not None or res.comparison is not None


def _verdict_maps():
    """CLASSIFY_CASES and seeded triangles of the benchmark's classes."""
    bench = benchmark_inputs()
    rng = random.Random(12)
    tris = list(CLASSIFY_CASES.values())
    for _ in range(3):
        for verts in (bench.equilateral(rng), bench.sandwich(rng), bench.strict_inside(rng),
                      bench.tall_vertices(*bench.tall_isosceles(rng)),
                      bench.random_triangle(rng)):
            tris.append(Triangle(*(DiskPoint(*v) for v in verts)))
    return tris


class TestVerdictPath:
    """classify_rho scans 2/5 first, and then only rationals on the side
    of 2/5 that scan reported."""

    def test_two_fifths_is_scanned_first_then_its_side(self, monkeypatch):
        scans = []
        scan = rotation.scan_winding_zeros

        def recorded(tmap, p, q):
            scans.append((p, q))
            return scan(tmap, p, q)

        monkeypatch.setattr(rotation, "scan_winding_zeros", recorded)
        for tri in _verdict_maps():
            scans.clear()
            res = classify_rho(triangle_map(tri), n=20_000)
            assert scans[0] == (2, 5)
            if res.comparison is None:
                assert scans == [(2, 5)]
                continue
            side = 1 if res.comparison.relation == "greater" else -1
            assert all((5 * p - 2 * q) * side > 0 for p, q in scans[1:])

    def test_verdict_is_the_same_for_every_n(self):
        for tri in _verdict_maps():
            short, full = (conjecture_check(tri, n=n) for n in (200, 100_000))
            assert (short.rho_verdict, short.consistent, short.rotation.comparison) == (
                full.rho_verdict, full.consistent, full.rotation.comparison)
            for v in (short, full):
                cert = v.rotation.certificate
                if cert is not None and (cert.p, cert.q) in ((1, 3), (2, 5)):
                    assert short.rotation.certificate == full.rotation.certificate


def _translation(angle, p, q, lo=0.0, hi=1.0):
    """A piece on [lo, hi) whose map is the hyperbolic translation H_p H_q
    along the diameter at ``angle`` (turns), p and q signed distances from
    the centre along it; it fixes ``angle`` and ``angle + 1/2``."""
    u = complex(math.cos(TWO_PI * angle), math.sin(TWO_PI * angle))
    return Piece(lo, hi, *_compose(_half_turn(p * u), _half_turn(q * u)))


def _step(pc, x):
    """The signed step, in turns, from x to its image under pc's map."""
    z = cmath.rect(1.0, TWO_PI * x)
    w = (pc.a * z + pc.b) / (pc.b.conjugate() * z + pc.a.conjugate())
    return (cmath.phase(w) / TWO_PI - x + 0.5) % 1.0 - 0.5


def _zeros(pieces, level, shift=0.0):
    """The engine on maps that move every point less than half a turn,
    with R = level + the step - shift and f = R - level: the scalar map
    reads shift below the pieces."""

    def step(x):
        x = pieces[0].lo + (x - pieces[0].lo) % 1.0
        return _step(next(pc for pc in pieces if pc.lo <= x < pc.hi), x) - shift

    return _circle_zeros(pieces, (level,), lambda x: level + step(x), step)


def _polished(scan):
    """Every zero of a scan as (x, residual, kind), each one read as
    ``_certify`` reads its witness: a sign change polished, its residual
    read at the polished point before it is wrapped."""
    return [(*scan.read(z), z.kind) for z in scan.roots]


class TestFindZeros:
    """The zero engine on synthetic pieces: translations along a diameter,
    whose fixed points are its two ends."""

    def test_zero_on_a_node(self):
        # two pieces cut at 0 and 1/2, both pushing the same way: each cut
        # is one crossing, found from either side
        pieces = [_translation(0.0, 0.3, 0.0, 0.0, 0.5), _translation(0.0, 0.5, 0.0, 0.5, 1.0)]
        scan = _zeros(pieces, 2)
        assert [(round(x, 12), kind) for x, _, kind in _polished(scan)] == [
            (0.0, "sign_change"), (0.5, "sign_change")]
        assert scan.sign == 0

    def test_corner_zero_is_a_tangency(self):
        # the second piece pushes the other way: each cut is a corner of
        # R at the level, one semi-stable zero
        pieces = [_translation(0.0, 0.3, 0.0, 0.0, 0.5), _translation(0.0, 0.0, 0.5, 0.5, 1.0)]
        scan = _zeros(pieces, 2)
        assert [(round(x, 12), kind) for x, _, kind in _polished(scan)] == [
            (0.0, "tangency"), (0.5, "tangency")]
        assert all(abs(v) <= TANGENCY_TOL for _, v, _ in _polished(scan))

    def test_crossing_inside_a_cell(self):
        # one piece, no cuts: the two ends of the diameter at 0.3
        scan = _zeros([_translation(0.3, 0.4, -0.2)], 1)
        assert [kind for _, _, kind in _polished(scan)] == ["sign_change"] * 2
        for (x, v, _), want in zip(_polished(scan), (0.3, 0.8)):
            assert abs(x - want) <= 1e-13 and abs(v) <= 1e-15

    @staticmethod
    def _dip(offset, shift=0.0):
        """One piece whose residual has its minimum offset above level 1."""
        pc = _translation(0.1, 0.3, -0.3)
        x_min = pc.critical_points()[0] % 1.0
        # a rotation by phi after the map adds phi to its step
        phi = offset - _step(pc, x_min)
        r = cmath.exp(1j * math.pi * phi)
        return x_min, _zeros([Piece(pc.lo, pc.hi, r * pc.a, r * pc.b)], 1, shift)

    def test_tangency_in_the_band(self):
        # a dip into the band, and a close pair whose hump stays inside it
        for offset in (0.5 * TANGENCY_TOL, -0.5 * TANGENCY_TOL):
            x_min, scan = self._dip(offset)
            ((x, v, kind),) = _polished(scan)
            assert kind == "tangency" and abs(v) <= TANGENCY_TOL
            assert angular_distance(x, x_min) <= 1e-6

    def test_band_edges(self):
        # a close pair whose hump leaves the band is two crossings; a dip
        # that stays outside it is no zero, and g keeps its sign
        x_min, scan = self._dip(-5.0 * TANGENCY_TOL)
        assert [kind for _, _, kind in _polished(scan)] == ["sign_change"] * 2
        for x, v, _ in _polished(scan):
            assert abs(v) <= 1e-15 and 1e-6 < angular_distance(x, x_min) <= 1e-3
        _, scan = self._dip(5.0 * TANGENCY_TOL)
        assert (scan.roots, scan.sign) == ((), 1)

    def test_a_level_is_decided_by_the_scalar_map(self):
        # the pieces put this dip 1.5e-6 above the level, outside the screen,
        # and the scalar map puts it in the band: near a level, R is read
        # with the scalar map, so the dip is a tangency
        x_min, scan = self._dip(1.5e-6, shift=1.5e-6 - 0.5 * TANGENCY_TOL)
        ((x, v, kind),) = _polished(scan)
        assert kind == "tangency" and abs(v) <= TANGENCY_TOL
        assert angular_distance(x, x_min) <= 1e-6

    def test_duplicates_wrap_across_zero(self):
        # a zero just below 1 is reported at its wrapped value, first; the
        # cut at 1 - 2e-9 sees it from both sides and reports it once
        lo = 0.5 - 2e-9
        pieces = [_translation(-2e-9, 0.3, 0.0, lo, lo + 0.5),
                  _translation(-2e-9, 0.5, 0.0, lo + 0.5, lo + 1.0)]
        scan = _zeros(pieces, 2)
        roots = _polished(scan)
        assert [kind for _, _, kind in roots] == ["sign_change"] * 2
        assert abs(roots[0][0] + 2e-9) <= 1e-13
        assert abs(roots[1][0] - (0.5 - 2e-9)) <= 1e-13

    def test_one_signed_grid_gives_the_comparison(self, monkeypatch):
        for tri, sign, relation in ((canonical_triangle(0.9, -0.001), 1, "greater"),
                                    (canonical_triangle(0.9, -0.3), -1, "less")):
            scan = scan_winding_zeros(triangle_map(tri), 2, 5)
            assert (scan.roots, scan.sign) == ((), sign)
            monkeypatch.setattr(rotation, "scan_winding_zeros", lambda *a, **k: scan)
            assert rotation._certify(None, 2, 5) == (
                None, rotation.RationalComparison(2, 5, relation))
            monkeypatch.undo()

    def test_dedupe_keeps_whole_tuples(self):
        roots = [(0.99999999999, 1e-15, "sign_change"), (0.5, 0.0, "tangency"),
                 (2e-9, 3e-16, "sign_change"), (0.5 + 5e-9, -1e-16, "sign_change")]
        assert _dedupe_cyclic(roots, MERGE_TOL) == [
            (2e-9, 3e-16, "sign_change"), (0.5, 0.0, "tangency")]


def _random_triangle(rng):
    while True:
        pts = []
        while len(pts) < 3:
            x, y = rng.uniform(-0.9, 0.9, 2)
            if x * x + y * y < 0.81:
                pts.append(DiskPoint(float(x), float(y)))
        try:
            tri = Triangle(*pts)
            return tri, triangle_map(tri)
        except Exception:
            continue


#: canonical triangles locked at p/q, by q: F^q - id - p has 2q zeros,
#: some of them closer together than 2^-12 turns
LOCKED = {
    8: (0.928494553926, -0.0392496293517, 3),
    37: (0.8, -0.023033898305084732, 15),
    46: (0.9123728813559322, -0.003, 19),
    64: (0.9, -0.05270540618896484, 25),
}


class TestPiecesOnRandomTriangles:
    """The pieces of F^q against the scalar lift on seeded random triangles,
    and on one locked triangle where there is one."""

    @pytest.mark.parametrize("q", [3, 5, 8, 37, 46, 64])
    def test_pieces_zeros_and_sign_against_dense_sampling(self, q):
        rng = np.random.default_rng(1000 + q)
        cases = []
        while len(cases) < 3:
            _, tmap = _random_triangle(rng)
            p = round(q * estimate_rho(tmap, 4000).estimate)
            if 1 <= p < q and math.gcd(p, q) == 1:
                cases.append((tmap, p, False))
        if q in LOCKED:
            t, r, p = LOCKED[q]
            cases.append((triangle_map(canonical_triangle(t, r)), p, True))
        samples = 2000
        xs = (np.arange(samples) + 0.5) / samples
        refused = []
        for case, (tmap, p, locked) in enumerate(cases):
            pieces = tmap.pieces(q)
            assert len(pieces) <= 3 * q
            assert all(a.hi == b.lo for a, b in zip(pieces, pieces[1:]))
            assert pieces[-1].hi == pieces[0].lo + 1.0
            try:
                scan = scan_winding_zeros(tmap, p, q)
            except PreconditionFailed:
                refused.append(case)
                continue
            for zero, (x, v, _) in zip(scan.roots, _polished(scan)):
                assert abs(tmap.lift_iter(x, q) - x - p) <= TANGENCY_TOL
                # a zero as located is its polished self to far below the
                # merge width, so it ranks and merges as the polished one
                assert angular_distance(zero.x, x) <= 0.01 * MERGE_TOL
            assert len(scan.roots) % q == 0  # whole periodic orbits
            if locked:
                assert len(scan.roots) == 2 * q
            g = np.array([tmap.lift_iter(float(x), q) - x - p for x in xs])
            if not scan.roots:
                assert (np.sign(g) == scan.sign).all()
                continue
            # every sampled sign change holds a zero of the scan
            zeros = [x % 1.0 for x, _, _ in _polished(scan)]
            for i in np.nonzero(g * np.roll(g, -1) < 0.0)[0]:
                lo, hi = xs[i], xs[i] + 1.0 / samples
                assert any(lo <= z <= hi or lo <= z + 1.0 <= hi for z in zeros)
            # and every isolated crossing lies in a sampled sign change
            for z in (x % 1.0 for x, _, k in _polished(scan) if k == "sign_change"):
                others = [angular_distance(z, w) for w in zeros if w != z]
                if min(others, default=1.0) > 2.0 / samples:
                    i = int((z - 0.5 / samples) * samples) % samples
                    assert g[i] * g[(i + 1) % samples] < 0.0
        # the second seeded triangle's F^64 has a critical point within
        # SNAP of a cut: the scan refuses it, and only it
        assert refused == ([1] if q == 64 else [])

    def test_certify_runs_for_every_denominator(self):
        """The scan reads this triangle up to q = 44.  From q = 45 a critical
        point of F^q lies within SNAP of a cut (1.8e-13 at q = 45), which the
        scalar map reads 0.81 off an 80-digit read: every scan refuses."""
        tri, tmap = _random_triangle(np.random.default_rng(7))
        for q in range(2, MAX_Q + 1):
            assert len(tmap.pieces(q)) <= 3 * q
            ps = [p for p in range(1, q) if math.gcd(p, q) == 1 and abs(p / q - 0.4) < 0.1]
            if q >= 45:
                for p in ps:
                    with pytest.raises(PreconditionFailed):
                        _certify(tmap, p, q)
                for scan in (scan_winding_zeros, certify_rational):
                    with pytest.raises(PreconditionFailed):
                        scan(tmap, ps[0], q)
                continue
            for p in ps:
                cert, comp = _certify(tmap, p, q)
                assert (cert is None) != (comp is None)
            scan_winding_zeros(tmap, round(0.4 * q), q)  # returns, whatever p
            if ps:
                res = certify_rational(tmap, ps[0], q)
                assert (res.certificate is None) != (res.comparison is None)


def _anchored_read_maps():
    """Every fourth cell of the seeded 20x20 band sweep at seed 21, and 20
    random triangles of the benchmark's kind."""
    rng = random.Random(21)
    ts = _grid_values(0.85, 0.95, 20, [rng.random() for _ in range(20)])
    rs = _grid_values(-0.04, -0.006, 20, [rng.random() for _ in range(20)])
    tris = [canonical_triangle(t, r) for t in ts for r in rs][1::4]
    bench, rng = benchmark_inputs(), random.Random(3)
    tris += [Triangle(*(DiskPoint(*v) for v in bench.random_triangle(rng))) for _ in range(20)]
    return [triangle_map(tri) for tri in tris]


class TestAnchoredRead:
    """R at the extrema of a scan, read from the pieces and anchored by one
    scalar lift, against the scalar lift."""

    #: the worst guarded read measured, over the 1200 band cells of seeds 1,
    #: 21 and 22 and 400 random triangles, is 1.43e-9 (seed 21's cell 381,
    #: q = 64, |a|^2 = 1.5e7); every decision is made 2e-6 from a level
    BOUND = 5e-9

    @pytest.mark.parametrize("q", [3, 5, 8, 13, 21, 34, 55, 64])
    def test_guarded_reads_match_the_scalar_lift(self, monkeypatch, q):
        anchored, reads = rotation._anchored, []

        def spy(pc, x, anchor):
            lifted = anchored(pc, x, anchor)
            if lifted is not None:
                reads.append((x, lifted))
            return lifted

        monkeypatch.setattr(rotation, "_anchored", spy)
        checked = 0
        for tmap in _anchored_read_maps():
            reads.clear()
            try:
                scan_winding_zeros(tmap, 1, q)
            except PreconditionFailed:
                continue
            for x, lifted in reads:
                assert abs(lifted - tmap.lift_iter(x, q)) <= self.BOUND
            checked += len(reads)
        assert checked >= 200


def _witness_of_every_zero_polished(tmap, p, q):
    """The certificate's (x, residual, kind) when every located zero is
    polished first: the lowest-angle zero of the first kind present."""
    roots = _polished(scan_winding_zeros(tmap, p, q))
    for kind in ("sign_change", "tangency"):
        of_kind = [r for r in roots if r[2] == kind]
        if of_kind:
            return min(of_kind)
    return None


class TestPolishOnlyTheWitness:
    """A verdict polishes only the zero it reports, and reports the zero,
    to the bit, that polishing every located zero would choose."""

    @staticmethod
    def _cases():
        bench = benchmark_inputs()
        rng = random.Random(11)
        maps = [triangle_map(standard_pentagram(0.9)[0]),
                triangle_map(ellipse_pentagram(0.9, 0.1)[0])]
        for _ in range(3):
            for verts in (bench.sandwich(rng), bench.strict_inside(rng),
                          bench.tall_vertices(*bench.tall_isosceles(rng)),
                          bench.random_triangle(rng)):
                maps.append(triangle_map(Triangle(*(DiskPoint(*v) for v in verts))))
        cases = []
        for tmap in maps:
            est = estimate_rho(tmap, 4000).estimate
            for q in (5, *LOCKED):
                p = round(q * est)
                if 1 <= p < q and math.gcd(p, q) == 1:
                    cases.append((tmap, p, q))
        for q, (t, r, p) in LOCKED.items():
            cases.append((triangle_map(canonical_triangle(t, r)), p, q))
        return cases

    def test_witness_is_the_fully_polished_choice(self):
        kinds, refused = set(), []
        for tmap, p, q in self._cases():
            try:
                cert, comp = _certify(tmap, p, q)
            except PreconditionFailed:
                with pytest.raises(PreconditionFailed):
                    scan_winding_zeros(tmap, p, q)
                refused.append(q)
                continue
            want = _witness_of_every_zero_polished(tmap, p, q)
            if want is None:
                assert cert is None and comp is not None
                continue
            kinds.add(cert.kind)
            assert (cert.witness_x.hex(), cert.residual.hex(), cert.kind) == (
                want[0].hex(), want[1].hex(), want[2])
        assert kinds == {"sign_change", "tangency"}
        # five random benchmark-class maps are beyond float resolution at
        # high q; no LOCKED triangle and no q = 5 case is
        assert refused == [37, 46, 64, 37, 64]

    def test_brentq_runs_once_per_polished_zero(self, monkeypatch):
        calls = []
        brentq = rotation.brentq

        def counted(*args, **kwargs):
            calls.append(args)
            return brentq(*args, **kwargs)

        monkeypatch.setattr(rotation, "brentq", counted)
        sandwich = triangle_map(canonical_triangle(0.9, -0.02))
        for tmap, kind, polishes in (
            (sandwich, "sign_change", 1),
            (triangle_map(standard_pentagram(0.9)[0]), "tangency", 0),
            (triangle_map(canonical_triangle(0.9, -0.001)), None, 0),  # rho > 2/5
        ):
            calls.clear()
            cert, _ = _certify(tmap, 2, 5)
            assert (cert and cert.kind, len(calls)) == (kind, polishes)
        # detect_period5 polishes the zero each orbit starts from, and
        # claims the other four by their stretches
        calls.clear()
        orbits = detect_period5(sandwich)
        scan = scan_winding_zeros(sandwich, 2, 5)
        assert [z.kind for z in scan.roots] == ["sign_change"] * 10
        assert (orbits.zero_count, len(orbits.orbits), len(calls)) == (10, 2, 2)


def _benchmark_verdict_maps(seed):
    """The maps of the benchmark's ``certify`` and ``rho-cli`` verdicts."""
    bench = benchmark_inputs()
    for item in bench.certify_inputs(seed):
        if item["kind"] != "verdict":
            continue
        th = item.get("threshold")
        if th is None:
            yield triangle_map(Triangle(*(DiskPoint(*v) for v in item["verts"])))
        elif th["family"] == "standard":
            yield triangle_map(standard_pentagram(th["t"])[0])
        else:
            yield triangle_map(ellipse_pentagram(th["t"], th["v"], th["side"])[0])
    for item in bench.rho_inputs(seed):
        yield triangle_map(_triangle_from_args(build_parser().parse_args(item["argv"]))[0])


#: a tall isosceles triangle locked at 6/17: the 50-step estimate
#: shortlists 4/11, 5/14 and 6/17 below 2/5
TALL_6_17 = (0.9080828338830698, -0.0837518149789718)


class TestResolutionGuard:
    """Every scan refuses an F^q beyond float resolution; classify_rho
    skips a refused candidate but not a refused 2/5 scan."""

    @pytest.mark.parametrize("seed", [21, 22, 23, 24, 25])
    def test_guard_spares_the_benchmark_verdicts(self, seed):
        maps = list(_benchmark_verdict_maps(seed))
        assert len(maps) == 68  # 48 certify verdicts, 20 rho calls
        for tmap in maps:
            scan_winding_zeros(tmap, 2, 5)
            detect_period5(tmap)

    @pytest.mark.parametrize("refused, cert", [
        ((), (6, 17)), ((11, 14), (6, 17)), ((17,), None),
    ], ids=["none", "4/11-and-5/14", "6/17"])
    def test_classify_skips_a_refused_candidate(self, monkeypatch, capsys, refused, cert):
        certify, calls = rotation._certify, []

        def refusing(tmap, p, q):
            calls.append((p, q))
            if q in refused:
                raise PreconditionFailed(f"{p}/{q} refused")
            return certify(tmap, p, q)

        monkeypatch.setattr(rotation, "_certify", refusing)
        t, r = TALL_6_17
        res = classify_rho(triangle_map(canonical_triangle(t, r)), n=50)
        assert calls[:4] == [(2, 5), (4, 11), (5, 14), (6, 17)]
        assert (res.certificate and (res.certificate.p, res.certificate.q)) == cert
        assert res.comparison == (2, 5, "less")
        # a refused candidate leaves the rho command's verdict standing
        assert main(["rho", "--t", repr(t), f"--r={r!r}", "--iters", "50"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rho_verdict"] == "below"
        assert [out["rotation"]["rho_p"], out["rotation"]["rho_q"]] == list(cert or (None, None))

    @pytest.mark.parametrize("command", ["rho", "verify"])
    def test_a_refused_two_fifths_scan_exits_2(self, monkeypatch, capsys, command):
        certify = rotation._certify

        def refusing(tmap, p, q):
            if (p, q) == (2, 5):
                raise PreconditionFailed("2/5 refused")
            return certify(tmap, p, q)

        monkeypatch.setattr(rotation, "_certify", refusing)
        t, r = TALL_6_17
        with pytest.raises(PreconditionFailed):
            classify_rho(triangle_map(canonical_triangle(t, r)), n=50)
        assert main([command, "--t", repr(t), f"--r={r!r}"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "PreconditionFailed"
