import math

import numpy as np
import pytest

from barbilliard import (
    ConvexBody,
    DiskPoint,
    InvalidRational,
    IterationBudgetExceeded,
    PreconditionFailed,
    Triangle,
    build_tangent_map,
    certify_rational,
    classify_rho,
    ellipse_pentagram,
    estimate_rho,
    standard_pentagram,
)
from barbilliard.pentagram import triangle_map
from barbilliard import rotation
from barbilliard.geometry import TWO_PI
from barbilliard.rotation import (
    MERGE_TOL,
    TANGENCY_TOL,
    _dedupe_cyclic,
    _find_zeros,
    _sign_change_cells,
    scan_winding_zeros,
)
from conftest import random_convex_polygon


def canonical_triangle(t, r):
    return Triangle(DiskPoint(0.0, t), DiskPoint(0.0, -t), DiskPoint(r, 0.0))


class TestEstimateRho:
    def test_point_body_half(self, rng):
        for p in ((0.0, 0.0), (0.3, -0.4), (-0.7, 0.1)):
            tmap = build_tangent_map(ConvexBody.point(DiskPoint(*p)))
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
        runs = [estimate_rho(tmap, n, x0=float(x)).estimate for x in rng.uniform(0, 1, 5)]
        assert max(runs) - min(runs) <= 2.0 / n

    def test_upper_bound_half(self, rng):
        n = 3000
        for _ in range(5):
            tmap = build_tangent_map(random_convex_polygon(rng))
            assert estimate_rho(tmap, n).estimate <= 0.5 + 1.0 / n

    def test_budget(self):
        tmap = build_tangent_map(ConvexBody.point(DiskPoint(0.0, 0.0)))
        with pytest.raises(IterationBudgetExceeded):
            estimate_rho(tmap, 0)


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
            with pytest.raises(InvalidRational):
                certify_rational(ex31_map, p, q)

    def test_rho_monotone_under_inclusion(self, rng):
        # nested bodies order their rotation numbers the opposite way
        n = 4000
        for _ in range(5):
            poly = random_convex_polygon(rng, n=5)
            big = build_tangent_map(poly)
            sub = build_tangent_map(
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
        seg = build_tangent_map(
            ConvexBody.segment(DiskPoint(0.0, 0.5), DiskPoint(0.0, -0.5))
        )
        with pytest.raises(PreconditionFailed):
            classify_rho(seg)


class TestCertificateSemiStable:
    @pytest.mark.parametrize("t", [0.5, 0.7, 0.9, 0.95])
    def test_boundary_configuration_certifies(self, t):
        tri, _ = standard_pentagram(t)
        res = certify_rational(triangle_map(tri), 2, 5)
        assert res.certificate is not None
        assert abs(res.certificate.residual) <= 1e-9


class TestPlainFloatCertificates:
    @pytest.mark.parametrize(
        "tri, kind",
        [
            (standard_pentagram(0.9)[0], "sign_change"),  # a zero on a grid node
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
        assert cert is not None or res.comparison is not None

    def test_sign_change_scan_skips_refinement_but_keeps_roots(self):
        tmap = triangle_map(canonical_triangle(0.9, -0.02))
        fast = scan_winding_zeros(tmap, 2, 5)
        full = scan_winding_zeros(tmap, 2, 5, keep_tangencies=True)
        assert fast.roots
        assert fast.roots == tuple(r for r in full.roots if r[2] == "sign_change")
        # the fast scan polishes nothing; every |g| dip of the full scan's
        # grid touches a crossing, so it has nothing to polish either
        assert fast.margin is None and full.margin is None
        assert fast.sign == full.sign == 0


def _sign_change_cells_loop(ys):
    out = []
    for i in range(len(ys)):
        yi, yj = ys[i], ys[(i + 1) % len(ys)]
        if yi == 0.0 or yi * yj < 0.0:
            out.append(i)
    return out


class TestSignChangeCells:
    def test_matches_the_cell_by_cell_loop(self, rng):
        for _ in range(50):
            ys = rng.normal(size=int(rng.integers(1, 40)))
            ys[rng.random(len(ys)) < 0.2] = 0.0
            assert _sign_change_cells(ys).tolist() == _sign_change_cells_loop(ys)

    def test_wraparound_and_zero_nodes(self):
        ys = np.array([-1.0, -2.0, 0.0, 3.0, 1.0])
        assert _sign_change_cells(ys).tolist() == [2, 4]


def _scan(f, xs, cyclic=False):
    xs = np.asarray(xs, dtype=float)
    return _find_zeros(f, xs, np.array([f(x) for x in xs]), cyclic, True)


class TestFindZeros:
    """The one zero finder, on synthetic samples."""

    nodes = np.arange(9) / 8.0  # a span [0, 1] in eighths

    def test_zero_on_a_node(self):
        scan = _scan(lambda x: x - 0.375, self.nodes)
        assert scan.roots == ((0.375, 0.0, "sign_change"),)
        assert scan.sign == 0

    def test_crossing_inside_a_cell(self):
        (root,) = _scan(lambda x: x - 0.3, self.nodes).roots
        assert root[2] == "sign_change"
        assert abs(root[0] - 0.3) <= 1e-13 and abs(root[1]) <= 1e-15

    def test_tangency_in_the_band(self):
        scan = _scan(lambda x: (x - 0.3) ** 2, self.nodes)
        ((x, y, kind),) = scan.roots
        assert kind == "tangency" and 0.0 <= y <= TANGENCY_TOL
        assert abs(x - 0.3) <= 1e-5
        assert scan.sign == 1 and scan.margin == (x, y)

    def test_dip_below_the_band_is_one_sign_change(self):
        # both crossings lie in one cell: the grid sees no sign change
        def f(x):
            return (x - 0.3) ** 2 - 1e-6

        scan = _scan(f, self.nodes)
        ((x, y, kind),) = scan.roots
        assert kind == "sign_change"
        assert abs(x - (0.3 - 1e-3)) <= 1e-12 and abs(y) <= 1e-15
        assert scan.sign == 1 and scan.margin[1] < -TANGENCY_TOL

    def test_duplicates_wrap_across_zero(self):
        # zeros at -2e-9 and 1e-9 (and near 1/2): one each after merging
        def f(x):
            return math.sin(TWO_PI * (x + 2e-9)) * math.sin(TWO_PI * (x - 1e-9))

        scan = _scan(f, np.arange(8) / 8.0, cyclic=True)
        assert [kind for _, _, kind in scan.roots] == ["sign_change"] * 2
        assert abs(scan.roots[0][0] - 1e-9) <= 1e-12
        assert abs(scan.roots[1][0] - (0.5 - 2e-9)) <= 1e-12

    def test_mixed_sign_grid_yields_no_comparison(self, monkeypatch):
        # a grid sign the scalar function does not confirm is polished,
        # finds nothing, and leaves the grid mixed
        xs = np.arange(8) / 8.0
        ys = 1.0 + xs
        ys[3] = -1e-17
        scan = _find_zeros(lambda x: 1.0 + x % 1.0, xs, ys, True, False)
        assert scan.roots == () and scan.sign == 0 and scan.margin[1] > 0.0
        monkeypatch.setattr(rotation, "scan_winding_zeros", lambda *a, **k: scan)
        assert rotation._certify(None, 2, 5) == (None, None)

    def test_one_signed_grid_gives_the_comparison(self, monkeypatch):
        for sign, relation in ((1, "greater"), (-1, "less")):
            scan = rotation.ZeroScan((), (0.5, sign * 1e-3), sign)
            monkeypatch.setattr(rotation, "scan_winding_zeros", lambda *a, **k: scan)
            assert rotation._certify(None, 2, 5) == (
                None, rotation.RationalComparison(2, 5, relation))

    def test_dedupe_keeps_whole_tuples(self):
        roots = [(0.99999999999, 1e-15, "sign_change"), (0.5, 0.0, "tangency"),
                 (2e-9, 3e-16, "sign_change"), (0.5 + 5e-9, -1e-16, "sign_change")]
        assert _dedupe_cyclic(roots, MERGE_TOL) == [
            (2e-9, 3e-16, "sign_change"), (0.5, 0.0, "tangency")]
