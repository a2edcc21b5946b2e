"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from barbilliard import (
    ConvexBody,
    DiskPoint,
    IdealPoint,
    TangentMap,
    Triangle,
    certify_rational,
    classify_rho,
    condition_report,
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
from conftest import delta_from_sides, random_convex_polygon, random_triangle, src_env
from lemmas import (
    ellipse_contact_xs,
    ideal_chain,
    normalize_pair,
    one_sided_slopes,
    orbit_derivative_product,
)
from test_pentagram import brute_tau_signs

SQRT5 = math.sqrt(5.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def sandwich_apex(t: float, v: float, frac: float) -> DiskPoint:
    """Apex at height v whose drop sits at the given interval fraction."""
    d = math.log((1.0 + t) / (1.0 - t))
    lo = min(delta_n(d, 2), 0.5 * delta_n(d, 1))
    hi = max(delta_n(d, 2), 0.5 * delta_n(d, 1))
    delta_target = lo + frac * (hi - lo)
    x = math.tanh(delta_target) * math.sqrt(1.0 - v * v)
    return DiskPoint(-x, v)


@pytest.fixture(scope="module")
def sandwich_samples():
    rng = np.random.default_rng(424242)
    samples = []
    while len(samples) < 200:
        t = float(rng.uniform(0.2, 0.95))
        v = float(rng.uniform(-0.6, 0.6))
        frac = float(rng.uniform(0.02, 0.98))
        apex = sandwich_apex(t, v, frac)
        tri = Triangle(DiskPoint(0.0, t), DiskPoint(0.0, -t), apex)
        if not condition_report(tri).two_fifths_sandwich:
            continue
        samples.append(tri)
    return samples


@pytest.fixture(scope="module")
def certified_sandwich(sandwich_samples):
    t0 = time.perf_counter()
    results = []
    for tri in sandwich_samples:
        tmap = triangle_map(tri)
        results.append((tri, tmap, certify_rational(tmap, 2, 5)))
    return results, time.perf_counter() - t0


def test_criterion_1_equilateral_reproduction(ex31_triangle, ex31_map):
    t0 = time.perf_counter()
    p, q, r = (
        DiskPoint(-0.25, math.sqrt(3.0) / 4.0),
        DiskPoint(-0.25, -math.sqrt(3.0) / 4.0),
        DiskPoint(0.5, 0.0),
    )
    d = hyp_distance(p, q)
    d1 = delta_n(d, 1)
    _, delta = foot_and_delta(p, q, r)
    res = classify_rho(ex31_map)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(d - math.log((SQRT5 + 1.0) / (SQRT5 - 1.0))) <= 1e-9
        and abs(d1 - math.log(SQRT5)) <= 1e-9
        and abs(delta - math.log(SQRT5)) <= 1e-9
        and res.certificate is not None
        and (res.certificate.p, res.certificate.q) == (1, 3)
        and elapsed < 5.0
    )
    report(
        1,
        ok,
        f"d'={d:.9f} threshold={d1:.9f} drop={delta:.9f} "
        f"rho=1/3 certified={res.certificate is not None} ({elapsed:.2f}s)",
    )


def test_criterion_2_canonical_closure():
    t0 = time.perf_counter()
    residuals = {}
    certified = {}
    for t in (0.5, 0.7, 0.9, 0.95):
        tri, pent = standard_pentagram(t)
        tmap = triangle_map(tri)
        residuals[t] = max(
            angular_distance(tmap.eval_angle(pent.points[i].angle),
                             pent.points[(i + 1) % 5].angle)
            for i in range(5)
        )
        residuals[t] = max(
            residuals[t],
            max(
                abs(tmap.lift_iter(p.angle, 5) - p.angle - 2.0)
                for p in pent.points
            ),
        )
        certified[t] = certify_rational(tmap, 2, 5).certificate is not None
    elapsed = time.perf_counter() - t0
    worst = max(residuals.values())
    ok = worst <= 1e-9 and all(certified.values()) and elapsed < 10.0
    report(2, ok, f"max closure residual {worst:.2e}, all certified 2/5 ({elapsed:.2f}s)")


def test_criterion_3_ellipse_closure():
    worst_closure = 0.0
    worst_delta = 0.0
    worst_x = 0.0
    for t in (0.5, 0.9):
        for v in (0.0, t / 2.0, -t / 2.0, 0.9 * t, -0.9 * t):
            tri, pent = ellipse_pentagram(t, v, "left")
            tmap = triangle_map(tri)
            worst_closure = max(
                worst_closure,
                max(
                    abs(tmap.lift_iter(p.angle, 5) - p.angle - 2.0)
                    for p in pent.points
                ),
            )
            p_top = DiskPoint(0.0, t)
            q_bot = DiskPoint(0.0, -t)
            apex = [w for w in tri.vertices if abs(w.x) > 1e-13][0]
            _, delta = foot_and_delta(p_top, q_bot, apex)
            worst_delta = max(
                worst_delta, abs(delta - delta_n(hyp_distance(p_top, q_bot), 2))
            )
            got = sorted(pt.xy[0] for pt in pent.points)
            want = sorted(ellipse_contact_xs(t, v))
            worst_x = max(
                worst_x, max(abs(a - b) for a, b in zip(got, want))
            )
    ok = worst_closure <= 1e-9 and worst_delta <= 1e-10 and worst_x <= 1e-9
    report(
        3,
        ok,
        f"closure {worst_closure:.2e}, drop-vs-threshold {worst_delta:.2e}, "
        f"abscissa cross-check {worst_x:.2e}",
    )


def test_criterion_4_sandwich_sweep(certified_sandwich):
    results, elapsed = certified_sandwich
    certified = sum(1 for _, _, res in results if res.certificate is not None)
    ok = certified == len(results) == 200 and elapsed < 120.0
    report(
        4,
        ok,
        f"{certified}/200 sandwich samples certified rho=2/5 ({elapsed:.1f}s)",
    )


def test_criterion_5_directional_comparisons():
    rng = np.random.default_rng(515151)
    above_ok = 0
    above_total = 0
    while above_total < 100:
        t = float(rng.uniform(0.05, 0.35))
        v = float(rng.uniform(-t / 2.0, t / 2.0))
        d = math.log((1.0 + t) / (1.0 - t))
        delta_target = float(rng.uniform(0.05, 0.95)) * delta_n(d, 2)
        x = math.tanh(delta_target) * math.sqrt(1.0 - v * v)
        tri = Triangle(DiskPoint(0.0, t), DiskPoint(0.0, -t), DiskPoint(-x, v))
        if not condition_report(tri).all_strictly_inside:
            continue
        above_total += 1
        res = certify_rational(triangle_map(tri), 2, 5)
        if (
            res.certificate is None
            and res.comparison is not None
            and res.comparison.relation == "greater"
        ):
            above_ok += 1

    below_ok = 0
    for _ in range(100):
        t = float(rng.uniform(0.802, 0.98))
        d = math.log((1.0 + t) / (1.0 - t))
        delta_target = 0.5 * delta_n(d, 1) * float(rng.uniform(1.05, 2.5))
        x = math.tanh(delta_target)
        tri = Triangle(DiskPoint(0.0, t), DiskPoint(0.0, -t), DiskPoint(-x, 0.0))
        rep = condition_report(tri)
        assert rep.isosceles_below
        res = certify_rational(triangle_map(tri), 2, 5)
        if (
            res.certificate is None
            and res.comparison is not None
            and res.comparison.relation == "less"
        ):
            below_ok += 1

    ok = above_ok == 100 and below_ok == 100
    report(
        5,
        ok,
        f"{above_ok}/100 strict-inside samples above 2/5, "
        f"{below_ok}/100 tall isosceles below 2/5, zero contradictions",
    )


def test_criterion_6_tau_trichotomy():
    p1, p2 = DiskPoint(0.0, 0.9), DiskPoint(0.0, -0.9)
    x_star = math.tanh(delta_n(math.log(19.0), 2))
    cases = {
        -0.003: 0,
        -x_star: 1,
        # 6.3e-9 above the threshold: two roots 2.66e-6 turns apart, too
        # close for the brute grid, so each is checked on its own
        -0.00554013: 2,
        -0.02: 2,
    }
    ok = True
    details = []
    tmap = TangentMap(ConvexBody.segment(p1, p2))

    def h(w, pt):
        """Signed distance from pt to the chord from w to its fourth image."""
        b = w
        for _ in range(4):
            b = IdealPoint(tmap.eval_angle(b.angle))
        ax, ay = w.xy
        bx, by = b.xy
        ex, ey = bx - ax, by - ay
        return (ex * (pt.y - ay) - ey * (pt.x - ax)) / math.hypot(ex, ey)

    for x, want in cases.items():
        pt = DiskPoint(x, 0.0)
        res = tau_n(p1, p2, pt, 2)
        signs, min_abs = brute_tau_signs(p1, p2, pt, 2, grid=20001)
        agree = res.count == want
        if want == 1:
            # tangency: no transverse crossing, and the root really sits
            # on a chord through the query point within the band
            h_root = abs(h(res.roots[0], pt))
            agree = agree and signs == 0 and h_root <= 1e-9 and min_abs <= 1e-6
            details.append(f"x={x}: count=1 |h(root)|={h_root:.1e}")
        elif x == -0.00554013:
            crossing = [
                h(IdealPoint(w.angle - 1e-7), pt) * h(IdealPoint(w.angle + 1e-7), pt) < 0.0
                for w in res.roots
            ]
            agree = agree and all(crossing)
            details.append(f"x={x}: count={res.count}, each root crosses within 1e-7")
        else:
            agree = agree and signs == want
            details.append(f"x={x}: count={res.count} brute={signs}")
        ok = ok and agree
    report(6, ok, "; ".join(details))


def test_criterion_7_orbit_count_bound(certified_sandwich):
    results, _ = certified_sandwich
    max_orbits = 0
    shift_ok = True
    counted = 0
    for tri, tmap, res in results:
        if res.certificate is None:
            continue
        counted += 1
        found = detect_period5(tmap)
        max_orbits = max(max_orbits, len(found.orbits))
        if len(found.orbits) > 6:
            shift_ok = False
        for pent in found.orbits:
            angles = [p.angle for p in pent.points]
            rank = {
                i: rk
                for rk, i in enumerate(sorted(range(5), key=lambda i: angles[i]))
            }
            if not all(rank[(i + 1) % 5] == (rank[i] + 2) % 5 for i in range(5)):
                shift_ok = False
    ok = shift_ok and max_orbits <= 6 and counted == 200
    report(
        7,
        ok,
        f"max orbit count {max_orbits} over {counted} certified samples, "
        f"sorted-shift valid",
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(88)
    checks = {}

    # derivative vs central finite difference
    h = 1e-6
    worst_fd = 0.0
    maps = [
        TangentMap(ConvexBody.point(DiskPoint(0.3, -0.2))),
        TangentMap(ConvexBody.segment(DiskPoint(-0.3, 0.4), DiskPoint(0.2, -0.5))),
        triangle_map(standard_pentagram(0.9)[0]),
        TangentMap(random_convex_polygon(rng)),
    ]
    for tmap in maps:
        bps = [u.angle for u, _ in tmap.breakpoints]
        for a in rng.uniform(0, 1, 60):
            a = float(a)
            if bps and min(angular_distance(a, b) for b in bps) < 1e-3:
                continue
            fd = (tmap.lift_iter(a + h, 1) - tmap.lift_iter(a - h, 1)) / (2.0 * h)
            dv = one_sided_slopes(tmap, a)[1]
            worst_fd = max(worst_fd, abs(fd - dv) / dv)
    checks["derivative-vs-fd"] = worst_fd <= 1e-4

    # inclusion monotonicity of lifts
    mono_ok = True
    for _ in range(6):
        poly = random_convex_polygon(rng, n=5)
        big = TangentMap(poly)
        sub = TangentMap(
            ConvexBody.polygon([poly.vertices[0], poly.vertices[2], poly.vertices[4]])
        )
        for x in np.linspace(0.0, 1.0, 48, endpoint=False):
            if big.lift_iter(float(x), 1) > sub.lift_iter(float(x), 1) + 1e-12:
                mono_ok = False
    checks["inclusion-monotone"] = mono_ok

    # perpendicular drop against the side-length formula
    worst_drop = 0.0
    for _ in range(400):
        tri = random_triangle(rng)
        p, q, r = tri.vertices
        _, da = foot_and_delta(p, q, r)
        db = delta_from_sides(
            hyp_distance(q, r), hyp_distance(r, p), hyp_distance(p, q)
        )
        worst_drop = max(worst_drop, abs(da - db))
    checks["drop-vs-sides"] = worst_drop <= 1e-10

    # isometry invariance
    worst_iso = 0.0
    for _ in range(100):
        tri = random_triangle(rng)
        p, q, r = tri.vertices
        a = DiskPoint(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)))
        b = DiskPoint(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)))
        if a.euclid_to(b) < 1e-2:
            continue
        iso, _ = normalize_pair(a, b)
        ip, iq, ir = (iso.apply_point(v) for v in (p, q, r))
        worst_iso = max(worst_iso, abs(hyp_distance(ip, iq) - hyp_distance(p, q)))
        _, d0 = foot_and_delta(p, q, r)
        _, d1 = foot_and_delta(ip, iq, ir)
        worst_iso = max(worst_iso, abs(d1 - d0))
    checks["isometry-invariance"] = worst_iso <= 1e-10

    # chain ratio and derivative product bounds on a 50-point grid
    chain_ok = True
    for t in np.linspace(0.802, 0.998, 50):
        t = float(t)
        chain = ideal_chain(t)
        p = DiskPoint(0.0, t)
        q = DiskPoint(0.0, -t)
        r = DiskPoint((t - 1.0) / (t + 1.0), 0.0)

        def dist(dp, ip):
            return math.hypot(dp.x - ip.xy[0], dp.y - ip.xy[1])

        u1, u2, u3, u4, u5, u6 = chain
        prod = orbit_derivative_product(t)
        if not (
            dist(p, u2) / dist(p, u1) < 1.0 / 3.0
            and dist(r, u3) / dist(r, u2) < 1.0 / t
            and dist(p, u4) / dist(p, u3) <= 0.7 * (1.0 - t)
            and dist(r, u5) / dist(r, u4) < 1.0 / t
            and dist(q, u6) / dist(q, u5) < (1.0 + t) / (1.0 - t)
            and prod < 1.0
            and prod <= 7.0 * (t + 1.0) / (30.0 * t * t)
        ):
            chain_ok = False
    checks["chain-ratio-bounds"] = chain_ok

    ok = all(checks.values())
    report(
        8,
        ok,
        "; ".join(f"{name}={'ok' if good else 'FAIL'}" for name, good in checks.items()),
    )


def test_criterion_9_sweep_determinism(tmp_path):
    args = [
        sys.executable, "-m", "barbilliard", "sweep",
        "--t", "0.85:0.95:20", "--r=-0.04:-0.006:20",
        "--iters", "2000", "--seed", "3",
    ]
    out1 = tmp_path / "jobs1.csv"
    out8 = tmp_path / "jobs8.csv"
    r1 = subprocess.run(args + ["--jobs", "1", "--out", str(out1)], capture_output=True,
                        env=src_env())
    r8 = subprocess.run(args + ["--jobs", "8", "--out", str(out8)], capture_output=True,
                        env=src_env())
    same = out1.read_bytes() == out8.read_bytes()
    ok = r1.returncode == 0 and r8.returncode == 0 and same
    report(9, ok, f"20x20 sweep byte-identical across --jobs 1/8: {same}")
