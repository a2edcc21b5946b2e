"""Rotation number estimation and numerical certification of rationals.

The estimate is the classical lift average (F^n(x) - x)/n, whose distance
to the true rotation number is at most 1/n.  A rational p/q is certified
by locating a zero of g(x) = F^q(x) - x - p on [0, 1): a sign change
yields a transverse periodic orbit, a tangency a semi-stable one.  When
g keeps a strict sign the same scan proves the strict inequality
rho > p/q or rho < p/q instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .circlemap import ITERATION_BUDGET, TangentMap
from .search import brentq, golden_min
from .errors import (
    InvalidRational,
    IterationBudgetExceeded,
    OutOfTheoreticalRange,
    PreconditionFailed,
)

#: |g(witness)| below this counts as a (semi-stable) tangency zero
TANGENCY_TOL = 1e-9

#: zeros closer than this in angle are merged before orbit grouping
MERGE_TOL = 1e-8

#: largest denominator a rational certificate may have
MAX_Q = 64


@dataclass(frozen=True)
class RationalCertificate:
    """Numerical witness of F^q(x) = x + p."""

    p: int
    q: int
    witness_x: float
    residual: float
    kind: str  # "sign_change" | "tangency"


@dataclass(frozen=True)
class RationalComparison:
    """Strict ordering of the rotation number against a queried p/q."""

    p: int
    q: int
    relation: str  # "less" | "greater"


@dataclass(frozen=True)
class RotationResult:
    estimate: float
    n_iters: int
    error_bound: float
    certificate: Optional[RationalCertificate] = None
    comparison: Optional[RationalComparison] = None


def estimate_rho(tmap: TangentMap, n: int = 100_000, x0: float = 0.0) -> RotationResult:
    """Lift-average estimate with the standard 1/n error bound."""
    if n < 1:
        raise IterationBudgetExceeded(f"estimate needs n >= 1, got {n}")
    if n > ITERATION_BUDGET:
        raise IterationBudgetExceeded(f"estimate length {n} exceeds the budget")
    total = (tmap.lift_iter(x0, n) - x0) / n
    return RotationResult(estimate=total % 1.0, n_iters=n, error_bound=1.0 / n)


@dataclass(frozen=True)
class ZeroScan:
    """Zeros and extremes of g(x) = F^q(x) - x - p over one period.

    ``g_min``/``g_max`` are polished extremes, except when the scan found
    a sign change and was not asked for tangencies: then no certificate
    reads them and they are the plain grid extremes.
    """

    roots: tuple[tuple[float, float, str], ...]  # (x, residual, kind)
    g_min: tuple[float, float]
    g_max: tuple[float, float]


def _g_vector(tmap: TangentMap, p: int, q: int, xs: np.ndarray) -> np.ndarray:
    a = xs % 1.0
    total = np.zeros_like(a)
    for _ in range(q):
        g = tmap.gap_angles(a)
        total += g
        a = (a + g) % 1.0
    return total - p


def _g_scalar(tmap: TangentMap, p: int, q: int) -> Callable[[float], float]:
    def g(x: float) -> float:
        return tmap.lift_iter(x, q) - x - p

    return g


def _local_extreme_cells(ys: np.ndarray, find_min: bool, keep: int = 12) -> list[int]:
    """Grid indices that are one-sided local minima (or maxima) of ys."""
    sign = 1.0 if find_min else -1.0
    v = sign * ys
    left = np.roll(v, 1)
    right = np.roll(v, -1)
    idx = np.nonzero((v <= left) & (v <= right))[0]
    order = np.argsort(v[idx], kind="stable")
    return [int(i) for i in idx[order][:keep]]


def _sign_change_cells(ys: np.ndarray) -> np.ndarray:
    """Grid indices i with ys[i] == 0 or a sign change from ys[i] to ys[i+1]
    (cyclically), in increasing order."""
    return np.nonzero((ys == 0.0) | (ys * np.roll(ys, -1) < 0.0))[0]


def scan_winding_zeros(
    tmap: TangentMap,
    p: int,
    q: int,
    grid: int = 4096,
    tangency_tol: float = TANGENCY_TOL,
    keep_tangencies: bool = False,
) -> ZeroScan:
    """Locate every zero of F^q - id - p on [0, 1).

    Sign changes on the grid are bisected to machine precision.  When
    there are none, local extremes are polished so that tangential
    (double) zeros within the tolerance band are picked up as well.  With
    ``keep_tangencies`` the tangency scan also runs alongside transverse
    roots (they are kept only when reasonably separated from every
    crossing).
    """
    g = _g_scalar(tmap, p, q)
    xs = np.arange(grid, dtype=float) / grid
    ys = _g_vector(tmap, p, q, xs)

    roots: list[tuple[float, float, str]] = []

    for i in _sign_change_cells(ys):
        xi = xs[i]
        xj = xs[i] + 1.0 / grid
        if ys[i] == 0.0:
            roots.append((float(xi), 0.0, "sign_change"))
            continue
        # re-evaluate through the scalar path so brentq sees consistent signs
        gi, gj = g(xi), g(xj)
        if gi == 0.0:
            roots.append((float(xi % 1.0), 0.0, "sign_change"))
            continue
        if gi * gj >= 0.0:
            continue  # last-ulp disagreement; the extreme scan covers it
        x_root = brentq(g, xi, xj, xtol=1e-13, rtol=8.9e-16)
        roots.append((x_root % 1.0, g(x_root), "sign_change"))

    if roots and not keep_tangencies:
        # only the tangency and dip scans below read polished extremes
        return ZeroScan(
            roots=tuple(_merge_roots(roots)),
            g_min=_grid_extreme(xs, ys, find_min=True),
            g_max=_grid_extreme(xs, ys, find_min=False),
        )

    # polish extremes: catches tangencies and dips the grid missed
    refined_min = _refine_extremes(g, xs, ys, grid, find_min=True)
    refined_max = _refine_extremes(g, xs, ys, grid, find_min=False)
    g_min = min(refined_min, key=lambda t: t[1])
    g_max = max(refined_max, key=lambda t: t[1])

    sign_xs = [x for x, _, _ in roots]
    for x_e, y_e in refined_min + refined_max:
        if abs(y_e) > tangency_tol:
            continue
        if sign_xs and min(
            min(abs(x_e - x), 1.0 - abs(x_e - x)) for x in sign_xs
        ) <= 1e-6:
            continue
        roots.append((x_e % 1.0, y_e, "tangency"))
    if g_min[1] < 0.0 < g_max[1] and not roots:
        # a dip below zero invisible on the grid: bracket it explicitly
        x_e = g_min[0]
        for width in (0.5 / grid, 1.0 / grid, 2.0 / grid):
            lo, hi = x_e - width, x_e + width
            if g(lo) > 0.0 > g(x_e):
                roots.append((brentq(g, lo, x_e, xtol=1e-13) % 1.0, 0.0, "sign_change"))
                break
            if g(x_e) < 0.0 < g(hi):
                roots.append((brentq(g, x_e, hi, xtol=1e-13) % 1.0, 0.0, "sign_change"))
                break

    return ZeroScan(roots=tuple(_merge_roots(roots)), g_min=g_min, g_max=g_max)


def _refine_extremes(g, xs, ys, grid, find_min: bool) -> list[tuple[float, float]]:
    out = []
    sign = 1.0 if find_min else -1.0
    for i in _local_extreme_cells(ys, find_min):
        lo = xs[i] - 1.0 / grid
        hi = xs[i] + 1.0 / grid
        x_e, f_e = golden_min(lambda x: sign * g(x), lo, hi, xtol=1e-12)
        out.append((float(x_e % 1.0), float(sign * f_e)))
    if not out:
        out.append(_grid_extreme(xs, ys, find_min))
    return out


def _grid_extreme(xs, ys, find_min: bool) -> tuple[float, float]:
    i = int(np.argmin(ys) if find_min else np.argmax(ys))
    return float(xs[i]), float(ys[i])


def _merge_roots(roots):
    """Collapse root clusters closer than MERGE_TOL, keeping best residuals."""
    if not roots:
        return []
    ordered = sorted(roots, key=lambda r: r[0])
    merged = [ordered[0]]
    for r in ordered[1:]:
        if r[0] - merged[-1][0] <= MERGE_TOL:
            if abs(r[1]) < abs(merged[-1][1]):
                merged[-1] = (merged[-1][0], r[1], merged[-1][2])
        else:
            merged.append(r)
    # wraparound cluster
    if len(merged) > 1 and (merged[0][0] + 1.0 - merged[-1][0]) <= MERGE_TOL:
        keep = merged[0] if abs(merged[0][1]) <= abs(merged[-1][1]) else merged[-1]
        merged = [keep] + merged[1:-1]
    return merged


def certify_rational(
    tmap: TangentMap,
    p: int,
    q: int,
    grid: int = 4096,
    n_estimate: int = 10_000,
) -> RotationResult:
    """Certify rho = p/q, or report which side of p/q rho falls on."""
    certificate, comparison = _certify(tmap, p, q, grid)
    est = estimate_rho(tmap, n_estimate)
    return RotationResult(
        estimate=est.estimate,
        n_iters=est.n_iters,
        error_bound=est.error_bound,
        certificate=certificate,
        comparison=comparison,
    )


def _certify(
    tmap: TangentMap, p: int, q: int, grid: int
) -> tuple[Optional[RationalCertificate], Optional[RationalComparison]]:
    """The certificate of rho = p/q, or else the strict side of p/q."""
    if not (1 <= p < q <= MAX_Q) or math.gcd(p, q) != 1:
        raise InvalidRational(f"{p}/{q} is not a reduced rational with 1<=p<q<={MAX_Q}")
    scan = scan_winding_zeros(tmap, p, q, grid=grid)

    sign_roots = [r for r in scan.roots if r[2] == "sign_change"]
    tangent_roots = [r for r in scan.roots if r[2] == "tangency"]
    if sign_roots:
        best = min(sign_roots, key=lambda r: (abs(r[1]), r[0]))
        return RationalCertificate(p, q, best[0], best[1], "sign_change"), None
    if tangent_roots:
        best = min(tangent_roots, key=lambda r: r[0])
        return RationalCertificate(p, q, best[0], best[1], "tangency"), None
    if scan.g_min[1] > 0.0:
        return None, RationalComparison(p, q, "greater")
    if scan.g_max[1] < 0.0:
        return None, RationalComparison(p, q, "less")
    # extremes straddle zero but every crossing eluded refinement;
    # treat the deeper extreme as a tangency witness
    x_e, y_e = min((scan.g_min, scan.g_max), key=lambda t: abs(t[1]))
    return RationalCertificate(p, q, x_e, y_e, "tangency"), None


def _candidate_rationals(estimate: float, n: int, q_max: int) -> list[tuple[int, int]]:
    cands = []
    for q in range(2, q_max + 1):
        p = round(q * estimate)
        if not (1 <= p < q) or math.gcd(p, q) != 1:
            continue
        if abs(q * estimate - p) <= q / n + 1e-6:
            cands.append((p, q))
    return cands


def classify_rho(
    tmap: TangentMap,
    n: int = 100_000,
    q_max: int = 64,
    grid: int = 4096,
) -> RotationResult:
    """Estimate rho for a triangle and try to pin it to a rational.

    Candidate rationals consistent with the estimate are certified in
    order of increasing denominator.  The result always carries the
    relation to 2/5 unless 2/5 itself is certified, and the theoretical
    range [1/3, 1/2) is asserted.
    """
    if tmap.body.kind != "polygon" or len(tmap.body.vertices) != 3:
        raise PreconditionFailed("classification applies to triangle bodies only")
    est = estimate_rho(tmap, n)
    slack = 2.0 / n + 1e-9
    if not (1.0 / 3.0 - slack <= est.estimate <= 0.5 + slack):
        raise OutOfTheoreticalRange(
            f"estimate {est.estimate} escapes [1/3, 1/2); this is a bug"
        )

    certificate = None
    for p, q in _candidate_rationals(est.estimate, n, q_max):
        certificate, _ = _certify(tmap, p, q, grid)
        if certificate is not None:
            break

    comparison = None
    if certificate is None:
        # the certificate is set only if the shortlist missed 2/5
        certificate, comparison = _certify(tmap, 2, 5, grid)
    elif (certificate.p, certificate.q) != (2, 5):
        rel = "less" if certificate.p * 5 < certificate.q * 2 else "greater"
        comparison = RationalComparison(2, 5, rel)

    if certificate is not None:
        value = certificate.p / certificate.q
        if not (1.0 / 3.0 - 1e-12 <= value <= 0.5 + 1e-12):
            raise OutOfTheoreticalRange(
                f"certified {certificate.p}/{certificate.q} escapes [1/3, 1/2)"
            )
    return RotationResult(
        estimate=est.estimate,
        n_iters=est.n_iters,
        error_bound=est.error_bound,
        certificate=certificate,
        comparison=comparison,
    )
