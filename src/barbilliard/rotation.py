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
from .geometry import wrap_turns
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
    """Zeros of a function sampled on a grid, and what decides without one.

    ``margin`` is the polished point nearest zero, ``(x, f(x))``, or None
    when nothing was polished.  ``sign`` is +1 or -1 when every grid
    sample has that sign, and 0 otherwise.
    """

    roots: tuple[tuple[float, float, str], ...]  # (x mod 1, residual, kind)
    margin: Optional[tuple[float, float]]
    sign: int


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


def _sign_change_cells(ys: np.ndarray) -> np.ndarray:
    """Grid indices i with ys[i] == 0 or a sign change from ys[i] to ys[i+1]
    (cyclically), in increasing order."""
    return np.nonzero((ys == 0.0) | (ys * np.roll(ys, -1) < 0.0))[0]


def _dedupe_cyclic(items, tol: float) -> list:
    """Sorted items, dropping each within tol of the last kept one, and the
    last kept one if it is within tol of the first across 1.  Items are
    angles in turns, or tuples that lead with one."""

    def angle(item) -> float:
        return item[0] if isinstance(item, tuple) else item

    kept: list = []
    for item in sorted(items):
        if kept and angle(item) - angle(kept[-1]) <= tol:
            continue
        kept.append(item)
    if len(kept) > 1 and angle(kept[0]) + 1.0 - angle(kept[-1]) <= tol:
        kept.pop()
    return kept


def _find_zeros(
    f: Callable[[float], float],
    xs: np.ndarray,
    ys: np.ndarray,
    cyclic: bool,
    polish_always: bool,
) -> ZeroScan:
    """Zeros of f from its samples ys on the sorted nodes xs.

    On a cyclic grid the last cell runs to the first node one turn on;
    otherwise the last node closes the span.  Each grid sign change is
    re-checked through scalar f and bracketed with brentq.  Then the 12
    smallest local minima of |ys| that touch no bracketed cell are
    polished with golden_min on s*f, s the sign of f at the node, and
    give at most one zero each: a tangency when the polished value lies
    within TANGENCY_TOL of zero, a sign change bracketed from the node
    when it crossed zero by more.  Polishing is skipped when there are
    sign changes, unless ``polish_always``.  Roots are reported mod 1
    and merged within MERGE_TOL.
    """
    n = len(xs)
    nxt, prv = np.roll(xs, -1), np.roll(xs, 1)
    cells = _sign_change_cells(ys)
    if cyclic:
        nxt[-1] += 1.0
        prv[0] -= 1.0
    else:
        cells = cells[cells < n - 1]

    def bracket(lo: float, hi: float) -> tuple[float, float, str]:
        x = brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16)
        return wrap_turns(x), float(f(x)), "sign_change"

    roots: list[tuple[float, float, str]] = []
    touched = np.zeros(n, dtype=bool)
    for i in cells:
        lo, hi = xs[i], nxt[i]
        # a node zero, else re-check through scalar f so brentq sees
        # consistent signs; a last-ulp disagreement is left to polishing
        f_lo = 0.0 if ys[i] == 0.0 else f(lo)
        if f_lo == 0.0:
            roots.append((float(wrap_turns(lo)), 0.0, "sign_change"))
        elif f_lo * f(hi) < 0.0:
            roots.append(bracket(lo, hi))
        else:
            continue
        touched[i] = touched[(i + 1) % n] = True

    margin = None
    if polish_always or not roots:
        a = np.abs(ys)
        dips = (a <= np.roll(a, 1)) & (a <= np.roll(a, -1)) & ~touched
        if not cyclic:
            dips[0] = dips[-1] = False
        idx = np.nonzero(dips)[0]
        for i in idx[np.argsort(a[idx], kind="stable")][:12]:
            s = -1.0 if f(xs[i]) < 0.0 else 1.0
            x_e, v = golden_min(lambda u: s * f(u), prv[i], nxt[i], xtol=1e-12)
            x, y = float(wrap_turns(x_e)), float(s * v)
            if margin is None or abs(y) < abs(margin[1]):
                margin = (x, y)
            if abs(y) <= TANGENCY_TOL:
                roots.append((x, y, "tangency"))
            elif v < 0.0:
                roots.append(bracket(*sorted((xs[i], x_e))))

    sign = 1 if (ys > 0.0).all() else -1 if (ys < 0.0).all() else 0
    return ZeroScan(tuple(_dedupe_cyclic(roots, MERGE_TOL)), margin, sign)


def scan_winding_zeros(
    tmap: TangentMap,
    p: int,
    q: int,
    grid: int = 4096,
    keep_tangencies: bool = False,
) -> ZeroScan:
    """Locate every zero of F^q - id - p on [0, 1).

    Sign changes on the grid are bracketed to machine precision.  Dips
    toward zero are polished when there are none, or always with
    ``keep_tangencies``, so that tangential (double) zeros within the
    tolerance band and dips the grid missed are picked up as well.
    """
    xs = np.arange(grid, dtype=float) / grid
    ys = _g_vector(tmap, p, q, xs)
    return _find_zeros(_g_scalar(tmap, p, q), xs, ys, True, keep_tangencies)


def certify_rational(tmap: TangentMap, p: int, q: int) -> RotationResult:
    """Certify rho = p/q, or report which side of p/q rho falls on, with
    a 10k-step estimate alongside."""
    certificate, comparison = _certify(tmap, p, q)
    est = estimate_rho(tmap, 10_000)
    return RotationResult(
        estimate=est.estimate,
        n_iters=est.n_iters,
        error_bound=est.error_bound,
        certificate=certificate,
        comparison=comparison,
    )


def _certify(
    tmap: TangentMap, p: int, q: int
) -> tuple[Optional[RationalCertificate], Optional[RationalComparison]]:
    """The certificate of rho = p/q, or else the strict side of p/q."""
    if not (1 <= p < q <= MAX_Q) or math.gcd(p, q) != 1:
        raise InvalidRational(f"{p}/{q} is not a reduced rational with 1<=p<q<={MAX_Q}")
    scan = scan_winding_zeros(tmap, p, q)

    # sign changes before tangencies, and the lowest-angle zero of that
    # kind: the residuals are float noise and cannot rank the zeros
    for kind in ("sign_change", "tangency"):
        roots = [r for r in scan.roots if r[2] == kind]
        if roots:
            x, residual, _ = min(roots)
            return RationalCertificate(p, q, x, residual, kind), None
    if scan.sign:
        return None, RationalComparison(p, q, "greater" if scan.sign > 0 else "less")
    return None, None  # a mixed-sign grid with no zero found decides nothing


def _candidate_rationals(estimate: float, n: int, q_max: int) -> list[tuple[int, int]]:
    cands = []
    for q in range(2, q_max + 1):
        p = round(q * estimate)
        if not (1 <= p < q) or math.gcd(p, q) != 1:
            continue
        if abs(q * estimate - p) <= q / n + 1e-6:
            cands.append((p, q))
    return cands


def classify_rho(tmap: TangentMap, n: int = 100_000, q_max: int = 64) -> RotationResult:
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
        certificate, _ = _certify(tmap, p, q)
        if certificate is not None:
            break

    comparison = None
    if certificate is None:
        # the certificate is set only if the shortlist missed 2/5
        certificate, comparison = _certify(tmap, 2, 5)
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
