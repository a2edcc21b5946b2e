"""Rotation number estimation and numerical certification of rationals.

The estimate is the classical lift average (F^n(x) - x)/n, whose distance
to the true rotation number is at most 1/n.  A rational p/q is certified
by a zero of g(x) = F^q(x) - x - p: a sign change yields a transverse
periodic orbit, a tangency a semi-stable one.  The zeros are the fixed
points of the Mobius pieces of F^q.  When g keeps a strict sign it proves
rho > p/q or rho < p/q instead.
"""

from __future__ import annotations

import math
from cmath import phase, rect
from typing import Callable, NamedTuple, Optional, Sequence

from .circlemap import ITERATION_BUDGET, Piece, TangentMap
from .search import brentq
from .errors import OutOfRange, OutOfTheoreticalRange, PreconditionFailed
from .geometry import SNAP, TWO_PI

#: |g(witness)| below this counts as a (semi-stable) tangency zero
TANGENCY_TOL = 1e-9

#: zeros closer than this in angle are merged before orbit grouping
MERGE_TOL = 1e-8

#: largest denominator a rational certificate may have
MAX_Q = 64


class RationalCertificate(NamedTuple):
    """Numerical witness of F^q(x) = x + p."""

    p: int
    q: int
    witness_x: float
    residual: float
    kind: str  # "sign_change" | "tangency"


class RationalComparison(NamedTuple):
    """Strict ordering of the rotation number against a queried p/q."""

    p: int
    q: int
    relation: str  # "less" | "greater"


class RotationResult(NamedTuple):
    estimate: float
    n_iters: int
    error_bound: float
    certificate: Optional[RationalCertificate] = None
    comparison: Optional[RationalComparison] = None


def estimate_rho(tmap: TangentMap, n: int = 100_000) -> RotationResult:
    """Lift-average estimate with the standard 1/n error bound.

    The n-step lift replays an exactly repeating float cycle (a locked
    orbit) with the step-by-step loop's bits; unlocked and semi-stable
    orbits are stepped and cost one map evaluation per step.
    """
    if n < 1:
        raise OutOfRange(f"estimate needs n >= 1, got {n}")
    if n > ITERATION_BUDGET:
        raise OutOfRange(f"estimate length {n} exceeds the budget")
    total = tmap.lift_iter(0.0, n) / n
    return RotationResult(estimate=total % 1.0, n_iters=n, error_bound=1.0 / n)


class Zero(NamedTuple):
    """A zero of f as located, at angle x in [-MERGE_TOL, 1 - MERGE_TOL).
    A tangency is final, with f there as its residual.  A sign change sits
    unpolished at its piece's fixed point.  ``span`` holds the zero
    unwrapped and its stretch (lo, hi), the arc between the extrema either
    side of it, in the same lifted coordinates."""

    x: float
    kind: str  # "sign_change" | "tangency"
    span: tuple[float, float, float]
    residual: Optional[float] = None

    def holds(self, angle: float) -> bool:
        """Whether the zero's stretch holds an angle, half-open and mod 1."""
        _, lo, hi = self.span
        return (angle - lo) % 1.0 < hi - lo


class ZeroScan(NamedTuple):
    """The zeros of f on the circle as located, sorted by angle, and the
    sign of f when there are none (+1 or -1; 0 when there are zeros).
    A caller reads the zeros it needs."""

    roots: tuple[Zero, ...]
    sign: int
    f: Callable[[float], float]

    def read(self, zero: Zero) -> tuple[float, float]:
        """A located zero's angle and f there.  A tangency as located.  A
        sign change is polished by brentq on the first bracket where f
        changes sign, its _CELL-turn cell inside its stretch, then the
        stretch; with neither it keeps its closed form.  The fixed cell keeps
        its bits free of the closed form's.  f is read there, then x wrapped."""
        if zero.kind == "tangency":
            return zero.x, zero.residual
        x, lo, hi = zero.span
        base = math.floor(x)
        c, lo, hi = math.floor((x - base) / _CELL) * _CELL, lo - base, hi - base
        for a, b in ((max(c, lo), min(c + _CELL, hi)), (lo, hi)):
            fa, fb = self.f(a), self.f(b)
            if fa == 0.0 or fb == 0.0 or (fa < 0.0) != (fb < 0.0):
                x = a if fa == 0.0 else b if fb == 0.0 else brentq(self.f, a, b)
                break
        return _wrap(x), float(self.f(x))


def _wrap(x: float) -> float:
    """x in [-MERGE_TOL, 1 - MERGE_TOL): a zero a last bit below 1 is the
    zero at 0."""
    x %= 1.0
    return x - 1.0 if x > 1.0 - MERGE_TOL else x


def _dedupe_cyclic(items, tol: float) -> list:
    """Sorted items, dropping each within tol of the last kept one, and the
    last kept one if it is within tol of the first across 1.  Items are
    angles in turns, or tuples that lead with one."""

    def angle(item) -> float:
        return item[0] if isinstance(item, tuple) else item

    kept: list = []
    for item in sorted(items):
        if not kept or angle(item) - angle(kept[-1]) > tol:
            kept.append(item)
    if len(kept) > 1 and angle(kept[0]) + 1.0 - angle(kept[-1]) <= tol:
        kept.pop()
    return kept


#: width in turns of the cell a zero is polished on
_CELL = 2.0 ** -12

#: an extremum of the Mobius residual this close to a level is checked
#: against the band with the scalar function; a screen, not a tolerance
_SCREEN = 1e-6

#: a piece with |a| this large cannot say: its image angle can be off by a
#: whole turn (seen from q = 21 on, at |a|^2 >= 1.8e15)
_ILL_CONDITIONED = 1e4

#: nor can a piece whose image lies this close to the anchor's turn
_WRAP = 1e-9


def _anchored(pc: Piece, x: float, anchor: float) -> Optional[float]:
    """The lift L(x) of an increasing circle map with L(x + 1) = L(x) + 1,
    from the piece that holds x: for x in [x0, x0 + 1) and anchor = L(x0),
    L(x) = anchor + ((M(x) - anchor) mod 1), M(x) the piece's image angle
    (Katok & Hasselblatt, 1995, 11.1).  None where the piece cannot say."""
    if abs(pc.a) >= _ILL_CONDITIONED:
        return None
    z = rect(1.0, TWO_PI * x)
    d = (phase((pc.a * z + pc.b) / (pc.b.conjugate() * z + pc.a.conjugate())) / TWO_PI
         - anchor) % 1.0
    return None if min(d, 1.0 - d) <= _WRAP else anchor + d


def _circle_zeros(pieces: list[Piece], levels: Sequence[int],
                  residual: Callable[[float], float], f: Callable[[float], float]) -> ZeroScan:
    """Zeros of f from the Mobius pieces of a circle map.

    f vanishes where the residual R = lifted image - id meets an integer of
    ``levels``, and has the sign of R less that level nearby.  R is
    monotone between its extrema: the corners (cuts where the pieces'
    one-sided slopes differ in sign) and the pieces' critical points, where
    R is read from the pieces, anchored by one ``residual`` at the first
    cut (``_anchored``), and from ``residual`` where a piece cannot say or
    puts R within twice the screen of an integer.  An extremum within the
    screen of a level (a double root, a close pair or a near-circle complex
    pair) is one tangency when f, read once at that corner or critical
    point, is within TANGENCY_TOL; it stays there, its stretch the arc
    between the neighbouring extrema.  Each other level crossed between
    two extrema is one sign change, located at the fixed point in that
    span and left for ``ZeroScan.read``.
    Zeros are located in [-MERGE_TOL, 1 - MERGE_TOL) and merged within
    MERGE_TOL.  Each carries its stretch; with one level no two share one.

    This is every scan's one resolution check: a critical point within
    SNAP of its piece's ends is read on the wrong arc or rounded past the
    cut, so PreconditionFailed is raised before f or the residual is read.
    """
    # extrema (x, i): the corners and critical points, pieces[i] holds x
    ext, fixed = [], []
    for i, pc in enumerate(pieces):
        if (pieces[i - 1].slope(pc.lo) - 1.0) * (pc.slope(pc.lo) - 1.0) <= 0.0:
            ext.append((pc.lo, i))
        for c in pc.critical_points():
            x = pc.lo + (c - pc.lo) % 1.0
            if min(x - pc.lo, pc.lo + 1.0 - x, abs(x - pc.hi)) <= SNAP:
                raise PreconditionFailed(
                    f"an extremum at {x % 1.0:.12g} lies within {SNAP} turns of a cut, "
                    "beyond float resolution")
            if x < pc.hi:
                ext.append((x, i))
        for c in pc.fixed_points():
            x = pc.lo - SNAP + (c - pc.lo + SNAP) % 1.0
            if x <= pc.hi + SNAP:
                fixed += [x, x + 1.0]
    x0 = pieces[0].lo
    r0 = residual(x0)

    def read(x: float, i: int) -> float:
        if x == x0:
            return r0
        lifted = _anchored(pieces[i], x, x0 + r0)
        # near a level every decision is the scalar map's
        if lifted is None or abs(lifted - x - round(lifted - x)) <= 2 * _SCREEN:
            return residual(x)
        return lifted - x

    ext = [(x, read(x, i)) for x, i in sorted(ext) or [(x0, 0)]]

    n = len(ext)
    xs = [ext[-1][0] - 1.0] + [x for x, _ in ext] + [ext[0][0] + 1.0]
    roots, touched = [], set()
    for j, (x, r) in enumerate(ext):
        if round(r) in levels and abs(r - round(r)) <= _SCREEN:
            v = f(x)
            if abs(v) <= TANGENCY_TOL:
                roots.append(Zero(_wrap(x), "tangency", (x, xs[j], xs[j + 2]), float(v)))
                touched.add(j)

    for j in range(n):
        if touched & {j, (j + 1) % n}:
            continue
        (xa, ra), (xb, rb) = ext[j], (xs[j + 2], ext[(j + 1) % n][1])
        for k in levels:
            if min(ra, rb) < k < max(ra, rb):
                # R crosses one integer at most between extrema: a fixed
                # point in the span is this crossing
                guess = [y for y in fixed if xa <= y <= xb]
                x = guess[0] if guess else 0.5 * (xa + xb)
                roots.append(Zero(_wrap(x), "sign_change", (x, xa, xb)))

    if roots:
        return ZeroScan(tuple(_dedupe_cyclic(roots, MERGE_TOL)), 0, f)
    return ZeroScan((), 1 if f(pieces[0].lo) > 0.0 else -1, f)


def scan_winding_zeros(tmap: TangentMap, p: int, q: int) -> ZeroScan:
    """Every zero of g = F^q - id - p on the circle, from the pieces of F^q,
    as located: the caller reads the zeros it needs.

    A zero is a fixed point of a piece's Mobius map whose lift winds p
    times; by Katok & Hasselblatt (1995), 11.1, g > 0 everywhere exactly
    when rho > p/q, so with no zero the sign of g is the comparison.
    Raises PreconditionFailed where F^q is beyond float resolution (see
    ``_circle_zeros``).
    """

    def residual(x: float) -> float:
        return tmap.lift_iter(x, q) - x

    return _circle_zeros(tmap.pieces(q), (p,), residual, lambda x: residual(x) - p)


def certify_rational(tmap: TangentMap, p: int, q: int) -> RotationResult:
    """Certify rho = p/q, or report which side of p/q rho falls on, with
    a 10k-step estimate alongside.  Raises PreconditionFailed where the
    scan of F^q cannot resolve, before the estimate runs."""
    certificate, comparison = _certify(tmap, p, q)
    return estimate_rho(tmap, 10_000)._replace(certificate=certificate, comparison=comparison)


def _certify(
    tmap: TangentMap, p: int, q: int
) -> tuple[Optional[RationalCertificate], Optional[RationalComparison]]:
    """The certificate of rho = p/q, or else the strict side of p/q."""
    if not (1 <= p < q <= MAX_Q) or math.gcd(p, q) != 1:
        raise OutOfRange(f"{p}/{q} is not a reduced rational with 1<=p<q<={MAX_Q}")
    scan = scan_winding_zeros(tmap, p, q)

    # sign changes first, then the lowest-angle zero of that kind as
    # located (residuals are float noise and cannot rank): only it is read
    for kind in ("sign_change", "tangency"):
        roots = [z for z in scan.roots if z.kind == kind]
        if roots:
            return RationalCertificate(p, q, *scan.read(min(roots)), kind), None
    return None, RationalComparison(p, q, "greater" if scan.sign > 0 else "less")


def classify_rho(tmap: TangentMap, n: int = 100_000) -> RotationResult:
    """Estimate rho for a triangle, place it against 2/5 and try to pin it
    to a rational.

    2/5 is scanned first: its certificate, or else the side of 2/5 its
    scan proves (the comparison), is the verdict.  Only then are the p/q
    with |q est - p| <= q/n, q <= MAX_Q, on that side scanned by
    increasing q; the first to certify is the certificate.
    A candidate whose scan is beyond float resolution is not certified,
    and the next is tried; a refused 2/5 scan raises PreconditionFailed.
    The range [1/3, 1/2) is asserted on the estimate and the certificate.
    """
    if tmap.body.kind != "polygon" or len(tmap.body.vertices) != 3:
        raise PreconditionFailed("classification applies to triangle bodies only")
    est = estimate_rho(tmap, n)
    slack = 2.0 / n + 1e-9
    if not (1.0 / 3.0 - slack <= est.estimate <= 0.5 + slack):
        raise OutOfTheoreticalRange(
            f"estimate {est.estimate} escapes [1/3, 1/2); this is a bug"
        )

    certificate, comparison = _certify(tmap, 2, 5)
    if comparison is not None:
        side = 1 if comparison.relation == "greater" else -1
        for q in range(2, MAX_Q + 1):
            p = round(q * est.estimate)
            if (1 <= p < q and math.gcd(p, q) == 1 and (5 * p - 2 * q) * side > 0
                    and abs(q * est.estimate - p) <= q / n + 1e-6):
                try:
                    certificate, _ = _certify(tmap, p, q)
                except PreconditionFailed:
                    continue
                if certificate is not None:
                    break

    if certificate is not None:
        value = certificate.p / certificate.q
        if not (1.0 / 3.0 - 1e-12 <= value <= 0.5 + 1e-12):
            raise OutOfTheoreticalRange(
                f"certified {certificate.p}/{certificate.q} escapes [1/3, 1/2)"
            )
    return est._replace(certificate=certificate, comparison=comparison)
