"""Bar-billiard circle maps in the unit disk.

Convex bodies (points, segments, convex polygons) inside the unit circle
induce a tangent-line circle homeomorphism; this package evaluates the
map, estimates and certifies its rotation number, and checks the
hyperbolic distance conditions governing the 1/3 and 2/5 regimes.
"""

from .circlemap import ConvexBody, TangentMap
from .errors import (
    BarBilliardError,
    InvalidArgument,
    InvalidBody,
    OutOfRange,
    OutOfTheoreticalRange,
    PointOnLine,
    PreconditionFailed,
)
from .geometry import (
    Chord,
    DiskPoint,
    IdealPoint,
    Triangle,
    chord_through,
    delta_n,
    foot_and_delta,
    hyp_distance,
)
from .pentagram import (
    ConditionReport,
    ConjectureVerdict,
    OrbitSet,
    Pentagram,
    TauResult,
    condition_report,
    conjecture_check,
    detect_period5,
    ellipse_pentagram,
    standard_pentagram,
    tau_n,
    triangle_map,
)
from .rotation import (
    RationalCertificate,
    RationalComparison,
    RotationResult,
    certify_rational,
    classify_rho,
    estimate_rho,
)

__version__ = "0.1.0"
