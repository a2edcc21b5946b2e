"""Bar-billiard circle maps in the unit disk.

Convex bodies (points, segments, convex polygons) inside the unit circle
induce a tangent-line circle homeomorphism; this package evaluates the
map, estimates and certifies its rotation number, and checks the
hyperbolic distance conditions governing the 1/3 and 2/5 regimes.
"""

from .circlemap import (
    ConvexBody,
    OneSidedDerivative,
    TangentMap,
    second_intersection,
)
from .errors import (
    BarBilliardError,
    CoincidentPoints,
    DegenerateU,
    InfeasibleSides,
    InvalidBody,
    InvalidRational,
    IterationBudgetExceeded,
    NonpositiveDistance,
    NotInArc,
    NoWitness,
    OutOfRange,
    OutOfTheoreticalRange,
    PointOnLine,
    PreconditionFailed,
)
from .geometry import (
    Chord,
    DiskPoint,
    IdealPoint,
    KleinIsometry,
    Triangle,
    chord_through,
    delta_from_sides,
    delta_n,
    equidistant_x,
    foot_and_delta,
    hyp_distance,
    normalize_pair,
)
from .pentagram import (
    ConditionReport,
    ConjectureVerdict,
    OrbitSet,
    Pentagram,
    TauResult,
    condition_report,
    conjecture_check,
    contraction_check,
    detect_period5,
    edge_incidence,
    ellipse_pentagram,
    ideal_chain,
    orbit_derivative_product,
    pentagram_witness,
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
