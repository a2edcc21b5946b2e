"""Exception hierarchy shared by all modules."""


class BarBilliardError(Exception):
    """Base class for every error raised by this package."""


class CoincidentPoints(BarBilliardError):
    """Two points expected to be distinct coincide (within tolerance)."""


class NonpositiveDistance(BarBilliardError):
    """A threshold was requested for a distance that is not positive."""


class InvalidBody(BarBilliardError):
    """A convex body is degenerate, non-convex or touches the boundary."""


class OutOfRange(BarBilliardError):
    """A scalar parameter lies outside its admissible interval."""


class IterationBudgetExceeded(BarBilliardError):
    """An orbit or estimate would exceed the hard iteration budget."""


class InvalidRational(BarBilliardError):
    """p/q is not a reduced rational in the supported range."""


class OutOfTheoreticalRange(BarBilliardError):
    """A computed rotation number escaped [1/3, 1/2); signals a bug."""


class DegenerateU(BarBilliardError):
    """The ellipse abscissa collapsed to zero; no off-axis apex exists."""


class PointOnLine(BarBilliardError):
    """The query point lies on the base chord, so the count is undefined."""


class PreconditionFailed(BarBilliardError):
    """A documented precondition does not hold for the given input."""
