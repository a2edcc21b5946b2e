"""Exception hierarchy shared by all modules: one class per outcome the
command line reports, but for an I/O failure, which is any OSError."""


class BarBilliardError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgument(BarBilliardError):
    """A command-line flag is missing, malformed, out of range or at odds
    with another flag."""


class InvalidBody(BarBilliardError):
    """A convex body is degenerate, non-convex or touches the boundary, or
    two points that must be distinct coincide (a chord's ends, a line's
    two points)."""


class OutOfRange(BarBilliardError):
    """A parameter lies outside its admissible range: a scalar outside its
    interval, an iteration count outside [1, budget], a p/q that is not
    reduced or not in range, a nonpositive distance, or an ellipse
    parameter t so close to 1 that no off-axis apex exists."""


class OutOfTheoreticalRange(BarBilliardError):
    """A computed rotation number escaped [1/3, 1/2); signals a bug."""


class PointOnLine(BarBilliardError):
    """The query point lies on the base chord, so the count is undefined."""


class PreconditionFailed(BarBilliardError):
    """A documented precondition does not hold for the given input."""
