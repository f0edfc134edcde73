"""Exception hierarchy shared by all ghcalc modules."""


class GhcalcError(Exception):
    """Base class for all ghcalc errors."""


class InvalidInterval(GhcalcError, ValueError):
    """Endpoints are non-finite or in the wrong order."""


class ZeroInDenominator(GhcalcError, ZeroDivisionError):
    """Interval division by an interval containing zero."""


class LengthMismatch(GhcalcError, ValueError):
    """Componentwise operation on interval vectors of different lengths."""


class DimensionMismatch(GhcalcError, ValueError):
    """Matrix/vector dimensions do not agree."""


class OutOfDomain(GhcalcError, ValueError):
    """Evaluation point lies outside the function's domain box."""


class NonDegenerateRealNode(GhcalcError, ValueError):
    """abs/pow applied to a subexpression with a true interval value."""


class PiecewiseCoverageError(GhcalcError, ValueError):
    """A queried point is covered by no piecewise guard."""


class OverlappingPieces(GhcalcError, ValueError):
    """Two piecewise guards overlap with disagreeing values."""


class ParseError(GhcalcError, ValueError):
    """Expression or problem-file syntax error with position info."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, col {col})"
        super().__init__(message)


class NonFiniteDerivative(GhcalcError, ArithmeticError):
    """No finite gH-derivative: a kink, a slope that is not finite, or an axis
    of zero width."""


class MalformedNormIvf(GhcalcError, ValueError):
    """Function is not of the required constant-times-norm shape."""


class CandidateNotSubgradient(GhcalcError, ValueError):
    """Optimality check invoked with an unverified subgradient candidate."""


class EmptySubdifferentialEncountered(GhcalcError):
    """A subdifferential scan produced no feasible candidates."""


class UnresolvedScan(GhcalcError, ArithmeticError):
    """A scan window that floats cannot resolve: its ends round onto its centre."""


class NonConvexObjective(GhcalcError, ValueError):
    """Solver refused an objective that failed the sampled convexity check."""
