"""Exception hierarchy shared by all modules."""


class AnosovLabError(Exception):
    """Base class for all package errors."""


class InvalidParams(AnosovLabError):
    """System or experiment parameters are out of range (a construction
    invariant, a [params] domain, or the work cap)."""


class NonFinite(AnosovLabError):
    """A computation produced non-finite coordinates."""


class Unsupported(AnosovLabError):
    """Operation is not available for this system (e.g. no lattice configured)."""


class DegenerateOrbit(AnosovLabError):
    """Orbit left the configured chart before the computation finished."""


class IllConditioned(AnosovLabError):
    """Splitting angle or frame conditioning fell below the safe threshold."""


class NoConvergence(AnosovLabError):
    """Iterative construction (graph transform) failed to contract."""


class NoIntersection(AnosovLabError):
    """Newton solve for a leaf intersection stalled above tolerance."""


class EmptyIntersection(AnosovLabError):
    """A leaf chart misses the metric ball used for local Hausdorff distance."""


class DegenerateFit(AnosovLabError):
    """Regression input is rank deficient or the response is identically zero."""


class NotStablyRelated(AnosovLabError):
    """Forward orbits of the two points fail to converge."""


class ChartOverflow(AnosovLabError):
    """Required Taylor order for the error target exceeds the configured cap."""


class NoRoot(AnosovLabError):
    """Monotone bisection failed to bracket a root."""


class EmptyBox(AnosovLabError):
    """Conditioning box was never visited by the sampling orbit."""


class KindMismatch(AnosovLabError):
    """Report payload does not match the requested plot kind."""


class ParseError(AnosovLabError):
    """Config text is malformed; carries line and column."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class SchemaError(AnosovLabError):
    """Config failed schema validation; carries the full problem list."""

    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = list(problems)
