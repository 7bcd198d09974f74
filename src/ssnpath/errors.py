"""Exception types raised across the package."""


class SsnPathError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(SsnPathError, ValueError):
    pass


class ZeroVarianceColumn(SsnPathError, ValueError):
    def __init__(self, column):
        self.column = int(column)
        super().__init__(f"column {column} is constant after centering")


class DegenerateResponse(SsnPathError, ValueError):
    """X'y is identically zero, so every penalty level yields the null model."""


class NoiseTooLarge(SsnPathError, ValueError):
    """The noise floor swallows the whole penalty grid; no valid knot count exists."""


class CgBreakdown(SsnPathError, RuntimeError):
    """Vanishing curvature in the restricted solve (singular Gram block at alpha = 0).

    ``state`` carries the last valid primal-dual pair and ``knot`` the path
    index, when raised from inside a solve or a path run.
    """

    def __init__(self, message, state=None, knot=None):
        self.state = state
        self.knot = knot
        super().__init__(message)


class SingularSystem(SsnPathError, RuntimeError):
    """Dense Newton system could not be solved reliably."""


class ZeroResidual(SsnPathError, ValueError):
    def __init__(self, knot):
        self.knot = int(knot)
        super().__init__(f"knot {knot} interpolates exactly; log-residual criterion undefined")


class ZeroTruth(SsnPathError, ValueError):
    """Relative error is undefined for an all-zero target coefficient vector."""
