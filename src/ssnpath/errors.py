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
    """The restricted solve found its Gram block singular (alpha = 0, duplicated active columns)."""


class ZeroResidual(SsnPathError, ValueError):
    def __init__(self, knot):
        self.knot = int(knot)
        super().__init__(f"knot {knot} interpolates exactly; log-residual criterion undefined")


class ZeroTruth(SsnPathError, ValueError):
    """Relative error is undefined for an all-zero target coefficient vector."""
