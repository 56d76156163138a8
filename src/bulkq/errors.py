"""Exception taxonomy shared by all bulkq modules.

Validation failures derive from :class:`ValueError` so that careless call
sites fail loudly; numerical failures derive from :class:`ArithmeticError`
so callers can distinguish "you asked wrong" from "the computation gave up".
"""


class BulkqError(Exception):
    """Base class for everything raised on purpose by this package."""


# ---------------------------------------------------------------- validation


class NonPositiveRate(BulkqError, ValueError):
    """An arrival or service rate is zero, negative, or not finite."""


class ZeroBatchSize(BulkqError, ValueError):
    """The batch size m is below 1."""


class TruncationTooSmall(BulkqError, ValueError):
    """A finite section is too small for the requested index range."""


class NotOnOpenArm(BulkqError, ValueError):
    """A boundary-value abscissa lies outside the open interval (0, a)."""


class InsideSupport(BulkqError, ValueError):
    """A resolvent argument lies inside the operator's support bound."""


# ----------------------------------------------------------------- numerics


class RootSolveFailure(BulkqError, ArithmeticError):
    """Polynomial root refinement did not reach the residual target."""


class NoConjugatePair(BulkqError, ArithmeticError):
    """No complex-conjugate root pair could be identified (degenerate point)."""


class NearSingularConfiguration(BulkqError, ArithmeticError):
    """A closed-form denominator fell below the safety threshold.

    Callers are expected to fall back to the recurrence evaluation path.
    """


class ZeroFindingFailure(BulkqError, ArithmeticError):
    """Zeros of a recurrence polynomial could not be located/polished."""


class QuadratureNotConverged(BulkqError, ArithmeticError):
    """A contour integral did not stabilize, or its contour misses a singularity."""


class TailNotControlled(BulkqError, ArithmeticError):
    """A requested summation cutoff leaves a tail above tolerance."""


class IterationBudgetExceeded(BulkqError, ArithmeticError):
    """An iteration count is too small for the requested accuracy."""
