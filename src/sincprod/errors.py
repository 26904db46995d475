"""Exception hierarchy shared across the package."""


class SincprodError(Exception):
    """Base class for all errors raised by this package."""


class RationalParseError(SincprodError, ValueError):
    """Input text is not a valid integer, fraction, or finite decimal."""


class ValidationError(SincprodError, ValueError):
    """A domain object failed construction-time validation."""


class ApplicabilityError(SincprodError):
    """A closed form was requested outside its hypothesis.

    The message names the inequality that failed, with both sides exact.
    """


class CapacityError(SincprodError):
    """The input costs more than the engine's budget; the message and `cost` name the cost."""

    def __init__(self, message: str, cost: str = ""):
        super().__init__(message)
        self.cost = cost  # as the engine prices it, such as "2^21 sign patterns"


class ToleranceError(SincprodError):
    """Requested quadrature tolerance is out of range or unreachable."""


class VerificationError(SincprodError):
    """A closed form disagreed with the engine, or a result broke a proven bound."""
