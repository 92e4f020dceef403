"""Exception types shared across the package."""


class GGMError(Exception):
    """Base class for all package-specific failures."""


class NonSummable(GGMError):
    """An increment sum cannot be certified to the requested tolerance."""


class Diverged(GGMError):
    """A fixed-point iterate left the admissible positive region."""


class MaxIterations(GGMError):
    """Iteration budget exhausted. Carries the last iterate and its residual."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class UnsupportedDegree(GGMError):
    """The requested branching degree has no closed-form reduction."""


class UnsupportedPeriod(GGMError):
    """The requested period has no closed-form reduction."""


class NonStochastic(GGMError):
    """A kernel row failed its stochasticity check."""


class OutOfWindow(GGMError):
    """An increment lies outside the certified truncation window."""


class VolumeTooLarge(GGMError):
    """An enumeration would exceed the configured state budget."""


class PinInsideInner(GGMError):
    """The pinning vertex must lie outside the conditioned sub-volume."""


class TailTooFat(GGMError):
    """Tail corrections drove a central weight non-positive.

    ``min_tail_beta`` reports the smallest admissible tail rate, to the
    float, found by ``grid_roots``.
    """

    def __init__(self, message, min_tail_beta=None):
        super().__init__(message)
        self.min_tail_beta = min_tail_beta


class PeriodMismatch(GGMError):
    """Two boundary laws with different periods cannot be compared."""
