"""Exception types shared across the package."""

__all__ = [
    "GGMError",
    "NonSummable",
    "UnsupportedDegree",
    "UnsupportedPeriod",
    "NonStochastic",
    "TailTooFat",
]


class GGMError(Exception):
    """Base class for all package-specific failures."""


class NonSummable(GGMError):
    """An increment sum cannot be certified to the requested tolerance."""


class UnsupportedDegree(GGMError):
    """The requested branching degree has no closed-form reduction."""


class UnsupportedPeriod(GGMError):
    """The requested period has no closed-form reduction."""


class NonStochastic(GGMError):
    """A kernel row failed its stochasticity check."""


class TailTooFat(GGMError):
    """Tail corrections drove a central weight non-positive.

    ``min_tail_beta`` reports the smallest admissible tail rate, to the
    float, found by ``grid_roots``.
    """

    def __init__(self, message, min_tail_beta=None):
        super().__init__(message)
        self.min_tail_beta = min_tail_beta
