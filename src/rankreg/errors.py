"""Exception types shared across the package."""

__all__ = ["RankRegressionError", "InvalidInputError", "DegenerateInputError",
           "SingularDesignError", "AssumptionViolationError", "CalibrationError",
           "BootstrapDiagnosticError"]


class RankRegressionError(Exception):
    """Base class for all rankreg errors."""


class InvalidInputError(RankRegressionError, ValueError):
    """Malformed or out-of-domain input (empty sample, non-finite value, bad alpha)."""


class DegenerateInputError(RankRegressionError, ValueError):
    """Input without usable variation, e.g. a sample in which every value is tied."""


class SingularDesignError(RankRegressionError):
    """Numerically rank-deficient regression design."""

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class AssumptionViolationError(RankRegressionError):
    """A maintained assumption of the asymptotic theory fails in-sample."""


class CalibrationError(RankRegressionError):
    """Copula parameter calibration could not reach the target."""


class BootstrapDiagnosticError(RankRegressionError):
    """Too large a share of bootstrap resamples had degenerate designs."""
