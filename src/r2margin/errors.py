"""Exception types shared across the package.

Everything raised on purpose derives from ``R2MarginError`` so callers can
catch one base class.  The subclasses map onto the CLI exit codes:
validation-style failures exit 2, convergence failures exit 3, and an
excessive Monte Carlo skip fraction exits 4.
"""

from __future__ import annotations


class R2MarginError(Exception):
    """Base class for all errors raised by r2margin."""


class DomainError(R2MarginError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


class DimensionMismatchError(R2MarginError, ValueError):
    """Array arguments have incompatible shapes."""


class ConvergenceError(R2MarginError, RuntimeError):
    """An iterative routine exhausted its iteration budget."""


class RankDeficiencyError(R2MarginError, ValueError):
    """The design matrix is numerically rank deficient.

    ``column_index`` identifies the offending column of the
    intercept-augmented design matrix (0 = intercept, 1..K = covariates).
    """

    def __init__(self, message: str, column_index: int | None = None):
        super().__init__(message)
        self.column_index = column_index


class NotPositiveDefiniteError(R2MarginError, ValueError):
    """A covariance matrix is not positive definite."""


class ExcessiveSkipsError(R2MarginError, RuntimeError):
    """Too large a fraction of Monte Carlo replicates failed inference."""
