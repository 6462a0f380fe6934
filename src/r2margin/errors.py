"""Exception types shared across the package, and the checks that raise them.

Everything raised on purpose derives from ``R2MarginError`` so callers can
catch one base class.  Each class carries the CLI exit code it maps onto as
its ``exit_code`` attribute: validation-style failures exit 2, convergence
failures exit 3, and an excessive Monte Carlo skip fraction exits 4.

The ``_check_*`` helpers hold the package's input domain in one place:
integer counts (never bools), the sample sizes N >= K + 2 with K >= 1,
finite reals, numeric arrays, and levels and margins strictly inside (0, 1).
"""

from __future__ import annotations

import math

import numpy as np


class R2MarginError(Exception):
    """Base class for all errors raised by r2margin."""

    exit_code = 2


class DomainError(R2MarginError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


class DimensionMismatchError(R2MarginError, ValueError):
    """Array arguments have incompatible shapes."""


class ConvergenceError(R2MarginError, RuntimeError):
    """An iterative routine exhausted its iteration budget."""

    exit_code = 3


class RankDeficiencyError(R2MarginError, ValueError):
    """The design matrix is numerically rank deficient.

    ``column_index`` identifies the offending column of the
    intercept-augmented design matrix: a covariate's, 1..K.
    """

    def __init__(self, message: str, column_index: int | None = None):
        super().__init__(message)
        self.column_index = column_index


class NotPositiveDefiniteError(R2MarginError, ValueError):
    """A covariance matrix is not positive definite."""


class ExcessiveSkipsError(R2MarginError, RuntimeError):
    """Too large a fraction of Monte Carlo replicates was skipped because
    their covariate normals were collinear or their R2 was not finite."""

    exit_code = 4


def _check_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int; an integer (not a bool) >= ``minimum``, or DomainError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return value


def _check_sizes(n, k) -> tuple[int, int]:
    """(n, k) as ints; integers within the float range with k >= 1 and
    n >= k + 2, or DomainError."""
    n = _check_int("n", n)
    k = _check_int("k", k)
    # the inference layer computes in floats, and an int past 1.8e308 has none
    _check_finite("n", n)
    _check_finite("k", k)
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if n < k + 2:
        raise DomainError(f"n must be >= k + 2 so that n - k - 1 >= 1, got n={n}, k={k}")
    return n, k


def _check_finite(name: str, value, positive: bool = False) -> float:
    """``value`` as a finite float, > 0 if ``positive``, or DomainError."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number, got {value!r}") from None
    except OverflowError:
        # e.g. an int past 1.8e308; its repr can run to any length
        raise DomainError(f"{name} must be finite, got a number beyond the float range") from None
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    if positive and value <= 0.0:
        raise DomainError(f"{name} must be > 0, got {value!r}")
    return value


def _check_float_array(name: str, value) -> np.ndarray:
    """``value`` as a float array, or DomainError when an entry is no number."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        # ragged nesting lands here too; the value itself can be any size
        raise DomainError(f"{name} must be an array of numbers") from None


def _check_open_unit(name: str, value) -> float:
    """``value`` as a float strictly inside (0, 1), or DomainError."""
    value = _check_finite(name, value)
    if not 0.0 < value < 1.0:
        raise DomainError(f"{name} must lie strictly inside (0, 1), got {value!r}")
    return value
