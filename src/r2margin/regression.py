"""Ordinary least squares with an always-included intercept.

The fit goes through a QR factorization of the intercept-augmented design
matrix rather than the normal equations, for numerical stability; rank
problems are detected from the R factor's diagonal.  R2 is computed against
the centered total sum of squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, RankDeficiencyError

__all__ = ["Dataset", "OlsFit", "fit_ols", "r_squared"]

# Relative diagonal tolerance for declaring the design matrix rank deficient.
_RANK_TOL = 1e-10
# Largest R2 that ``r_squared`` returns: the top of ``TestInput``'s range.
_R2_MAX = 1.0 - 1e-12
# Where ``_gram_r_squared`` hands over to the QR fit: pivot spread, least
# squared pivot over its column's centered sum of squares (1 minus the
# column's squared multiple correlation with the columns before it), top R2.
_GRAM_PIVOT_TOL = 1e-6
_GRAM_TOLERANCE_MIN = 1e-4
_GRAM_R2_MAX = 1.0 - 1e-9


@dataclass(frozen=True, eq=False)
class Dataset:
    """An (X, y) regression problem; the intercept column is implicit.

    ``y`` is the outcome vector of length N and ``x`` the N-by-K covariate
    matrix (K >= 1, N >= K + 2, all entries finite).
    """

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if y.ndim != 1:
            raise DimensionMismatchError(f"y must be one-dimensional, got shape {y.shape}")
        if x.ndim != 2:
            raise DimensionMismatchError(f"x must be two-dimensional, got shape {x.shape}")
        if x.shape[0] != y.shape[0]:
            raise DimensionMismatchError(
                f"y has {y.shape[0]} rows but x has {x.shape[0]}"
            )
        n, k = x.shape
        if k < 1:
            raise DomainError("at least one covariate column is required")
        if n < k + 2:
            raise DomainError(f"need n >= k + 2 observations, got n={n}, k={k}")
        if not np.isfinite(y).all() or not np.isfinite(x).all():
            raise DomainError("dataset contains non-finite entries")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @property
    def n_obs(self) -> int:
        return self.x.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True, eq=False)
class OlsFit:
    """Summary of a least-squares fit.

    ``constant_outcome`` marks the degenerate case of a zero-variance
    outcome, for which r2 is defined as 0.
    """

    intercept: float
    coefficients: np.ndarray
    r2: float
    residual_variance_hat: float
    constant_outcome: bool = False


def fit_ols(data: Dataset) -> OlsFit:
    """Fit y = b0 + X b by least squares and report the fit's R2.

    The intercept is always included.  Raises RankDeficiencyError when the
    augmented design matrix is numerically collinear (an R-factor diagonal
    entry at or below 1e-10 times the largest), with the offending column
    index attached to the exception, and DomainError when a sum of squares overflows.
    """
    n = data.n_obs
    k = data.n_covariates
    design = np.column_stack([np.ones(n), data.x])
    q, r = np.linalg.qr(design, mode="reduced")
    diagonal = np.abs(np.diag(r))
    small = np.flatnonzero(diagonal <= _RANK_TOL * diagonal.max())
    if small.size:
        column = int(small[0])
        label = "intercept" if column == 0 else f"covariate {column}"
        raise RankDeficiencyError(
            f"design matrix is rank deficient at column {column} ({label})",
            column_index=column,
        )
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients = np.linalg.solve(r, q.T @ data.y)
        residuals = data.y - design @ coefficients
        sse = float(residuals @ residuals)
        centered = data.y - data.y.mean()
        sst = float(centered @ centered)
    if not (math.isfinite(sse) and math.isfinite(sst)):
        raise DomainError("the outcome's sums of squares overflow the float range")
    residual_variance = sse / (n - k - 1)
    # A constant outcome rarely gives an exact zero here: mean subtraction
    # leaves rounding residue of order eps * |y|, so compare against that
    # scale rather than zero.
    y_scale = max(1.0, float(np.abs(data.y).max()))
    try:
        constant = sst <= n * (1e-14 * y_scale) ** 2
    except OverflowError:  # a scale whose square overflows exceeds any finite sst
        constant = True
    if constant:
        # Nothing to explain; r2 := 0 and the fit is flagged.
        return OlsFit(
            intercept=float(coefficients[0]),
            coefficients=coefficients[1:].copy(),
            r2=0.0,
            residual_variance_hat=residual_variance,
            constant_outcome=True,
        )
    return OlsFit(
        intercept=float(coefficients[0]),
        coefficients=coefficients[1:].copy(),
        r2=1.0 - sse / sst,
        residual_variance_hat=residual_variance,
    )


def _gram_r_squared(x: np.ndarray, y: np.ndarray) -> float | None:
    """R2 of the intercept-included fit from centered cross-products, or
    None where only ``fit_ols`` can be trusted to give it.

    The Cholesky factor of [Xc yc]'[Xc yc] holds the factor L of Xc'Xc in
    its leading block and w = L^-1 Xc'yc in its last row, so R2 = |w|^2 /
    SST with no Q factor formed.  ``x`` and ``y`` are shaped as in
    ``Dataset``.  None, which leaves the decision to the QR fit, when:

    - the Cholesky factorization fails;
    - the pivots, with sqrt(N) for the intercept, spread more than 1e6-fold,
      10^4 inside the QR rank test, so rounding cannot flip that test;
    - a covariate's squared multiple correlation with the ones before it
      reaches 1 - 1e-4, where the two routes' rounding drifts apart;
    - the outcome is nearly constant: SST at or below N (1e-4 max|y|)^2,
      where centering loses digits, or near ``fit_ols``'s own cut-off;
    - R2 exceeds 1 - 1e-9;
    - any of these is NaN, as non-finite or overflowing input makes them.

    Elsewhere the value agrees with ``fit_ols(...).r2`` to 1e-12 (measured
    at most 6.4e-13 next to these limits, about 1e-15 well inside them).
    """
    n, k = x.shape
    centered = np.empty((k + 1, n))
    centered[:k] = x.T
    centered[k] = y
    with np.errstate(over="ignore", invalid="ignore"):  # overflow leaves NaNs, caught below
        centered -= centered.mean(axis=1, keepdims=True)
        gram = centered @ centered.T
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    # k is small: plain floats are cheaper than numpy calls here.  Every test
    # is written so that a NaN fails it.
    pivots = lower.diagonal().tolist()[:k]
    sums = gram.diagonal().tolist()
    spread = pivots + [math.sqrt(n)]
    top = max(spread)
    if not all(p > _GRAM_PIVOT_TOL * top for p in spread):
        return None
    if not all(p * p > _GRAM_TOLERANCE_MIN * s for p, s in zip(pivots, sums)):
        return None
    sst = sums[k]
    y_max = max(float(y.max()), -float(y.min()))
    try:
        if not sst > n * max(1e-26, (1e-4 * y_max) ** 2):
            return None
    except OverflowError:  # a floor beyond the float range, which no SST clears
        return None
    explained = lower[k, :k]
    r2 = float(explained @ explained) / sst
    return r2 if r2 <= _GRAM_R2_MAX else None


def r_squared(data: Dataset) -> float:
    """R2 of the intercept-included least-squares fit of ``data``, clamped
    into ``TestInput``'s range [0, 1 - 1e-12]: a perfect fit rounds to 1.0,
    which is nudged to the largest admissible value (p-value ~ 1).
    ``fit_ols(data).r2`` keeps the unclamped value.
    """
    return min(max(fit_ols(data).r2, 0.0), _R2_MAX)
