"""Ordinary least squares with an always-included intercept.

Every least-squares fit reads the whole fit off the R factor of one QR
factorization of [1 X y] (Bjorck 1996, *Numerical Methods for Least Squares
Problems*): the coefficients' triangular system, the rank test on [1 X]'s
diagonal, and R2 = |w|^2 / SST from the last column, so small R2 keeps its
digits.  ``_fit_blocks`` builds that R from blocks of rows, one cache-sized
piece at a time, so ``fit_ols`` (one block) and the ``fit`` command (a CSV's
row blocks, see ``cli``) run one fold.

``_r2_from_gram`` reads R2 the same way off the Cholesky factor of
(K+1)-square centered cross-product matrices of covariates and outcome, a
stack of them at a time, where that can be trusted.  The Monte Carlo harness
builds one such matrix from each replicate's normals without forming X or y
(see ``montecarlo``), and falls back to ``fit_ols`` on the formed data where
``_r2_from_gram`` returns NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, RankDeficiencyError

__all__ = ["Dataset", "OlsFit", "fit_ols", "r_squared"]

# An R-factor diagonal entry at or below this share of its column's norm
# declares the design matrix rank deficient.
_RANK_TOL = 1e-10
# Rows of [1 X y] that ``_fit_blocks`` factors at a time: a piece fits in a
# core's cache, where one QR of a whole 52428-row block of K = 4 ran 5 to 7
# times slower than its pieces (2-CPU Xeon, numpy 2.4).
_QR_ROWS = 4096
# Largest R2 that ``r_squared`` returns: the top of ``TestInput``'s range.
_R2_MAX = 1.0 - 1e-12
# Where ``_r2_from_gram`` hands over to the QR fit: pivot spread, least
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

    ``r2`` lies in [0, 1].  ``constant_outcome`` marks the degenerate case of
    a zero-variance outcome, for which r2 is defined as 0.
    """

    intercept: float
    coefficients: np.ndarray
    r2: float
    residual_variance_hat: float
    constant_outcome: bool = False


def fit_ols(data: Dataset) -> OlsFit:
    """Fit y = b0 + X b by least squares and report the fit's R2.

    The intercept is always included.  The fit is read off the R factor of
    one QR factorization of [1 X y], with every data column first shifted by
    its mean (see ``_fit_blocks``), so the coefficients solve
    R11 b = R[:K+1, K+1], and with w = R[1:K+1, K+1] and SSE = R[K+1, K+1]^2,
    R2 = |w|^2 / (|w|^2 + SSE), with no cancelling subtraction.  Raises
    RankDeficiencyError when [1 X] is numerically collinear (an R-factor
    diagonal entry at or below 1e-10 times the norm of its column, which is
    the norm of the shifted data column, so the test does not depend on the
    columns' scales), with the offending column index attached, and
    DomainError when a sum of squares overflows.
    """
    return _fit_blocks([np.column_stack([data.y, data.x])])[0]


def _fit_blocks(blocks) -> tuple[OlsFit, int]:
    """``fit_ols`` of the rows of ``blocks``, and their count N.

    ``blocks`` yields at least one array of rows (y, x1, ..., xK), which are
    overwritten.  Each block is shifted by the first block's mean, so that no
    column's offset dwarfs its spread when the intercept's reflection mixes
    it into the others, and the shifted [1 X y] is folded into a running R
    factor in pieces of ``_QR_ROWS`` rows, R := qr([R; piece]) (the
    sequential TSQR; Demmel, Grigori, Hoemmen & Langou 2012, *SIAM J. Sci.
    Comput.* 34: A206-A239), so memory does not grow with N.  The shift is
    added back to the intercept.  Raises DomainError, with ``Dataset``'s
    message, when N < K + 2.
    """
    n, y_scale = 0, 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # overflow leaves NaNs
        for block in blocks:
            if n == 0:
                shift = block.mean(axis=0)
                r = np.empty((0, len(shift) + 1))
            y_scale = max(y_scale, float(np.abs(block[:, 0]).max()))
            block -= shift
            for piece in (block[i : i + _QR_ROWS] for i in range(0, len(block), _QR_ROWS)):
                design = np.column_stack([np.ones(len(piece)), piece[:, 1:], piece[:, 0]])
                r = np.linalg.qr(np.concatenate([r, design]), mode="r")
            n += len(block)
        k = len(shift) - 1
        if n < k + 2:
            raise DomainError(f"need n >= k + 2 observations, got n={n}, k={k}")
        diagonal = np.abs(np.diag(r)[: k + 1])
        # hypot's reduction, unlike a sum of squares, does not overflow
        small = np.flatnonzero(diagonal <= _RANK_TOL * np.hypot.reduce(r[:, : k + 1]))
        if small.size:
            column = int(small[0])
            label = "intercept" if column == 0 else f"covariate {column}"
            raise RankDeficiencyError(
                f"design matrix is rank deficient at column {column} ({label})",
                column_index=column,
            )
        coefficients = np.linalg.solve(r[: k + 1, : k + 1], r[: k + 1, k + 1])
        w = r[1 : k + 1, k + 1]
        explained, sse = float(w @ w), float(r[k + 1, k + 1] ** 2)
        intercept = float(coefficients[0] + shift[0] - shift[1:] @ coefficients[1:])
    sst = explained + sse
    if not math.isfinite(sst):
        raise DomainError("the outcome's sums of squares overflow the float range")
    # An outcome that varies only in its last bits, as one computed by rounded
    # arithmetic can, has nothing to explain: r2 := 0 and the fit is flagged.
    # SST up to about N (eps |y|)^2 is rounding, so compare against that scale.
    try:
        constant = sst <= n * (1e-14 * y_scale) ** 2
    except OverflowError:  # a scale whose square overflows exceeds any finite sst
        constant = True
    fit = OlsFit(
        intercept=intercept,
        coefficients=coefficients[1:].copy(),
        r2=0.0 if constant else explained / sst,
        residual_variance_hat=sse / (n - k - 1),
        constant_outcome=constant,
    )
    return fit, n


def _r2_from_gram(grams: np.ndarray, n: int, y_mean: np.ndarray) -> np.ndarray:
    """R2 of the intercept-included fit of each of a stack of Monte Carlo
    replicates from its centered cross-products, NaN where only ``fit_ols``
    can be trusted to give it.

    ``grams`` holds, shaped (B, K+1, K+1), [Xc yc]'[Xc yc] of each dataset:
    the cross-product matrix of its N rows of covariates and outcome after
    each column's mean is subtracted.  ``y_mean`` holds each |mean y| of the
    uncentered outcome.  Each Cholesky factor holds the factor L of Xc'Xc in
    its leading block and w = L^-1 Xc'yc in its last row, so R2 = |w|^2 /
    SST with no Q factor formed.  Up to signs, L' is the trailing block of
    the R factor that ``fit_ols`` reads, so both use one formula.  One
    Cholesky call factors the whole stack; if it fails, each matrix is
    factored alone.  NaN, which leaves the decision to the QR fit, when:

    - the Cholesky factorization fails;
    - the pivots, with sqrt(N) for the intercept, spread more than 1e6-fold,
      10^4 inside the QR rank test, so rounding cannot flip that test;
    - a covariate's squared multiple correlation with the ones before it
      reaches 1 - 1e-4, where the two routes' rounding drifts apart;
    - the outcome is nearly constant: SST at or below N (1e-4 |mean y|)^2,
      where centering loses digits in proportion to the mean, or at or
      below N 1e-26.  As max|y| <= |mean y| + sqrt(SST), this defers
      wherever ``fit_ols`` flags ``constant_outcome`` (SST at or below
      N (1e-14 max(1, max|y|))^2), for any N below 1e26;
    - R2 exceeds 1 - 1e-9;
    - any of these is NaN, as non-finite or overflowing input makes them.

    Elsewhere the value agrees with ``fit_ols(...).r2`` to about 2e-12:
    measured at most 1.8e-12 next to the collinearity limit, where the error
    is this route's, and at most 2e-15 next to the other limits and inside.
    """
    k = grams.shape[-1] - 1
    try:
        lower = np.linalg.cholesky(grams)
    except np.linalg.LinAlgError:
        if len(grams) == 1:
            return np.full(1, np.nan)
        return np.concatenate(
            [_r2_from_gram(grams[i : i + 1], n, y_mean[i : i + 1]) for i in range(len(grams))]
        )
    # Every test is written so that a NaN fails it.
    pivots = lower.diagonal(0, 1, 2)[:, :k]
    sums = grams.diagonal(0, 1, 2)
    sst = sums[:, k]
    # |w|^2 by matmul, which rounds as a dot product does; a sum of squares
    # rounds differently and would move R2 in its last bits
    explained = lower[:, k : k + 1, :k]
    intercept = math.sqrt(n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        floor = _GRAM_PIVOT_TOL * np.maximum(pivots.max(axis=1), intercept)
        r2 = (explained @ explained.transpose(0, 2, 1))[:, 0, 0] / sst
        trusted = (
            ((pivots > floor[:, None]) & (pivots * pivots > _GRAM_TOLERANCE_MIN * sums[:, :k]))
            .all(axis=1)
            & (intercept > floor)
            & (sst > n * 1e-26)
            & (sst > n * (1e-4 * y_mean) ** 2)
            & (r2 <= _GRAM_R2_MAX)
        )
    r2[~trusted] = np.nan
    return r2


def r_squared(data: Dataset) -> float:
    """R2 of the intercept-included least-squares fit of ``data``, capped at
    the top of ``TestInput``'s range, 1 - 1e-12: a perfect fit rounds to 1.0,
    which is nudged to the largest admissible value (p-value ~ 1).
    ``fit_ols(data).r2`` keeps the uncapped value.
    """
    return min(fit_ols(data).r2, _R2_MAX)
