"""Ordinary least squares with an always-included intercept.

Every least-squares fit reads the whole fit off the R factor of one QR
factorization of [1 X y] (Bjorck 1996, *Numerical Methods for Least Squares
Problems*): the coefficients' triangular system, the rank test on [1 X]'s
diagonal, and R2 = |w|^2 / SST from the last column, so small R2 keeps its
digits.  ``_fit_blocks`` builds that R from blocks of rows, one cache-sized
piece at a time.  This module cuts the blocks (``_block_rows``): ``fit_ols``
folds its table in them and the ``fit`` command a CSV's rows (see ``cli``),
so both run one fold over one cut and agree bit for bit.  The R2 is
uncapped: ``fit`` caps it at the top of ``TestInput``'s range.  The Monte
Carlo harness reads a replicate's R2 without forming X or y (see
``montecarlo``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    RankDeficiencyError,
    _check_float_array,
    _check_sizes,
)

__all__ = ["Dataset", "OlsFit", "fit_ols"]

# An R-factor diagonal entry at or below this share of its column's norm
# declares the design matrix rank deficient.
_RANK_TOL = 1e-10
# Float64s in one block of rows (2 MiB): a block holds max(1, 2^18 // width)
# rows, 52428 at the width of 5.
_BLOCK_FLOATS = 2**18
# Rows of [1 X y] that ``_fit_blocks`` factors at a time: a piece fits in a
# core's cache, where one QR of a whole 52428-row block of K = 4 ran 5 to 7
# times slower than its pieces (2-CPU Xeon, numpy 2.4).
_QR_ROWS = 4096


@dataclass(frozen=True, eq=False)
class Dataset:
    """An (X, y) regression problem; the intercept column is implicit.

    ``y`` is the outcome vector of length N and ``x`` the N-by-K covariate
    matrix (K >= 1, N >= K + 2, all entries finite numbers), checked by the
    same ``errors`` helpers as every other input.
    """

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        y = _check_float_array("y", self.y)
        x = _check_float_array("x", self.x)
        if y.ndim != 1:
            raise DimensionMismatchError(f"y must be one-dimensional, got shape {y.shape}")
        if x.ndim != 2:
            raise DimensionMismatchError(f"x must be two-dimensional, got shape {x.shape}")
        if x.shape[0] != y.shape[0]:
            raise DimensionMismatchError(
                f"y has {y.shape[0]} rows but x has {x.shape[0]}"
            )
        _check_sizes(*x.shape)
        if not np.isfinite(y).all() or not np.isfinite(x).all():
            raise DomainError("dataset contains non-finite entries")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @property
    def n_obs(self) -> int:
        return self.x.shape[0]


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
    one QR factorization of [1 X y], folded in the ``fit`` command's blocks
    of ``_block_rows`` rows with every data column first shifted by its mean
    over the first block (see ``_fit_blocks``), so the coefficients solve
    R11 b = R[:K+1, K+1], and with w = R[1:K+1, K+1] and SSE = R[K+1, K+1]^2,
    R2 = |w|^2 / (|w|^2 + SSE), with no cancelling subtraction.  Raises
    RankDeficiencyError when [1 X] is numerically collinear (an R-factor
    diagonal entry at or below 1e-10 times the norm of its column, which is
    the norm of the shifted data column, so the test does not depend on the
    columns' scales), with the offending column index attached, and
    DomainError when a sum of squares overflows.
    """
    table = np.column_stack([data.y, data.x])
    size = _block_rows(table.shape[1])
    return _fit_blocks(table[i : i + size] for i in range(0, len(table), size))[0]


def _block_rows(width: int) -> int:
    """Rows in one block of a table ``width`` columns wide."""
    return max(1, _BLOCK_FLOATS // width)


def _fit_blocks(blocks) -> tuple[OlsFit, int]:
    """``fit_ols`` of the rows of ``blocks``, and their count N.

    ``blocks`` yields at least one array of rows (y, x1, ..., xK), which are
    overwritten.  Each block is shifted by the first block's mean, so that no
    column's offset dwarfs its spread when the intercept's reflection mixes
    it into the others, and the shifted [1 X y] is folded into a running R
    factor in pieces of ``_QR_ROWS`` rows, R := qr([R; piece]) (the
    sequential TSQR; Demmel, Grigori, Hoemmen & Langou 2012, *SIAM J. Sci.
    Comput.* 34: A206-A239), so memory does not grow with N.  The shift is
    added back to the intercept.  Raises DomainError, as ``Dataset`` does,
    when N < K + 2.
    """
    n, y_scale = 0, 0.0
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
        _check_sizes(n, k)
        # columns 1..K: in the triangular R, column 0's norm is its own pivot
        diagonal = np.abs(np.diag(r)[1 : k + 1])
        # hypot's reduction, unlike a sum of squares, does not overflow
        small = np.flatnonzero(diagonal <= _RANK_TOL * np.hypot.reduce(r[:, 1 : k + 1]))
        if small.size:
            column = int(small[0]) + 1
            raise RankDeficiencyError(
                f"design matrix is rank deficient at column {column} (covariate {column})",
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

