"""One-sided inference for the population share of variance explained.

The observed coefficient of determination R2 of a least-squares fit with K
random (multivariate normal) covariates and N observations estimates a
population parameter P2.  A transform of R2 is well approximated by a scaled
central F distribution whose numerator degrees of freedom ``v`` depend on the
parameter itself.  At a candidate value z of P2 both the statistic and the
degrees of freedom are closed forms,

    F(z) = (n-k-1) r2 (1 - z) / [(1 - r2) (z (n-k-1) + k)]
    v(z) = ((n-k-1) z + k)^2 / (n - 1 - (n-k-1) (1 - z)^2)

and, for r2 > 0, the lower tail p(z) = F_cdf(F(z); v(z), n-k-1) decreases
from 1 to 0 as z runs from -k/(n-k-1) to 1.  Three entry points build on it:

``noninferiority_pvalue``
    p-value for H0: P2 >= delta against H1: P2 < delta: p(delta) itself.
    Small p-values support treating the whole model's explanatory power as
    negligible (below ``delta``).

``upper_ci_p2``
    Upper limit of a one-sided confidence interval for P2: the root of
    p(z) = alpha/2, found by bisection.  The test inverts this interval, so
    the p-value at the bound recovers the bound's tail probability.

``critical_r2``
    The test's rejection region on the R2 scale.  For fixed (n, k, delta)
    neither v(delta) nor n-k-1 depends on r2, and F rises with r2, so the
    test rejects at level alpha exactly when r2 < c / (1 + c), where
    c = F_alpha (delta (n-k-1) + k) / ((n-k-1) (1 - delta)) and F_alpha is
    the alpha quantile of F(v(delta), n-k-1).

Quantile convention: by default the confidence bound solves for the tail
probability ``alpha/2``, which makes the one-sided bound coincide with the
upper limit of a two-sided ``1 - 2*alpha`` interval; this is the convention
the golden values in the test suite were generated under.  Pass
``halve_alpha=False`` for the literal one-sided reading (tail probability
``alpha``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import FParams, _bisect, f_cdf, f_quantile
from .errors import DomainError

__all__ = [
    "ConfidenceBound",
    "NonInfResult",
    "TestInput",
    "critical_r2",
    "noninferiority_pvalue",
    "upper_ci_p2",
]

# Ceiling applied to a candidate P2 before the degrees-of-freedom map is
# evaluated, and the upper end of the bound's search bracket.
_PSQ_CEILING = 1.0 - 1e-12
# Bracket width at which the bound's root search stops.
_BOUND_WIDTH = 1e-12


def _check_sizes(n, k) -> tuple[int, int]:
    """(n, k) as ints; integers with k >= 1 and n >= k + 2, or DomainError."""
    for name, value in (("n", n), ("k", k)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise DomainError(f"{name} must be an integer, got {value!r}")
    n, k = int(n), int(k)
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if n < k + 2:
        raise DomainError(f"n must be >= k + 2 so that n - k - 1 >= 1, got n={n}, k={k}")
    return n, k


def _check_open_unit(name: str, value: float) -> float:
    """``value`` as a float strictly inside (0, 1), or DomainError."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(value) or not 0.0 < value < 1.0:
        raise DomainError(f"{name} must lie strictly inside (0, 1), got {value!r}")
    return value


@dataclass(frozen=True)
class TestInput:
    """Sufficient statistics for the R2 inference routines.

    Attributes
    ----------
    r2 : float
        Observed coefficient of determination, 0 <= r2 < 1.
    n : int
        Number of observations; must satisfy n >= k + 2 so the residual
        degrees of freedom n - k - 1 are at least 1.
    k : int
        Number of covariates (intercept excluded), k >= 1.
    """

    r2: float
    n: int
    k: int

    # the Test* name makes pytest try to collect this dataclass otherwise
    __test__ = False

    def __post_init__(self):
        n, k = _check_sizes(self.n, self.k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        r2 = float(self.r2)
        if not math.isfinite(r2) or not 0.0 <= r2 < 1.0:
            raise DomainError(f"r2 must lie in [0, 1), got {self.r2!r}")
        object.__setattr__(self, "r2", r2)

    @property
    def residual_df(self) -> int:
        """Residual degrees of freedom, n - k - 1."""
        return self.n - self.k - 1


@dataclass(frozen=True)
class ConfidenceBound:
    """Upper limit of the one-sided confidence interval for P2.

    ``upper_raw`` is the root of p(z) = tail probability, which lies below 0
    when even z = 0 leaves too little tail (e.g. r2 = 0, where it is
    -k/(n-k-1)); ``upper`` is that root clamped into [0, 1) and ``clamped``
    says whether the clamp moved it.  ``v_final`` is v(upper_raw) and
    ``iterations`` counts the bisection steps, one F CDF each.
    """

    upper: float
    level: float
    alpha_param: float
    v_final: float
    iterations: int
    upper_raw: float
    clamped: bool


@dataclass(frozen=True)
class NonInfResult:
    """Outcome of the non-inferiority test of H0: P2 >= delta."""

    p_value: float
    f_stat: float
    v_final: float
    delta: float


def _v_from_psq(psq: float, n: int, k: int) -> float:
    # Degrees-of-freedom map.  psq is clamped into [0, 1) first, so the
    # denominator is at least n - 1 - (n-k-1) = k > 0 and v stays positive.
    psq = min(max(psq, 0.0), _PSQ_CEILING)
    resid_df = n - k - 1
    return (resid_df * psq + k) ** 2 / (n - 1 - resid_df * (1.0 - psq) ** 2)


def _tail_at(input: TestInput, z: float) -> tuple[float, float, float]:
    """(p, F, v) at candidate P2 value z, for -k/(n-k-1) < z < 1."""
    resid_df = input.residual_df
    f_stat = (resid_df * input.r2 * (1.0 - z)) / ((1.0 - input.r2) * (z * resid_df + input.k))
    v = _v_from_psq(z, input.n, input.k)
    return f_cdf(f_stat, FParams(v, resid_df)), f_stat, v


def upper_ci_p2(input: TestInput, alpha: float, *, halve_alpha: bool = True) -> ConfidenceBound:
    """Upper limit of the one-sided (1 - alpha) confidence interval for P2.

    The bound is the root of p(z) = alpha/2 (or alpha when
    ``halve_alpha=False``), where p(z) is the non-inferiority p-value at
    margin z.  p decreases over the bracket [-k/(n-k-1), 1 - 1e-12], so the
    root is found by bisection, one F CDF per step; p is evaluated only at
    midpoints, never at the lower end where F is infinite (at r2 = 0, p is 0
    throughout and the search closes on that end).  The search stops once
    the bracket is no wider than 1e-12 or its midpoint no longer falls
    strictly inside it.  The reported bound is clamped into [0, 1); the root
    itself is kept in ``upper_raw``.
    """
    alpha = _check_open_unit("alpha", alpha)
    prob = 0.5 * alpha if halve_alpha else alpha
    upper_raw, iterations = _bisect(
        lambda z: _tail_at(input, z)[0] > prob,
        -input.k / input.residual_df,
        _PSQ_CEILING,
        _BOUND_WIDTH,
    )
    upper = min(max(upper_raw, 0.0), _PSQ_CEILING)
    return ConfidenceBound(
        upper=upper,
        level=1.0 - alpha,
        alpha_param=alpha,
        v_final=_v_from_psq(upper_raw, input.n, input.k),
        iterations=iterations,
        upper_raw=upper_raw,
        clamped=(upper != upper_raw),
    )


def noninferiority_pvalue(input: TestInput, delta: float) -> NonInfResult:
    """p-value for testing H0: P2 >= delta against H1: P2 < delta.

    The margin fixes the F statistic

        F = (n-k-1) r2 (1 - delta) / [(1 - r2) (delta (n-k-1) + k)]

    and the degrees of freedom v(delta) in closed form; the p-value is the
    lower tail of the central F distribution with (v, n-k-1) degrees of
    freedom at that statistic.

    At r2 = 0 the statistic is identically zero, so the p-value
    short-circuits to 0 (the lower tail at zero is zero: an observed R2 of
    exactly zero is maximal evidence that the population share is below any
    positive margin).
    """
    delta = _check_open_unit("delta", delta)
    if input.r2 == 0.0:
        return NonInfResult(p_value=0.0, f_stat=0.0, v_final=float(input.k), delta=delta)

    p_value, f_stat, v = _tail_at(input, delta)
    return NonInfResult(p_value=p_value, f_stat=f_stat, v_final=v, delta=delta)


def critical_r2(n: int, k: int, delta: float, alpha: float) -> float:
    """Critical R2 of the level-``alpha`` test of H0: P2 >= delta.

    The test rejects exactly when the observed r2 lies below the returned
    value.  F(delta) rises with r2 while its degrees of freedom
    (v(delta), n-k-1) do not depend on it, so p < alpha exactly when
    F < F_alpha, the alpha quantile of F(v(delta), n-k-1); solving
    F = F_alpha for r2 gives c / (1 + c) with

        c = F_alpha (delta (n-k-1) + k) / ((n-k-1) (1 - delta)).

    F_alpha comes from ``f_quantile``, whose ConvergenceError propagates.
    """
    n, k = _check_sizes(n, k)
    delta = _check_open_unit("delta", delta)
    alpha = _check_open_unit("alpha", alpha)
    resid_df = n - k - 1
    f_alpha = f_quantile(alpha, FParams(_v_from_psq(delta, n, k), resid_df))
    c = f_alpha * (delta * resid_df + k) / (resid_df * (1.0 - delta))
    return c / (1.0 + c)
