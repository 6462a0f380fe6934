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
    p(z) = alpha/2 on the log-odds scale, found by the root search that
    starts next to the root of Paulson's approximation, as the F quantile's
    does.  The test inverts this interval, so the p-value at the bound
    recovers the bound's tail probability.

``critical_r2``
    The test's rejection region on the R2 scale.  For fixed (n, k, delta)
    neither v(delta) nor n-k-1 depends on r2, and F rises with r2, so the
    test rejects at level alpha exactly when r2 < c / (1 + c), where
    c = F_alpha (delta (n-k-1) + k) / ((n-k-1) (1 - delta)) and F_alpha is
    the alpha quantile of F(v(delta), n-k-1).

Quantile convention: by default the confidence bound solves for the tail
probability ``alpha/2``, which makes it the upper limit of a two-sided
``1 - alpha`` interval, that is, a one-sided ``1 - alpha/2`` bound; this is
the convention the golden values in the test suite were generated under.
Pass ``halve_alpha=False`` for the literal one-sided ``1 - alpha`` bound
(tail probability ``alpha``), the upper limit of a two-sided
``1 - 2*alpha`` interval.  ``ConfidenceBound.level`` reports ``1 - alpha``
under both conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distributions import _logit, _paulson_logit, _seeded_root, f_cdf, f_quantile
from .errors import DomainError, _check_finite, _check_open_unit, _check_sizes

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
        r2 = _check_finite("r2", self.r2)
        if not 0.0 <= r2 < 1.0:
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
    when even z = 0 leaves too little tail; ``upper`` is that root clamped
    into [0, 1) and ``clamped`` says whether the clamp moved it.
    ``v_final`` is v(upper_raw) and ``iterations`` counts the F CDFs the
    search evaluated, those that bracket the root next to its approximation
    included.  At r2 = 0 the root is -k/(n-k-1) in closed form: no F CDF
    is evaluated, ``iterations`` is 0 and ``v_final`` is k.  ``level`` is
    1 - alpha whichever tail convention was used.
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
    return f_cdf(f_stat, v, resid_df), f_stat, v


def _bound_root(input: TestInput, prob: float) -> tuple[float, int]:
    """Root of p(z) = prob over [-k/(n-k-1), 1 - 1e-12] and the number of F
    CDFs spent on it, from Paulson's approximation to p at (F(z), v(z),
    n-k-1).  At r2 = 0, F and so p are 0 on the whole open bracket, and the
    root is its lower end, returned with no F CDF spent."""
    resid_df, n, k = input.residual_df, input.n, input.k
    lo, hi = -k / resid_df, _PSQ_CEILING
    if input.r2 == 0.0:
        return lo, 0
    target = _logit(prob)
    ratio = resid_df * input.r2 / (1.0 - input.r2)

    def excess(z):
        return target - _logit(_tail_at(input, z)[0])

    def approx(z):
        f_stat = ratio * (1.0 - z) / (z * resid_df + k)
        return target - _paulson_logit(f_stat, _v_from_psq(z, n, k), resid_df)

    # p is 1 at the lower end, where F is infinite, and next to 0 at the
    # upper end; neither is evaluated.
    ends = (target - _logit(1.0), target - _logit(0.0))
    return _seeded_root(excess, approx, lo, hi, _BOUND_WIDTH, *ends)


def upper_ci_p2(input: TestInput, alpha: float, *, halve_alpha: bool = True) -> ConfidenceBound:
    """Upper limit of a one-sided confidence interval for P2: a one-sided
    (1 - alpha/2) bound, or (1 - alpha) when ``halve_alpha=False``.

    The bound is the root of p(z) = alpha/2 (or alpha when
    ``halve_alpha=False``), where p(z) is the non-inferiority p-value at
    margin z.  p decreases over the bracket [-k/(n-k-1), 1 - 1e-12], and
    on the log-odds scale it is close to linear in z, where on its own
    scale it is flat in both tails.  So ``_seeded_root`` solves
    logit(prob) = logit(p(z)), one F CDF per step, evaluating p only
    strictly inside the bracket, to a bracket width of 1e-12; at r2 = 0 the
    root is the bracket's lower end and no search runs.  The reported
    bound is clamped into [0, 1); the root itself is kept in ``upper_raw``.
    """
    alpha = _check_open_unit("alpha", alpha)
    upper_raw, iterations = _bound_root(input, 0.5 * alpha if halve_alpha else alpha)
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

    At r2 = 0 the statistic is zero and so is the lower tail there: an
    observed R2 of exactly zero is maximal evidence that the population
    share is below any positive margin.  ``v_final`` is v(delta) as always.
    """
    delta = _check_open_unit("delta", delta)
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
    f_alpha = f_quantile(alpha, _v_from_psq(delta, n, k), resid_df)
    c = f_alpha * (delta * resid_df + k) / (resid_df * (1.0 - delta))
    return c / (1.0 + c)
