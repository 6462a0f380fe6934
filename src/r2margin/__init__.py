"""Non-inferiority testing for the population R-squared with random regressors.

Library layout:

- ``distributions``: the F chain only, F distribution CDF/quantile at
  fractional degrees of freedom, ``f_cdf(x, d1, d2)`` and
  ``f_quantile(prob, d1, d2)``, its only public entries, built on a
  private continued-fraction incomplete beta; and the one search for a
  scaled F tail = prob, which the quantile (on log x) and the bound (on
  -z) share: Brent's method on the
  log-odds scale, started at the root of Paulson's closed-form
  approximation to the F CDF and at that root once the approximation is
  moved to agree with the F CDF, each a fixed point of closed forms.
- ``inference``: the non-inferiority p-value for the population variance
  share P2, a closed-form lower tail of a scaled central F approximation;
  the test's critical R2 in closed form, from one F quantile; and the
  one-sided upper confidence bound that solves p = alpha/2 for it by that
  search on -z, or in closed form at R2 = 0.
- ``regression``: intercept-included ordinary least squares and its
  uncapped R2, folded over blocks of rows that it cuts for both
  ``fit_ols`` and the ``fit`` command, so the two agree bit for bit.
- ``montecarlo``: the rejection-rate simulation harness, whose replicates
  draw from Philox streams keyed by a hash of (seed, scenario, replicate),
  and the built-in 30-scenario study grid.
- ``cli``: the ``r2margin`` command-line tool.
"""

from .distributions import f_cdf, f_quantile
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    DomainError,
    ExcessiveSkipsError,
    NotPositiveDefiniteError,
    R2MarginError,
    RankDeficiencyError,
)
from .inference import (
    ConfidenceBound,
    NonInfResult,
    TestInput,
    critical_r2,
    noninferiority_pvalue,
    upper_ci_p2,
)
from .montecarlo import (
    RejectionRecord,
    Scenario,
    default_delta_grid,
    exchangeable_covariance,
    paper_grid,
    run_scenario,
    true_p2,
)
from .regression import Dataset, OlsFit, fit_ols

__version__ = "0.1.0"

__all__ = [
    "ConfidenceBound",
    "ConvergenceError",
    "Dataset",
    "DimensionMismatchError",
    "DomainError",
    "ExcessiveSkipsError",
    "NonInfResult",
    "NotPositiveDefiniteError",
    "OlsFit",
    "R2MarginError",
    "RankDeficiencyError",
    "RejectionRecord",
    "Scenario",
    "TestInput",
    "critical_r2",
    "default_delta_grid",
    "exchangeable_covariance",
    "f_cdf",
    "f_quantile",
    "fit_ols",
    "noninferiority_pvalue",
    "paper_grid",
    "run_scenario",
    "true_p2",
    "upper_ci_p2",
]
