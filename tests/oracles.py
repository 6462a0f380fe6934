"""Independent reference computations used to freeze and check expected values.

Each oracle deliberately avoids the code path it validates: the F CDF oracle
integrates the density numerically instead of going through the incomplete
beta; the least-squares oracle solves the normal equations with a hand-rolled
Gauss-Jordan inversion instead of a QR factorization, and the exact one solves
them in rational arithmetic on the doubles given; the p-value oracle runs the
original fixed-point construction with an external CDF instead of the closed
form; the confidence-bound oracle root-solves the defining tail equation with
an external CDF over its own bracket, and the full-bracket oracle runs the
bound's own root search without its approximate starting point, as the
full-bracket quantile oracle does for the F quantile; the critical-R2 oracle
takes its F quantile from scipy; the Monte Carlo oracle evaluates every
replicate's p-values instead of comparing R2 with cached critical values; and
the dataset oracle draws each replicate from its own freshly built generator
and forms x and y, where the replicate kernel re-keys one generator and reads
R2 from cross-products.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import integrate, stats

from r2margin import distributions, inference
from r2margin.distributions import _logit, _root, f_cdf
from r2margin.errors import ConvergenceError, DomainError, RankDeficiencyError
from r2margin.inference import TestInput, noninferiority_pvalue
from r2margin.montecarlo import Scenario, _design, _philox_key
from r2margin.regression import Dataset, r_squared


def f_density(x: float, d1: float, d2: float) -> float:
    """Central F density, written out explicitly."""
    if x <= 0.0:
        return 0.0
    a, b = 0.5 * d1, 0.5 * d2
    ln_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    return math.exp(
        ln_norm
        + a * math.log(d1 / d2)
        + (a - 1.0) * math.log(x)
        - (a + b) * math.log1p(d1 * x / d2)
    )


def f_cdf_quadrature(x: float, d1: float, d2: float) -> float:
    """Adaptive quadrature of the F density over (0, x].

    The mode is passed as a breakpoint when it falls inside the interval so
    the integrator resolves sharply peaked densities at large degrees of
    freedom.
    """
    if x <= 0.0:
        return 0.0
    breakpoints = []
    if d1 > 2.0:
        mode = (d1 - 2.0) / d1 * d2 / (d2 + 2.0)
        if 0.0 < mode < x:
            breakpoints.append(mode)
    value, _ = integrate.quad(
        f_density,
        0.0,
        x,
        args=(d1, d2),
        epsabs=1e-11,
        epsrel=1e-11,
        limit=500,
        points=breakpoints or None,
    )
    return value


def gauss_jordan_inverse(matrix) -> list[list[float]]:
    """Textbook Gauss-Jordan inversion with partial pivoting."""
    size = len(matrix)
    work = [
        [float(v) for v in row] + [1.0 if i == j else 0.0 for j in range(size)]
        for i, row in enumerate(matrix)
    ]
    for col in range(size):
        pivot_row = max(range(col, size), key=lambda r: abs(work[r][col]))
        if abs(work[pivot_row][col]) < 1e-12:
            raise ZeroDivisionError("matrix is singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [v / pivot for v in work[col]]
        for row in range(size):
            if row != col and work[row][col] != 0.0:
                factor = work[row][col]
                work[row] = [v - factor * w for v, w in zip(work[row], work[col])]
    return [row[size:] for row in work]


def ols_normal_equations(y, x) -> tuple[np.ndarray, float]:
    """Least squares by explicit inversion of the normal equations.

    Returns (coefficients including the leading intercept, r2).
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    design = np.column_stack([np.ones(len(y)), x])
    gram = design.T @ design
    inverse = np.array(gauss_jordan_inverse(gram.tolist()))
    coefficients = inverse @ (design.T @ y)
    fitted = design @ coefficients
    sse = float(((y - fitted) ** 2).sum())
    sst = float(((y - y.mean()) ** 2).sum())
    return coefficients, 1.0 - sse / sst


def r2_exact(y, x) -> Fraction:
    """R2 of the intercept-included least-squares fit of the doubles given,
    with no rounding.

    Each double is read as the rational it is.  The centered cross-products
    are formed as sum(a b) - sum(a) sum(b) / N, and the centered normal
    equations Sxx b = Sxy are solved by Gaussian elimination, all in
    ``Fraction``: R2 = Sxy'b / Syy, with no numpy linear algebra.
    """
    rows = [
        [Fraction(v) for v in row] + [Fraction(t)]
        for row, t in zip(np.asarray(x, dtype=float).tolist(), np.asarray(y, dtype=float).tolist())
    ]
    n, width = len(rows), len(rows[0])
    sums = [sum(row[a] for row in rows) for a in range(width)]
    cross = [
        [sum(row[a] * row[b] for row in rows) - sums[a] * sums[b] / n for b in range(width)]
        for a in range(width)
    ]
    k = width - 1
    system = [cross[a][:k] + [cross[a][k]] for a in range(k)]
    for col in range(k):
        pivot = next(r for r in range(col, k) if system[r][col] != 0)
        system[col], system[pivot] = system[pivot], system[col]
        for r in range(k):
            if r != col and system[r][col] != 0:
                factor = system[r][col] / system[col][col]
                system[r] = [v - factor * w for v, w in zip(system[r], system[col])]
    explained = sum(system[a][k] / system[a][a] * cross[a][k] for a in range(k))
    return explained / cross[k][k]


def small_r2_dataset(r2, seed, n=400, k=2):
    """(y, x) whose least-squares R2 is about ``r2``: x standard normal and
    y = 50 + e + s x1, with e standard normal noise residualized against
    [1 X] and s chosen for the R2 asked."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k))
    design = np.column_stack([np.ones(n), x])
    noise = rng.normal(size=n)
    noise -= design @ np.linalg.lstsq(design, noise, rcond=None)[0]
    centered = x[:, 0] - x[:, 0].mean()
    s = math.sqrt(r2 / (1.0 - r2) * (noise @ noise) / (centered @ centered))
    return 50.0 + noise + s * x[:, 0], x


def ci_upper_bisection(r2: float, n: int, k: int, alpha: float) -> float:
    """Upper confidence bound as the root of its defining tail equation.

    Finds the margin whose F statistic sits exactly at the alpha/2 lower
    tail of the approximating F distribution, by bisection over
    (r2, 1) using an external F CDF.
    """
    resid = n - k - 1

    def tail_gap(margin: float) -> float:
        f_stat = (resid * r2 * (margin - 1.0)) / ((r2 - 1.0) * (margin * resid + k))
        v = (resid * margin + k) ** 2 / (n - 1 - resid * (1.0 - margin) ** 2)
        return float(stats.f.cdf(f_stat, v, resid)) - 0.5 * alpha

    lo, hi = r2 + 1e-12, 1.0 - 1e-12
    if tail_gap(lo) <= 0.0:
        raise ValueError("bound is at or below the observed r2; bisection inapplicable")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if tail_gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def upper_raw_full_bracket(input: TestInput, prob: float) -> float:
    """Raw confidence bound by Brent's search over the whole bracket.

    Solves logit(prob) = logit(p(z)) over [-k/(n-k-1), 1 - 1e-12] with the
    package's own p(z) and root search, starting from stand-ins at both
    ends, as the bound did before its search started from an approximate
    root.  p(z) is looked up on the ``inference`` module at each call, so a
    test that wraps it sees this search's evaluations too.
    """
    target = _logit(prob)
    root, _ = _root(
        lambda z: target - _logit(inference._tail_at(input, z)[0]),
        -input.k / input.residual_df,
        inference._PSQ_CEILING,
        inference._BOUND_WIDTH,
        target - _logit(1.0),
        target - _logit(0.0),
    )
    return root


def quantile_full_bracket(prob: float, d1: float, d2: float) -> float:
    """F quantile by Brent's search over the whole bracket.

    Solves logit(f_cdf(e^u)) = logit(prob) over [log 1e-300, log 1e300]
    with the package's own F CDF and root search, from the CDF's values at
    both ends, as ``f_quantile`` did before its search started from an
    approximate root.
    """
    target = _logit(prob)
    lo, hi = distributions._QUANTILE_LO, distributions._QUANTILE_HI
    log_x, _ = _root(
        lambda u: _logit(f_cdf(math.exp(u), d1, d2)) - target,
        math.log(lo),
        math.log(hi),
        math.ulp(1.0),
        _logit(f_cdf(lo, d1, d2)) - target,
        _logit(f_cdf(hi, d1, d2)) - target,
    )
    return math.exp(log_x)


# (guess, slope) pairs to hand a seeded root search in place of its
# approximation's root and slope: no number, points outside the bracket or
# on its ends, and the root itself with slopes of every sign and size.
GUESS_CASES = [(end, math.nan) for end in ("nan", "below", "above", "lower-end", "upper-end")] + [
    ("root", slope) for slope in (math.nan, -1.0, 0.0, 1e-300, 1.0, 1e300)
]


def guessing(guess: str, slope: float, root: float):
    """A stand-in for ``distributions._guess`` that returns the point named
    by ``guess`` (``root`` for "root") and ``slope``."""

    def fake(approx, lo, hi, excess_lo, excess_hi):
        points = {"nan": math.nan, "below": lo - 1.0, "above": hi + 1.0,
                  "lower-end": lo, "upper-end": hi, "root": root}
        return points[guess], slope

    return fake


def critical_r2_scipy(n: int, k: int, delta: float, alpha: float) -> float:
    """Critical R2 of the level-alpha test at margin delta, on scipy's quantile.

    Solves F(delta) = F_alpha(v(delta), n-k-1) for r2: c / (1 + c) with
    c = F_alpha (delta (n-k-1) + k) / ((n-k-1) (1 - delta)).
    """
    resid = n - k - 1
    psq = min(delta, 1.0 - 1e-12)
    v = (resid * psq + k) ** 2 / (n - 1 - resid * (1.0 - psq) ** 2)
    c = float(stats.f.ppf(alpha, v, resid)) * (delta * resid + k) / (resid * (1.0 - delta))
    return c / (1.0 + c)


def pvalue_fixed_point(r2: float, n: int, k: int, delta: float) -> tuple[float, float]:
    """Non-inferiority p-value by fixed-point iteration at the margin's F.

    Iterates the variance-fraction update
    psq -> [(n-k-1) r2 - (1-r2) k F] / [(n-k-1)(r2 + (1-r2) F)] from psq = r2,
    recomputing the degrees of freedom from each iterate (clamped into
    [0, 1 - 1e-12]), until successive iterates agree to 1e-12; the p-value
    is the lower tail of an external F CDF at F with the last degrees of
    freedom.  The update ignores its iterate, so this stops on the second
    pass.  Returns (p-value, fixed point).
    """
    resid = n - k - 1
    f_stat = (resid * r2 * (delta - 1.0)) / ((r2 - 1.0) * (delta * resid + k))
    psq, before = r2, math.inf
    while abs(psq - before) > 1e-12:
        before = psq
        clamped = min(max(psq, 0.0), 1.0 - 1e-12)
        v = (resid * clamped + k) ** 2 / (n - 1 - resid * (1.0 - clamped) ** 2)
        psq = (resid * r2 - (1.0 - r2) * k * f_stat) / (resid * (r2 + (1.0 - r2) * f_stat))
    return float(stats.f.cdf(f_stat, v, resid)), psq


class RandomStream:
    """Single-owner stream of standard normal variates.

    A stream is identified by an arbitrary tuple of key parts (integers,
    strings, ...).  The parts are hashed into a 128-bit Philox key by the
    package's own ``_philox_key``, so streams built from the same parts
    replay the same sequence while streams with different parts are
    statistically independent.  Each stream builds its own generator.
    """

    def __init__(self, *key_parts: object):
        if not key_parts:
            raise DomainError("RandomStream requires at least one key part")
        self.key_parts = key_parts
        self._generator = np.random.Generator(np.random.Philox(key=_philox_key(key_parts)))

    def standard_normal(self, size=None):
        """Draw N(0, 1) variates; a plain float when ``size`` is None."""
        draw = self._generator.standard_normal(size)
        return float(draw) if size is None else draw

    def __repr__(self) -> str:
        return f"RandomStream{self.key_parts!r}"


def generate_dataset(scenario: Scenario, stream: RandomStream) -> Dataset:
    """Draw one dataset: MVN covariate rows, then the linear-model outcome.

    Covariate rows are L z with z standard normal and L the Cholesky factor
    of the scenario covariance; the noise is drawn independently of X.
    """
    z = stream.standard_normal((scenario.n, scenario.k))
    noise = stream.standard_normal(scenario.n) * math.sqrt(scenario.sigma2)
    x, y = _design(scenario, z, noise)
    return Dataset(y=y, x=x)


def replicate_counts_exact(scenario, deltas, n_sims, alpha, master_seed, start=0):
    """Rejection counts and skips of ``run_scenario`` by brute force, over
    replicates [start, n_sims).

    Every replicate draws its dataset, fits it by QR and evaluates the
    p-value at every margin; a replicate whose inference fails is skipped.
    Returns (counts per margin, skipped).
    """
    counts = [0] * len(deltas)
    skipped = 0
    for j in range(start, n_sims):
        stream = RandomStream(master_seed, scenario.id, j)
        data = generate_dataset(scenario, stream)
        try:
            observed = TestInput(r2=r_squared(data), n=scenario.n, k=scenario.k)
            p_values = [noninferiority_pvalue(observed, d).p_value for d in deltas]
        except (ConvergenceError, RankDeficiencyError, DomainError):
            skipped += 1
            continue
        for i, p in enumerate(p_values):
            if p < alpha:
                counts[i] += 1
    return counts, skipped
