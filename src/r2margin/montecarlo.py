"""Monte Carlo harness: rejection rates of the non-inferiority test.

A ``Scenario`` is one data-generating configuration: N covariate rows drawn
from a multivariate normal with covariance ``sigma_matrix``, coefficient
vector ``beta``, and independent N(0, sigma2) noise.  For every replicate
the harness draws a fresh dataset, computes its R2 once, and counts, at
every requested margin, whether the non-inferiority p-value falls below
alpha.  Type-1 error is the rejection rate when the margin sits at the
scenario's true variance share; power is the rate beyond it.

For fixed (N, K, delta) the test rejects exactly when R2 lies below the
closed-form critical value ``inference.critical_r2``.  It is computed once
per (N, K, delta, alpha) and kept in a bounded cache, which fills lazily and
is shared by scenarios that differ only in their noise and by repeat runs.
A replicate then takes R2 from centered cross-products and compares it with
each margin's critical value; only when the comparison could disagree with
the p-value does it take the exact path (QR fit, one p-value per margin,
skip on failure), so counts and skips equal those of evaluating every
p-value.  The exact path is taken when R2 lies within a guard band of 1e-9
around any critical value and when the cross-product R2 cannot be trusted
(see ``regression._gram_r_squared``).

Replicate ``j`` of scenario ``s`` draws from a ``RandomStream`` keyed by
(master_seed, s.id, j), so results are independent of evaluation order and
worker count; rejection counts reduce by plain integer addition, which keeps
parallel runs bit-identical to serial ones.

The environment variable ``R2MARGIN_THREADS`` sets the default worker count
(0 = one per CPU); runs are serial unless it is set or ``workers`` is passed
explicitly.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import RandomStream
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    DomainError,
    ExcessiveSkipsError,
    NotPositiveDefiniteError,
    RankDeficiencyError,
)
from .inference import TestInput, critical_r2, noninferiority_pvalue
from .regression import Dataset, _gram_r_squared, r_squared

__all__ = [
    "GRID_BETAS",
    "GRID_OFFDIAG",
    "GRID_SAMPLE_SIZES",
    "GRID_VARIANCES",
    "RejectionRecord",
    "Scenario",
    "cholesky_factor",
    "default_delta_grid",
    "exchangeable_covariance",
    "generate_dataset",
    "paper_grid",
    "run_scenario",
    "true_p2",
]

# A replicate is skipped when inference fails on it; more than this fraction
# of skips invalidates the whole run.
SKIP_FAILURE_FRACTION = 0.001

_CHOLESKY_PIVOT_TOL = 1e-12

# A replicate is decided by comparison only if its R2 lies farther than this
# from every critical value.  The band covers the critical value's error
# against the p-value's own crossing (under 1e-12) plus the distance between
# the cross-product R2 and the QR fit's (at most 6.4e-13 where
# ``_gram_r_squared`` answers).
_BAND = 1e-9

# Standard 30-cell grid.
GRID_SAMPLE_SIZES = (60, 180, 540, 1000, 8000)
GRID_VARIANCES = (0.4, 0.5, 1.0)
GRID_BETAS = {2: (0.11, -0.15), 4: (0.11, 0.10, -0.05, -0.10)}
GRID_OFFDIAG = 0.05


@dataclass(frozen=True, eq=False)
class Scenario:
    """One data-generating configuration of a simulation grid."""

    id: str
    n: int
    k: int
    beta: np.ndarray
    sigma2: float
    sigma_matrix: np.ndarray
    beta0: float = 0.0

    def __post_init__(self):
        # printable, so that it fits on one line of the results CSV and encodes
        if not isinstance(self.id, str) or not self.id or not self.id.isprintable():
            raise DomainError(f"scenario id must be a non-empty printable string, got {self.id!r}")
        for name in ("n", "k"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")
        if self.n < self.k + 2:
            raise DomainError(f"need n >= k + 2, got n={self.n}, k={self.k}")
        if self.n * (self.k + 1) * 8 > np.iinfo(np.intp).max:
            raise DomainError(
                f"scenario {self.id!r}: an n={self.n} by k+1={self.k + 1} float64 "
                "design is beyond the addressable memory"
            )
        beta = np.asarray(self.beta, dtype=float)
        if beta.shape != (self.k,):
            raise DimensionMismatchError(
                f"beta must have length k={self.k}, got shape {beta.shape}"
            )
        sigma = np.asarray(self.sigma_matrix, dtype=float)
        if sigma.shape != (self.k, self.k):
            raise DimensionMismatchError(
                f"sigma_matrix must be {self.k}x{self.k}, got shape {sigma.shape}"
            )
        if not np.isfinite(beta).all() or not np.isfinite(sigma).all():
            raise DomainError("beta and sigma_matrix must be finite")
        if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-12):
            raise DomainError("sigma_matrix must be symmetric")
        sigma2 = float(self.sigma2)
        if not math.isfinite(sigma2) or sigma2 <= 0.0:
            raise DomainError(f"sigma2 must be > 0, got {self.sigma2!r}")
        beta0 = float(self.beta0)
        if not math.isfinite(beta0):
            raise DomainError(f"beta0 must be finite, got {self.beta0!r}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma_matrix", sigma)
        object.__setattr__(self, "sigma2", sigma2)
        object.__setattr__(self, "beta0", beta0)


@dataclass(frozen=True)
class RejectionRecord:
    """Rejection-rate estimate for one (scenario, margin) pair."""

    scenario_id: str
    delta: float
    n_sims: int
    rejections: int
    rejection_rate: float
    true_p2: float
    alpha: float
    master_seed: int
    skipped: int = 0

    def __post_init__(self):
        if self.n_sims < 1:
            raise DomainError(f"n_sims must be >= 1, got {self.n_sims}")
        if not 0 <= self.rejections <= self.n_sims:
            raise DomainError(
                f"rejections must lie in [0, n_sims], got {self.rejections}/{self.n_sims}"
            )
        if self.rejection_rate != self.rejections / self.n_sims:
            raise DomainError("rejection_rate must equal rejections / n_sims exactly")


def true_p2(beta, sigma_matrix, sigma2: float) -> float:
    """Population share of outcome variance carried by the covariates.

    For y = b0 + X beta + eps with Var(X row) = Sigma and Var(eps) = sigma2,
    the explained share is beta' Sigma beta / (beta' Sigma beta + sigma2).
    """
    beta = np.asarray(beta, dtype=float)
    sigma = np.asarray(sigma_matrix, dtype=float)
    if beta.ndim != 1:
        raise DimensionMismatchError(f"beta must be one-dimensional, got shape {beta.shape}")
    if sigma.shape != (beta.size, beta.size):
        raise DimensionMismatchError(
            f"sigma_matrix must be {beta.size}x{beta.size}, got shape {sigma.shape}"
        )
    sigma2 = float(sigma2)
    if not math.isfinite(sigma2) or sigma2 <= 0.0:
        raise DomainError(f"sigma2 must be > 0, got {sigma2!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        signal = float(beta @ sigma @ beta)
    if not math.isfinite(signal):
        raise DomainError(f"beta' Sigma beta must be finite, got {signal!r}")
    if signal < 0.0:
        raise NotPositiveDefiniteError(
            f"beta' Sigma beta = {signal!r} is negative; sigma_matrix is not positive semidefinite"
        )
    return signal / (signal + sigma2)


def cholesky_factor(sigma_matrix) -> np.ndarray:
    """Lower-triangular L with L L' equal to the given covariance matrix."""
    sigma = np.asarray(sigma_matrix, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise DimensionMismatchError(f"covariance must be square, got shape {sigma.shape}")
    if not np.isfinite(sigma).all():
        raise DomainError("covariance contains non-finite entries")
    if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-12):
        raise DomainError("covariance must be symmetric")
    k = sigma.shape[0]
    lower = np.zeros_like(sigma)
    for j in range(k):
        pivot = sigma[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot <= _CHOLESKY_PIVOT_TOL:
            raise NotPositiveDefiniteError(
                f"Cholesky pivot {pivot!r} at row {j}; matrix is not positive definite"
            )
        lower[j, j] = math.sqrt(pivot)
        for i in range(j + 1, k):
            lower[i, j] = (sigma[i, j] - lower[i, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def _draw(scenario: Scenario, lower: np.ndarray, stream: RandomStream):
    """(x, y) of one dataset, given the covariance's Cholesky factor."""
    z = stream.standard_normal((scenario.n, scenario.k))
    x = z @ lower.T
    noise = stream.standard_normal(scenario.n) * math.sqrt(scenario.sigma2)
    y = scenario.beta0 + x @ scenario.beta + noise
    return x, y


def generate_dataset(scenario: Scenario, stream: RandomStream) -> Dataset:
    """Draw one dataset: MVN covariate rows, then the linear-model outcome.

    Covariate rows are L z with z standard normal and L the Cholesky factor
    of the scenario covariance; the noise is drawn independently of X.
    """
    x, y = _draw(scenario, cholesky_factor(scenario.sigma_matrix), stream)
    return Dataset(y=y, x=x)


# The closed-form critical value, cached per (n, k, delta, alpha): an R2
# farther than _BAND below it certainly rejects and one that far above it
# certainly does not.  A quantile that fails propagates.
_critical_r2 = functools.lru_cache(maxsize=4096)(critical_r2)


def _decision_cuts(scenario: Scenario, deltas, alpha: float):
    """(reject below, keep above) arrays over ``deltas``."""
    roots = np.array([_critical_r2(scenario.n, scenario.k, d, alpha) for d in deltas])
    return roots - _BAND, roots + _BAND


def _replicate_counts(scenario, deltas, start, stop, alpha, master_seed, lower, cuts):
    """Rejection counts over replicates [start, stop); one unit of work.

    ``lower`` is the covariance's Cholesky factor and ``cuts`` comes from
    ``_decision_cuts``.  A replicate whose R2 clears every margin's band is
    decided by comparison; any other takes the exact path: QR fit, one
    p-value per margin, and a skip if inference fails.
    """
    counts = np.zeros(len(deltas), dtype=np.int64)
    skipped = 0
    for j in range(start, stop):
        stream = RandomStream(master_seed, scenario.id, j)
        x, y = _draw(scenario, lower, stream)
        r2 = _gram_r_squared(x, y)
        if r2 is not None:
            rejects, keeps = r2 < cuts[0], r2 > cuts[1]
            if (rejects | keeps).all():
                counts += rejects
                continue
        data = Dataset(y=y, x=x)
        try:
            observed = TestInput(r2=r_squared(data), n=scenario.n, k=scenario.k)
            p_values = [noninferiority_pvalue(observed, d).p_value for d in deltas]
        except (ConvergenceError, RankDeficiencyError, DomainError):
            skipped += 1
            continue
        for i, p in enumerate(p_values):
            if p < alpha:
                counts[i] += 1
    return counts.tolist(), skipped


def _resolve_workers(workers) -> int:
    if workers is None:
        raw = os.environ.get("R2MARGIN_THREADS", "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise DomainError(f"R2MARGIN_THREADS must be an integer, got {raw!r}") from None
    workers = int(workers)
    if workers < 0:
        raise DomainError(f"worker count must be >= 0 (0 means one per CPU), got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def run_scenario(
    scenario: Scenario,
    deltas,
    n_sims: int,
    alpha: float,
    master_seed: int,
    *,
    workers: int | None = None,
) -> list[RejectionRecord]:
    """Estimate rejection rates for one scenario across a margin grid.

    Each replicate's dataset is generated once and tested at every margin
    in ``deltas``, so the per-margin counts share datasets.  Output is fully
    determined by (scenario, deltas, n_sims, alpha, master_seed),
    independent of worker count and evaluation order.

    The test rejects at a margin exactly when R2 < r2_crit(N, K, delta,
    alpha); each critical value is computed once in closed form and cached.
    A replicate is decided by comparing its cross-product R2 with every
    critical value, and takes the exact path (QR R2, one p-value per margin)
    when its R2 lies within 1e-9 of one or when the cross-product R2 is not
    trusted (near-collinear covariates, near-constant outcome,
    R2 > 1 - 1e-9); results equal those of evaluating every p-value.

    Replicates whose inference fails are counted as skipped; if more than
    SKIP_FAILURE_FRACTION of them skip, the run raises ExcessiveSkipsError.
    """
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise DomainError("deltas must be non-empty")
    for d in deltas:
        if not math.isfinite(d) or not 0.0 < d < 1.0:
            raise DomainError(f"every margin must lie strictly inside (0, 1), got {d!r}")
    if isinstance(n_sims, bool) or not isinstance(n_sims, (int, np.integer)) or n_sims < 1:
        raise DomainError(f"n_sims must be a positive integer, got {n_sims!r}")
    n_sims = int(n_sims)
    alpha = float(alpha)
    if not math.isfinite(alpha) or not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")
    if isinstance(master_seed, bool) or not isinstance(master_seed, (int, np.integer)):
        raise DomainError(f"master_seed must be an integer, got {master_seed!r}")
    master_seed = int(master_seed)
    workers = _resolve_workers(workers)
    lower = cholesky_factor(scenario.sigma_matrix)
    cuts = _decision_cuts(scenario, deltas, alpha)

    if workers == 1:
        counts, skipped = _replicate_counts(
            scenario, deltas, 0, n_sims, alpha, master_seed, lower, cuts
        )
    else:
        chunk = max(1, math.ceil(n_sims / (workers * 4)))
        spans = [(lo, min(lo + chunk, n_sims)) for lo in range(0, n_sims, chunk)]
        counts = [0] * len(deltas)
        skipped = 0
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    _replicate_counts, scenario, deltas, lo, hi, alpha, master_seed, lower, cuts
                )
                for lo, hi in spans
            ]
            for future in futures:
                span_counts, span_skipped = future.result()
                counts = [a + b for a, b in zip(counts, span_counts)]
                skipped += span_skipped

    if skipped > SKIP_FAILURE_FRACTION * n_sims:
        raise ExcessiveSkipsError(
            f"{skipped} of {n_sims} replicates failed inference in scenario "
            f"{scenario.id!r} (threshold {SKIP_FAILURE_FRACTION:.1%})"
        )

    population_share = true_p2(scenario.beta, scenario.sigma_matrix, scenario.sigma2)
    return [
        RejectionRecord(
            scenario_id=scenario.id,
            delta=d,
            n_sims=n_sims,
            rejections=counts[i],
            rejection_rate=counts[i] / n_sims,
            true_p2=population_share,
            alpha=alpha,
            master_seed=master_seed,
            skipped=skipped,
        )
        for i, d in enumerate(deltas)
    ]


def exchangeable_covariance(k: int, offdiag: float = GRID_OFFDIAG) -> np.ndarray:
    """Unit-diagonal covariance with one common off-diagonal value.

    Positive definite exactly when -1/(k-1) < offdiag < 1.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")
    k = int(k)
    offdiag = float(offdiag)
    if k > 1 and not -1.0 / (k - 1) < offdiag < 1.0:
        raise DomainError(
            f"offdiag must lie in (-1/(k-1), 1) for positive definiteness, got {offdiag!r}"
        )
    matrix = np.full((k, k), offdiag)
    np.fill_diagonal(matrix, 1.0)
    return matrix


def paper_grid() -> list[Scenario]:
    """The built-in 30-scenario reference grid.

    Three noise variances crossed with five sample sizes and two covariate
    counts, each covariate count carrying a fixed coefficient vector and a
    unit-diagonal covariance with 0.05 off-diagonal.
    """
    scenarios = []
    for k in sorted(GRID_BETAS):
        beta = np.array(GRID_BETAS[k])
        sigma = exchangeable_covariance(k)
        for n in GRID_SAMPLE_SIZES:
            for sigma2 in GRID_VARIANCES:
                scenarios.append(
                    Scenario(
                        id=f"k{k}_n{n:04d}_v{sigma2:.1f}",
                        n=n,
                        k=k,
                        beta=beta,
                        sigma2=sigma2,
                        sigma_matrix=sigma,
                    )
                )
    return scenarios


def default_delta_grid() -> list[float]:
    """Nineteen margins from 0.01 to 0.10 inclusive, spaced 0.005 apart."""
    return [round(0.01 + 0.005 * i, 3) for i in range(19)]
