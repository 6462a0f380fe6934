"""Monte Carlo harness: rejection rates of the non-inferiority test.

A ``Scenario`` is one data-generating configuration: N covariate rows drawn
from a multivariate normal with covariance ``sigma_matrix``, coefficient
vector ``beta``, and independent N(0, sigma2) noise.  For every replicate
the harness draws a fresh dataset, computes its R2 once, and counts, at
every requested margin, whether the level-alpha non-inferiority test
rejects.  Type-1 error is the rejection rate when the margin sits at the
scenario's true variance share; power is the rate beyond it.

For fixed (N, K, delta) the test rejects exactly when R2 lies below the
closed-form critical value ``inference.critical_r2``.  It is computed once
per (N, K, delta, alpha) and kept in a bounded cache, which fills lazily and
is shared by scenarios that differ only in their noise and by repeat runs.
Each replicate is decided by that comparison alone, and counts a rejection at
every margin whose critical value exceeds its R2.

R2 is invariant under invertible linear maps of the covariates, so a
replicate takes it from the centered (K+1)-square cross-products of its own
standard normals (covariates z, noise e), mapped to those of (x, y) by the
scenario's Cholesky factor and coefficients; no N-row x or centered copy is
formed, and of y only y - beta0, for max|y|.  Replicates are decided in
batches: each draws its normals into its own row of one buffer, and one set
of stacked numpy calls forms, maps and factors the cross-products of the
whole batch.  Only where those cross-products cannot be trusted
(``regression._r2_from_gram`` returns NaN) does a replicate form x = z L'
and y = beta0 + x beta + e (``_design``) and take R2 from the QR fit.  A replicate is skipped only when that fit fails.
Counts are those of the rejection region; they can differ from
per-replicate p-values only for an R2 within about 1e-12 of a critical
value, where either answer is a rounding artifact.

Replicate ``j`` of scenario ``s`` draws its normals from a Philox generator
keyed by a hash of (master_seed, s.id, j), ``_philox_key``, so results are
independent of evaluation order and worker count; rejection counts reduce by
plain integer addition, which keeps parallel runs bit-identical to serial
ones.  Each unit of work owns its buffers and one generator, which
``_draw_normals`` re-keys for every replicate.

The environment variable ``R2MARGIN_THREADS`` sets the default worker count
(0 = one per CPU); runs are serial unless it is set or ``workers`` is passed
explicitly.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    ExcessiveSkipsError,
    NotPositiveDefiniteError,
    RankDeficiencyError,
    _check_finite,
    _check_float_array,
    _check_int,
    _check_open_unit,
    _check_sizes,
)
from .inference import critical_r2
from .regression import Dataset, _r2_from_gram, r_squared

__all__ = [
    "GRID_BETAS",
    "GRID_OFFDIAG",
    "GRID_SAMPLE_SIZES",
    "GRID_VARIANCES",
    "RejectionRecord",
    "Scenario",
    "default_delta_grid",
    "exchangeable_covariance",
    "paper_grid",
    "run_scenario",
    "true_p2",
]

# A replicate is skipped when its fit fails; more than this fraction of
# skips invalidates the whole run.
SKIP_FAILURE_FRACTION = 0.001

_CHOLESKY_PIVOT_TOL = 1e-12

# Float64s in one batch of the replicate kernel's draw buffer (2 MiB): at the
# paper grid's N a batch holds dozens to hundreds of replicates, and from
# N (K+3) > 2^18 it holds one.
_BATCH_FLOATS = 2**18

# Standard 30-cell grid.
GRID_SAMPLE_SIZES = (60, 180, 540, 1000, 8000)
GRID_VARIANCES = (0.4, 0.5, 1.0)
GRID_BETAS = {2: (0.11, -0.15), 4: (0.11, 0.10, -0.05, -0.10)}
GRID_OFFDIAG = 0.05


@dataclass(frozen=True, eq=False)
class Scenario:
    """One data-generating configuration of a simulation grid.

    ``lower`` is the Cholesky factor of ``sigma_matrix``, computed by LAPACK
    when the scenario is built, so a covariance that is not finite,
    symmetric to 1e-12 and positive definite with every pivot L[j, j]^2
    above 1e-12 fails before any replicate is drawn.
    """

    id: str
    n: int
    k: int
    beta: np.ndarray
    sigma2: float
    sigma_matrix: np.ndarray
    beta0: float = 0.0
    lower: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # printable, so that it fits on one line of the results CSV and encodes
        if not isinstance(self.id, str) or not self.id or not self.id.isprintable():
            raise DomainError(f"scenario id must be a non-empty printable string, got {self.id!r}")
        n, k = _check_sizes(self.n, self.k)
        # the replicate kernel's buffer: covariate and noise normals, ones, y
        if n * (k + 3) * 8 > np.iinfo(np.intp).max:
            raise DomainError(
                f"scenario {self.id!r}: an n={n} by k+3={k + 3} float64 "
                "draw buffer is beyond the addressable memory"
            )
        beta = _check_float_array("beta", self.beta)
        if beta.shape != (k,):
            raise DimensionMismatchError(f"beta must have length k={k}, got shape {beta.shape}")
        sigma = _check_float_array("sigma_matrix", self.sigma_matrix)
        if sigma.shape != (k, k):
            raise DimensionMismatchError(
                f"sigma_matrix must be {k}x{k}, got shape {sigma.shape}"
            )
        if not np.isfinite(beta).all():
            raise DomainError("beta must be finite")
        if not np.isfinite(sigma).all():
            raise DomainError("sigma_matrix contains non-finite entries")
        if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-12):
            raise DomainError("sigma_matrix must be symmetric")
        try:
            lower = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError("sigma_matrix is not positive definite") from None
        small = np.flatnonzero(np.diag(lower) ** 2 <= _CHOLESKY_PIVOT_TOL)
        if small.size:
            j = small[0]
            raise NotPositiveDefiniteError(
                f"Cholesky pivot {float(lower[j, j] ** 2)!r} at row {j}; "
                "sigma_matrix is not positive definite"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma_matrix", sigma)
        object.__setattr__(self, "sigma2", _check_finite("sigma2", self.sigma2, True))
        object.__setattr__(self, "beta0", _check_finite("beta0", self.beta0))
        object.__setattr__(self, "lower", lower)


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
    beta = _check_float_array("beta", beta)
    sigma = _check_float_array("sigma_matrix", sigma_matrix)
    if beta.ndim != 1:
        raise DimensionMismatchError(f"beta must be one-dimensional, got shape {beta.shape}")
    if sigma.shape != (beta.size, beta.size):
        raise DimensionMismatchError(
            f"sigma_matrix must be {beta.size}x{beta.size}, got shape {sigma.shape}"
        )
    sigma2 = _check_finite("sigma2", sigma2, True)
    with np.errstate(over="ignore", invalid="ignore"):
        signal = float(beta @ sigma @ beta)
    if not math.isfinite(signal):
        raise DomainError(f"beta' Sigma beta must be finite, got {signal!r}")
    if signal < 0.0:
        raise NotPositiveDefiniteError(
            f"beta' Sigma beta = {signal!r} is negative; sigma_matrix is not positive semidefinite"
        )
    return signal / (signal + sigma2)


def _design(scenario: Scenario, z: np.ndarray, noise: np.ndarray):
    """(x, y) of one dataset from its (N, K) covariate normals ``z`` and its
    noise, already scaled to standard deviation sqrt(sigma2)."""
    x = z @ scenario.lower.T
    return x, scenario.beta0 + x @ scenario.beta + noise


# The closed-form critical value, cached per (n, k, delta, alpha).  A
# quantile that fails propagates.
_critical_r2 = functools.lru_cache(maxsize=4096)(critical_r2)


def _philox_key(key_parts) -> np.ndarray:
    """The 128-bit Philox key of a stream: a hash of its key parts, read as two
    little-endian 64-bit words."""
    material = "\x1f".join(repr(part) for part in key_parts)
    digest = hashlib.blake2b(material.encode("utf-8"), digest_size=16).digest()
    return np.frombuffer(digest, dtype="<u8").astype(np.uint64)


def _draw_normals(generator: np.random.Generator, out: np.ndarray, *key_parts) -> None:
    """Fill ``out`` with the first ``out.size`` normals of the stream keyed by
    ``_philox_key(key_parts)``, re-keying ``generator``, a Philox generator,
    in place.

    Streams keyed by the same parts replay the same sequence; streams keyed
    by different parts are statistically independent.  Assigning a fresh
    state re-keys the generator and restarts it from the stream's start.
    That costs about a third of building a new Philox, which first seeds
    itself from OS entropy and only then takes its key.
    """
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": _philox_key(key_parts)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    generator.standard_normal(out=out)


def _replicate_counts(scenario, start, stop, master_seed, roots):
    """Rejection counts over replicates [start, stop); one unit of work.

    ``roots`` holds each margin's critical R2.  A replicate rejects at every
    margin whose root exceeds its R2, and is skipped if its QR fit fails.

    Each replicate's normals come in one draw: z, shaped (N, K), then the N
    noise normals.  R2 is invariant under invertible linear maps of the
    covariates, so it is read from the centered cross-products of
    [z noise], mapped to those of [x y] by M:
    [x_c y_c] = [z_c noise_c] M with M = [[L', L' beta], [0, 1]], as
    x = z L' and y = beta0 + z L' beta + noise (beta0 cancels).

    Replicates are decided in batches of up to _BATCH_FLOATS / (N (K+3)).
    Each replicate of a batch is drawn into its own row of one buffer; then
    one set of stacked numpy calls forms the batch's cross-products, maps
    them by M and reads their R2 through ``_r2_from_gram``.  x and y are
    formed only for the replicates where it returns NaN, for the QR fit.
    """
    n, k = scenario.n, scenario.k
    width = n * (k + 3)
    batch = max(1, min(stop - start, _BATCH_FLOATS // width))
    # One buffer per span, never shared between threads, one row per
    # replicate of a batch: [z | noise | ones | y - beta0].  One draw fills
    # z and the noise, and [noise; ones] times z or the noise gives the
    # noise cross-products and the column sums.  One allocation rather than
    # several: glibc maps blocks beyond 32 MiB and unmaps them when freed,
    # where smaller N-length arrays would stay behind in the heap and raise
    # the peak RSS of later, larger scenarios.
    buffer = np.empty((batch, width))
    normals = buffer[:, : n * (k + 1)]
    z = buffer[:, : n * k].reshape(batch, n, k)
    noise = buffer[:, n * k : n * (k + 1)]
    noise_ones = buffer[:, n * k : n * (k + 2)].reshape(batch, 2, n)
    noise_ones[:, 1] = 1.0
    y_part = buffer[:, n * (k + 2) :]
    sigma = math.sqrt(scenario.sigma2)
    gamma = scenario.lower.T @ scenario.beta
    to_xy = np.eye(k + 1)
    to_xy[:k, :k] = scenario.lower.T
    to_xy[:k, k] = gamma
    grams = np.empty((batch, k + 1, k + 1))
    sums = np.empty((batch, k + 1))
    generator = np.random.Generator(np.random.Philox())

    counts = np.zeros(len(roots), dtype=np.int64)
    skipped = 0
    # overflow from huge coefficients leaves NaNs, which _r2_from_gram and
    # Dataset catch
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(start, stop, batch):
            size = min(batch, stop - lo)
            for row, j in enumerate(range(lo, lo + size)):
                _draw_normals(generator, normals[row], master_seed, scenario.id, j)
            zs, es, gram = z[:size], noise[:size], grams[:size]
            es *= sigma
            cross = noise_ones[:size] @ zs
            tail = noise_ones[:size] @ es[:, :, None]
            np.matmul(zs.transpose(0, 2, 1), zs, out=gram[:, :k, :k])
            gram[:, k, :k] = gram[:, :k, k] = cross[:, 0]
            gram[:, k, k] = tail[:, 0, 0]
            sums[:size, :k] = cross[:, 1]
            sums[:size, k] = tail[:, 1, 0]
            gram -= sums[:size, :, None] * (sums[:size, None, :] / n)
            # y less beta0, for max|y|
            ys = y_part[:size]
            np.matmul(zs, gamma, out=ys)
            ys += es
            top = scenario.beta0 + ys.max(axis=1)
            bottom = scenario.beta0 + ys.min(axis=1)
            r2 = _r2_from_gram(to_xy.T @ gram @ to_xy, n, np.maximum(top, -bottom))
            for row in np.flatnonzero(np.isnan(r2)):
                x, y = _design(scenario, zs[row], es[row])
                try:
                    r2[row] = r_squared(Dataset(y=y, x=x))
                except (RankDeficiencyError, DomainError):
                    skipped += 1  # its NaN R2 rejects nowhere
            counts += (r2[:, None] < roots).sum(axis=0)
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
    workers = _check_int("worker count (0 means one per CPU)", workers, 0)
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
    alpha); each critical value is computed once in closed form and cached,
    before any replicate is drawn.  A replicate's R2 comes from the centered
    cross-products of its normals, or from the QR fit where those are not
    trusted (near-collinear covariates, near-constant outcome,
    R2 > 1 - 1e-9), and
    is compared with every critical value.  Counts can differ from those of
    per-replicate p-values only for an R2 within about 1e-12 of a critical
    value.  A critical value whose quantile fails raises ConvergenceError.

    A replicate whose QR fit fails (rank-deficient design, overflowing sums
    of squares) is counted as skipped; if more than SKIP_FAILURE_FRACTION of
    them skip, the run raises ExcessiveSkipsError.
    """
    deltas = [_check_open_unit("every margin", d) for d in deltas]
    if not deltas:
        raise DomainError("deltas must be non-empty")
    n_sims = _check_int("n_sims", n_sims, 1)
    alpha = _check_open_unit("alpha", alpha)
    master_seed = _check_int("master_seed", master_seed)
    workers = _resolve_workers(workers)
    roots = np.array([_critical_r2(scenario.n, scenario.k, d, alpha) for d in deltas])

    if workers == 1:
        counts, skipped = _replicate_counts(scenario, 0, n_sims, master_seed, roots)
    else:
        chunk = max(1, math.ceil(n_sims / (workers * 4)))
        spans = [(lo, min(lo + chunk, n_sims)) for lo in range(0, n_sims, chunk)]
        counts = [0] * len(deltas)
        skipped = 0
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_replicate_counts, scenario, lo, hi, master_seed, roots)
                for lo, hi in spans
            ]
            for future in futures:
                span_counts, span_skipped = future.result()
                counts = [a + b for a, b in zip(counts, span_counts)]
                skipped += span_skipped

    if skipped > SKIP_FAILURE_FRACTION * n_sims:
        raise ExcessiveSkipsError(
            f"the QR fit failed on {skipped} of {n_sims} replicates in scenario "
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
    k = _check_int("k", k, 1)
    offdiag = _check_finite("offdiag", offdiag)
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
