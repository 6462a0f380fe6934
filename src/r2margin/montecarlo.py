"""Monte Carlo harness: rejection rates of the non-inferiority test.

A ``Scenario`` is one data-generating configuration: N rows of y = x beta +
sigma e, with covariate rows x multivariate normal with covariance
``sigma_matrix`` and e standard normal, independent of x.  For every replicate
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

A replicate's R2 is read in the coordinates of its own standard normals
(covariates z, noise e): with x = z L' and y = sigma (z g + e), where
g = L' beta / sigma, R2 of y on x is R2 of z g + e on z, so it depends on the
scenario only through g, which the scenario fixes when it is built, and the
conditioning of the covariance and sigma2 never enter a floating-point sum.
``_cholesky`` factors the centered (K+1)-square cross-products of [z e] and
``_r2_from_factor`` reads R2 off the factor; no N-row x, y or centered copy
is formed.  Replicates are decided in batches, the one unit of work: each
replicate draws its normals into its own row of a draw buffer, and one set of
stacked numpy calls forms and factors the cross-products of the whole batch.
A replicate is skipped where its covariate normals are collinear or its R2
is not finite.  Counts are those of the rejection region; they can
differ from per-replicate p-values only for an R2 within about 1e-12 of a
critical value, where either answer
is a rounding artifact.

Replicate ``j`` of scenario ``s`` draws its normals from a Philox generator
keyed by a hash of (master_seed, s.id, j), ``_philox_key``, so results are
independent of evaluation order and worker count; rejection counts reduce by
plain integer addition, which keeps parallel runs bit-identical to serial
ones.  Each of a run's W workers makes one draw buffer and decides batches
w, w + W, w + 2W, ... in it; one beyond ``_BATCH_FLOATS`` doubles is mapped
outside malloc's heap (``_draw_buffer``).  Each batch owns one generator,
which ``_draw_normals`` re-keys for every replicate.

``R2MARGIN_THREADS`` sets the worker count, capped at the batch count and at
one per CPU the process may run on (0 = one per such CPU); unset, it is 1.
One worker runs in the calling thread, more in a pool of threads.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import mmap
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    ExcessiveSkipsError,
    NotPositiveDefiniteError,
    R2MarginError,
    _check_finite,
    _check_float_array,
    _check_int,
    _check_open_unit,
    _check_sizes,
)
from .inference import critical_r2

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

# A replicate is skipped when its covariate normals are collinear or its R2
# is not finite; more than this fraction of skips invalidates the whole run.
SKIP_FAILURE_FRACTION = 0.001

# The share of a covariance's diagonal scale that an asymmetry may reach and
# a squared Cholesky pivot must exceed: c S with beta / sqrt(c) is the same
# model as S with beta, so both are refused or neither.
_COVARIANCE_TOL = 1e-12
# A replicate's covariate normals are collinear when a squared covariate
# pivot of its cross-products' Cholesky factor is at or below this share of
# the column's centered sum of squares: exactly collinear normals measure
# 1.3e-16 to 3.4e-16, and real draws at N = K + 2 fall below it with a
# probability of about 1e-10 (estimated from the Beta law of the ratio).
_COLLINEAR_TOL = 1e-10

# Float64s in one batch of the replicate kernel's draw buffer (2 MiB): at the
# paper grid's N a batch holds 6 to 1456 replicates, and from
# N (K+1) > 2^18 it holds one, in a buffer that ``_draw_buffer`` maps.
_BATCH_FLOATS = 2**18

# Standard 30-cell grid.
GRID_SAMPLE_SIZES = (60, 180, 540, 1000, 8000)
GRID_VARIANCES = (0.4, 0.5, 1.0)
GRID_BETAS = {2: (0.11, -0.15), 4: (0.11, 0.10, -0.05, -0.10)}
GRID_OFFDIAG = 0.05


def _replicate_floats(n: int, k: int) -> int:
    """Float64s in one replicate's row of the kernel's draw buffer: its
    (N, K) covariate normals, then its N noise normals."""
    return n * (k + 1)


@dataclass(frozen=True, eq=False)
class Scenario:
    """One data-generating configuration: N rows of y = x beta + sigma e,
    x ~ N(0, ``sigma_matrix``), e ~ N(0, 1) and sigma2 = sigma^2.

    Building it fixes the two values a run reads, ``g`` = L' beta / sigma
    (L LAPACK's Cholesky factor of ``sigma_matrix``) and ``p2`` =
    ``true_p2(beta, sigma_matrix, sigma2)``.  ``beta``, ``sigma_matrix`` and
    ``g`` are read-only copies, so that neither a later write to the arrays
    it was built from nor one to its own can leave g and p2 describing
    another model.  A covariance S that is not finite, symmetric with every
    |S[i, j] - S[j, i]| at most 1e-12 sqrt(|S[i, i] S[j, j]|) and positive
    definite with every pivot L[j, j]^2 above 1e-12 S[j, j], or an
    overflowing P2, fails before any replicate is drawn.  The checks are
    relative to S's diagonal, so they do not depend on the covariates'
    units.  Every failed check but that of the id itself names the id.
    """

    id: str
    n: int
    k: int
    beta: np.ndarray
    sigma2: float
    sigma_matrix: np.ndarray
    g: np.ndarray = field(init=False, repr=False)
    p2: float = field(init=False, repr=False)

    def __post_init__(self):
        # printable, so that it fits on one line of the results CSV and encodes
        if not isinstance(self.id, str) or not self.id or not self.id.isprintable():
            raise DomainError(f"scenario id must be a non-empty printable string, got {self.id!r}")
        try:
            n, k = _check_sizes(self.n, self.k)
            if _replicate_floats(n, k) * 8 > np.iinfo(np.intp).max:
                raise DomainError(
                    f"an n={n} by k+1={k + 1} float64 draw buffer is beyond the addressable memory"
                )
            beta = _check_float_array("beta", self.beta)
            if beta.shape != (k,):
                raise DimensionMismatchError(f"beta must have length k={k}, got shape {beta.shape}")
            sigma = _check_float_array("sigma_matrix", self.sigma_matrix)
            if sigma.shape != (k, k):
                raise DimensionMismatchError(f"sigma_matrix must be {k}x{k}, got shape {sigma.shape}")
            if not np.isfinite(beta).all():
                raise DomainError("beta must be finite")
            if not np.isfinite(sigma).all():
                raise DomainError("sigma_matrix contains non-finite entries")
            scale = np.sqrt(np.abs(np.diag(sigma)))
            if (np.abs(sigma - sigma.T) > _COVARIANCE_TOL * np.outer(scale, scale)).any():
                raise DomainError("sigma_matrix must be symmetric")
            try:
                lower = np.linalg.cholesky(sigma)
            except np.linalg.LinAlgError:
                raise NotPositiveDefiniteError("sigma_matrix is not positive definite") from None
            small = np.flatnonzero(np.diag(lower) ** 2 <= _COVARIANCE_TOL * np.diag(sigma))
            if small.size:
                j = small[0]
                raise NotPositiveDefiniteError(
                    f"Cholesky pivot {float(lower[j, j] ** 2)!r} at row {j}; "
                    "sigma_matrix is not positive definite"
                )
            sigma2 = _check_finite("sigma2", self.sigma2, True)
            # huge coefficients overflow g, which leaves every R2 NaN: a skip
            with np.errstate(over="ignore", invalid="ignore"):
                g = lower.T @ beta / math.sqrt(sigma2)
            p2 = true_p2(beta, sigma, sigma2)
        except R2MarginError as exc:
            raise type(exc)(f"scenario {self.id!r}: {exc}") from None
        beta, sigma = beta.copy(), sigma.copy()
        for array in (beta, sigma, g):
            array.flags.writeable = False
        fixed = dict(n=n, k=k, beta=beta, sigma_matrix=sigma, sigma2=sigma2, g=g, p2=p2)
        for name, value in fixed.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class RejectionRecord:
    """Rejection-rate estimate for one (scenario, margin) pair: the rate is
    derived from the counts, ``rejections / n_sims``."""

    scenario_id: str
    delta: float
    n_sims: int
    rejections: int
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

    @property
    def rejection_rate(self) -> float:
        return self.rejections / self.n_sims


def true_p2(beta, sigma_matrix, sigma2: float) -> float:
    """Population share of outcome variance carried by the covariates.

    For y = x beta + eps with Var(x) = Sigma and Var(eps) = sigma2,
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


# The closed-form critical value, cached per (n, k, delta, alpha).  A
# quantile that fails propagates.
_critical_r2 = functools.lru_cache(maxsize=4096)(critical_r2)


def _philox_key(key_parts) -> np.ndarray:
    """The 128-bit Philox key of a stream: a hash of its key parts, read as two
    little-endian 64-bit words."""
    material = "\x1f".join(repr(part) for part in key_parts)
    digest = hashlib.blake2b(material.encode("utf-8"), digest_size=16).digest()
    return np.frombuffer(digest, dtype="<u8").astype(np.uint64)


def _draw_buffer(rows: int, floats: int) -> np.ndarray:
    """An uninitialised (rows, floats) float64 draw buffer.

    Up to ``_BATCH_FLOATS`` doubles it comes from numpy's allocator.  Beyond
    that (a one-replicate batch) it is an anonymous mapping of its own,
    unmapped when the array is freed: from malloc, freeing it would raise
    glibc's mmap threshold to its size, and later buffers of up to that size
    would stay in the heap under the next, larger one.  The mapping is
    advised to use huge pages where the platform offers them, as numpy
    advises its own large arrays.  A mapping that fails raises MemoryError,
    as a failed numpy allocation does.
    """
    if rows * floats <= _BATCH_FLOATS:
        return np.empty((rows, floats))
    size = rows * floats * 8
    # private where the platform has the flag (Windows has none): mmap's
    # default, MAP_SHARED, is shared memory, which by default gets no
    # transparent huge pages
    private = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    try:
        mapping = mmap.mmap(-1, size, **private)
    except OSError as exc:
        raise MemoryError(f"cannot map a {size}-byte draw buffer: {exc}") from None
    if hasattr(mmap, "MADV_HUGEPAGE"):
        # only advice: a kernel without transparent huge pages refuses it
        with contextlib.suppress(OSError):
            mapping.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(mapping).reshape(rows, floats)


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


def _cholesky(grams: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a (B, M, M) stack, NaN where a matrix has
    none: one call for the stack, or if LAPACK refuses it, one per matrix,
    which gives each the same factor."""
    try:
        return np.linalg.cholesky(grams)
    except np.linalg.LinAlgError:
        lower = np.full_like(grams, np.nan)
        for i, gram in enumerate(grams):
            with contextlib.suppress(np.linalg.LinAlgError):
                lower[i] = np.linalg.cholesky(gram)
        return lower


def _r2_from_factor(lower: np.ndarray, g: np.ndarray) -> np.ndarray:
    """R2 of each of a stack of replicates from the lower Cholesky factor,
    shaped (B, K+1, K+1), of the centered cross-products of its [z e]; NaN
    where the replicate is skipped.

    The factor holds L_z, that of z_c'z_c, in its leading block,
    w = L_z^-1 z_c'e_c in its last row and the pivot s last, so with
    v = L_z' g + w (``g`` = L' beta / sigma), SSR / sigma2 = |v|^2 and
    SSE / sigma2 = s^2, and R2 = |v|^2 / (|v|^2 + s^2), with no cancelling
    subtraction.  NaN where the factor is NaN, where a squared covariate
    pivot is at or below ``_COLLINEAR_TOL`` times its row's squared norm in
    the factor, which is its column's centered sum of squares (collinear
    covariate normals), or where R2 is not finite (|v|^2 overflows).  Only
    the covariate pivots are tested: at N = K + 2 a small noise pivot is a
    legitimate R2 near 1.
    """
    k = lower.shape[-1] - 1
    covariates = lower[:, :k, :k]
    pivots = covariates.diagonal(0, 1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        v = g @ covariates + lower[:, k, :k]
        explained = (v * v).sum(axis=1)
        r2 = explained / (explained + lower[:, k, k] ** 2)
        # written so that a NaN pivot fails it
        independent = (pivots * pivots > _COLLINEAR_TOL * np.square(covariates).sum(axis=2)).all(axis=1)
    r2[~(independent & np.isfinite(r2))] = np.nan
    return r2


def _replicate_counts(scenario, start, stop, master_seed, roots, buffer):
    """Rejection counts and skips of replicates [start, stop), decided as one
    batch in the first stop - start rows of the draw ``buffer``;
    ``run_scenario`` sizes the batches and owns the buffers.

    ``roots`` holds each margin's critical R2.  A replicate rejects at every
    margin whose root exceeds its R2, and is skipped where
    ``_r2_from_factor`` gives NaN.

    Each replicate's normals come in one draw that overwrites its own row of
    ``buffer``: z, shaped (N, K), then the N noise normals e.  One set of
    stacked numpy calls forms the batch's centered cross-products of [z e]
    from z'z, e'z, e'e and the column sums, factors them by ``_cholesky``
    and reads their R2 through ``_r2_from_factor``.
    """
    n, k = scenario.n, scenario.k
    size = stop - start
    # One row per replicate: [z | noise], filled by one draw.  The ones that
    # sum the columns are a separate N-vector on purpose: folded into the
    # buffer, they would make it as large as a buffer of K+2 columns.
    buffer = buffer[:size]
    generator = np.random.Generator(np.random.Philox())
    for row, j in enumerate(range(start, stop)):
        _draw_normals(generator, buffer[row], master_seed, scenario.id, j)
    zs = buffer[:, : n * k].reshape(size, n, k)
    es = buffer[:, n * k :]
    ones = np.ones(n)
    gram = np.empty((size, k + 1, k + 1))
    sums = np.empty((size, k + 1))
    np.matmul(zs.transpose(0, 2, 1), zs, out=gram[:, :k, :k])
    np.matmul(es[:, None, :], zs, out=gram[:, k:, :k])
    gram[:, :k, k] = gram[:, k, :k]
    np.matmul(es[:, None, :], es[:, :, None], out=gram[:, k:, k:])
    np.matmul(ones, zs, out=sums[:, :k])
    np.matmul(es, ones, out=sums[:, k])
    gram -= sums[:, :, None] * (sums[:, None, :] / n)
    r2 = _r2_from_factor(_cholesky(gram), scenario.g)
    skipped = int(np.isnan(r2).sum())  # a NaN R2 rejects nowhere
    return (r2[:, None] < roots).sum(axis=0).tolist(), skipped


def _resolve_workers() -> int:
    """The worker count that ``R2MARGIN_THREADS`` sets: 1 when unset, one per
    CPU the process may run on at 0, and never more than one per such CPU."""
    raw = os.environ.get("R2MARGIN_THREADS", "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise DomainError(f"R2MARGIN_THREADS must be an integer, got {raw!r}") from None
    workers = _check_int("R2MARGIN_THREADS (0 means one per CPU)", workers, 0)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(workers, cpus) if workers else cpus


def run_scenario(
    scenario: Scenario,
    deltas,
    n_sims: int,
    alpha: float,
    master_seed: int,
) -> list[RejectionRecord]:
    """Estimate rejection rates for one scenario across a margin grid.

    Each replicate's dataset is generated once and tested at every margin
    in ``deltas``, so the per-margin counts share datasets.  Output is fully
    determined by (scenario, deltas, n_sims, alpha, master_seed),
    independent of worker count and evaluation order.

    The test rejects at a margin exactly when R2 < r2_crit(N, K, delta,
    alpha), each critical value computed in closed form, and cached, before
    any replicate is drawn; one whose quantile fails raises ConvergenceError.
    The scenario's ``p2`` is every record's ``true_p2``.

    Replicates [0, n_sims) are cut into batches of as many as fit in
    _BATCH_FLOATS doubles at N (K+1) each, at least one, and each batch is
    one call of ``_replicate_counts``.  ``R2MARGIN_THREADS`` sets the worker
    count W, capped at the number of batches.  Worker w makes one draw
    buffer by ``_draw_buffer`` and decides batches w, w + W, w + 2W, ... in
    it, so that a run makes one buffer per worker and frees them when it
    returns; one worker runs in the calling thread, more in a pool of W
    threads.

    A replicate whose covariate normals are collinear, or whose R2 is not
    finite (coefficients so large against sigma that its sums of squares
    overflow), is counted as skipped; if more than SKIP_FAILURE_FRACTION of
    them skip, the run raises ExcessiveSkipsError.
    """
    deltas = [_check_open_unit("every margin", d) for d in deltas]
    if not deltas:
        raise DomainError("deltas must be non-empty")
    n_sims = _check_int("n_sims", n_sims, 1)
    alpha = _check_open_unit("alpha", alpha)
    master_seed = _check_int("master_seed", master_seed)
    workers = _resolve_workers()
    roots = np.array([_critical_r2(scenario.n, scenario.k, d, alpha) for d in deltas])

    floats = _replicate_floats(scenario.n, scenario.k)
    step = max(1, _BATCH_FLOATS // floats)
    starts = range(0, n_sims, step)
    workers = min(workers, len(starts))

    def worker(w):
        buffer = _draw_buffer(min(step, n_sims), floats)
        return [_replicate_counts(scenario, lo, min(lo + step, n_sims), master_seed, roots, buffer)
                for lo in starts[w::workers]]

    with ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        batches = [b for done in (pool.map if pool else map)(worker, range(workers)) for b in done]
    counts = [sum(column) for column in zip(*(c for c, _ in batches))]
    skipped = sum(s for _, s in batches)

    if skipped > SKIP_FAILURE_FRACTION * n_sims:
        raise ExcessiveSkipsError(
            f"{skipped} of {n_sims} replicates in scenario {scenario.id!r} had collinear "
            f"covariate normals or no finite R2 (threshold {SKIP_FAILURE_FRACTION:.1%})"
        )

    return [
        RejectionRecord(
            scenario_id=scenario.id,
            delta=d,
            n_sims=n_sims,
            rejections=counts[i],
            true_p2=scenario.p2,
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
