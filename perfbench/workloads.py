"""The four benchmark workloads.

Every workload is a closed loop over ops: the benchmark prepares an op's
inputs (untimed), times the call into r2margin, then stores what it needs to
check the output later.  Inputs derive from the workload seed and the op
index, so no two ops of a run, nor two seeds, share an input.  The warm-up
ops instead use reference inputs that are the same in every run, so that
their rejection counts can be compared with digests recorded from the seed
code.

Constructing a workload builds its inputs through the public API; that is
the part of set-up that ``setup_s`` times in fresh interpreters.

Calls go through module attributes looked up at call time, so that a traced
run sees the wrapped functions.

Each workload owns the layout of its op summaries: ``summarize`` builds
them and ``check`` unpacks them for the oracle (``oracle.py``), which takes
plain values only.  ``check`` imports the oracle, and scipy with it, only
when the checks run: after peak RSS is read, and never in set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from typing import NamedTuple

import numpy as np

import r2margin
import r2margin.cli

# Warm-up ops draw from this workload seed, whatever --seed is.
REFERENCE_SEED = 1

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Run-time files: fit-csv's per-op CSVs (removed after each op), the op
# outputs spilled until the checks read them, and trace spans.
OUT_DIR = os.path.join(BENCH_DIR, "out")
# Digests of the grid warm-up ops' rejection counts, recorded from the seed
# code.
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

_SIZES = {
    # name: (full size, toy size used by the self-test)
    "paper_grid_sims": (100, 4),
    "paper_grid_warmup_sims": (20, 2),
    # (N, K) per scenario; an odd count keeps the median op inside one
    # scenario's cluster of times instead of between two.
    "large_n_scenarios": (
        ((100_000, 2), (300_000, 2), (300_000, 4), (1_000_000, 2), (1_000_000, 4)),
        ((2_000, 2), (3_000, 4), (5_000, 4)),
    ),
    "large_n_sims": (2, 1),
    "fit_rows": (100_000, 2_000),
}


def _size(key: str, toy: bool):
    return _SIZES[key][1 if toy else 0]


def derive_seed(*parts: object) -> int:
    """A 63-bit integer determined by ``parts``; distinct parts collide with
    negligible probability, so ops never share a master seed."""
    digest = hashlib.blake2b(repr(parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


class Workload:
    """Defaults shared by the workloads: one unit per op, nothing to clean
    up after an op, and no run-level check of the warm-up ops beyond the
    per-op ``check``."""

    @staticmethod
    def units(op) -> int:
        return 1

    @staticmethod
    def finish(op) -> None:
        pass

    def warmup_problems(self, summaries) -> list[str]:
        return []


class GridSummary(NamedTuple):
    scenario_id: str
    master_seed: int
    n_sims: int
    deltas: tuple
    counts: tuple
    rates: tuple
    skipped: int


class GridWorkload(Workload):
    """``run_scenario`` over a fixed list of scenarios, one scenario per op.

    One cycle visits every scenario once; runs stop on cycle boundaries so
    that every run times the same mix of scenario sizes.
    """

    name = ""
    alpha = 0.05

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.toy = toy
        self.scenarios, self.deltas = self.build_inputs(toy)
        self.cycle = len(self.scenarios)

    def op_input(self, index: int, *, warmup: bool = False):
        scenario = self.scenarios[index % self.cycle]
        seed = REFERENCE_SEED if warmup else self.seed
        tag = "warmup" if warmup else "op"
        master_seed = derive_seed(self.name, seed, tag, index)
        n_sims = self.warmup_sims if warmup else self.sims
        return scenario, master_seed, n_sims

    def warmup_inputs(self):
        return [self.op_input(i, warmup=True) for i in range(self.cycle)]

    def run(self, op):
        scenario, master_seed, n_sims = op
        return r2margin.run_scenario(scenario, self.deltas, n_sims, self.alpha, master_seed)

    @staticmethod
    def units(op) -> int:
        return op[2]

    @staticmethod
    def summarize(op, records) -> GridSummary:
        """Keep only what the checks read: scenario, seed, counts, skips."""
        scenario, master_seed, n_sims = op
        return GridSummary(
            scenario.id,
            master_seed,
            n_sims,
            tuple(r.delta for r in records),
            tuple(r.rejections for r in records),
            tuple(r.rejection_rate for r in records),
            records[0].skipped,
        )

    @staticmethod
    def check(summaries) -> dict[int, str]:
        import oracle

        problems = {}
        for i, s in enumerate(summaries):
            problem = oracle.grid_counts_problem(s.deltas, s.counts, s.rates, s.n_sims, s.skipped)
            if problem:
                problems[i] = f"{s.scenario_id}/{s.master_seed}: {problem}"
        return problems

    @staticmethod
    def digest(summaries) -> str:
        """Digest of scenario, seed, replicate count, margins and counts."""
        text = "\n".join(
            f"{s.scenario_id},{s.master_seed},{s.n_sims},{','.join(map(repr, s.deltas))},"
            f"{','.join(map(str, s.counts))},{s.skipped}"
            for s in summaries
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def warmup_problems(self, summaries) -> list[str]:
        """The warm-up ops' counts must equal those recorded from the seed
        code, because the counts are to stay byte-identical."""
        with open(DIGESTS, encoding="utf-8") as digests:
            expected = json.load(digests)[f"{self.name}/{'toy' if self.toy else 'full'}"]
        got = self.digest(summaries)
        return [] if got == expected else [f"warm-up rejection counts digest {got} != recorded {expected}"]


class PaperGrid(GridWorkload):
    """The 30 built-in scenarios at the 19 default margins: the traffic of
    ``simulate --paper-grid``, dominated by the per-replicate p-values."""

    name = "paper-grid"

    def build_inputs(self, toy):
        self.sims = _size("paper_grid_sims", toy)
        self.warmup_sims = _size("paper_grid_warmup_sims", toy)
        return r2margin.paper_grid(), r2margin.default_delta_grid()


class LargeNGrid(GridWorkload):
    """Five scenarios at N = 1e5..1e6, K in {2, 4}, and three margins: draws
    and the QR fit dominate, inference is negligible."""

    name = "large-n-grid"
    _BETAS = {2: (0.07, -0.07), 4: (0.05, 0.05, -0.05, -0.05)}

    def build_inputs(self, toy):
        self.sims = _size("large_n_sims", toy)
        self.warmup_sims = 1
        scenarios = [
            r2margin.Scenario(
                id=f"large_k{k}_n{n}",
                n=n,
                k=k,
                beta=np.array(self._BETAS[k]),
                sigma2=1.0,
                sigma_matrix=r2margin.exchangeable_covariance(k),
            )
            for n, k in _size("large_n_scenarios", toy)
        ]
        return scenarios, [0.005, 0.01, 0.02]


class RequestSummary(NamedTuple):
    r2: float
    n: int
    k: int
    delta: float
    alpha: float
    upper: float
    upper_raw: float
    clamped: float
    p_value: float


class InferenceCalls(Workload):
    """One request = the inference step of ``fit``: ``upper_ci_p2`` and then
    ``noninferiority_pvalue`` on one seeded (R2, N, K, delta), at the alpha
    ``fit`` uses by default (0.05).

    N is log-uniform on [60, 1e7] and K uniform on 1..10.  These spread the
    requests over the ranges to cover; they are not a measured traffic mix.
    A fifth of the requests carry a tiny R2 (1e-7..1e-3), a stress share
    that reaches the clamped bound and the bisection fallback.

    R2 stays below min(0.5, MAX_NR2 / N) and delta at most 1% above that
    cap.  Past N * R2 of about 1e5 the seed's incomplete beta does not
    converge within its term budget and the request fails, so the cap keeps
    the seed code free of failed ops; it is a known limit of the program,
    not of the traffic.
    """

    name = "inference-calls"
    cycle = 1
    alpha = 0.05
    MAX_NR2 = 1e5
    _CHUNK = 1024

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.toy = toy
        self._chunk_start = 0
        self._chunk = self._requests(seed, 0)

    def _requests(self, seed: int, start: int, warmup: bool = False):
        """The (TestInput, delta) of requests [start, start + _CHUNK)."""
        rng = np.random.default_rng([seed, int(warmup), start])
        size = self._CHUNK
        n = np.floor(10.0 ** rng.uniform(math.log10(60.0), 7.0, size)).astype(np.int64)
        k = rng.integers(1, 11, size)
        top = np.log10(np.minimum(0.5, self.MAX_NR2 / n))
        tiny = rng.random(size) < 0.2
        u = rng.random(size)
        r2 = 10.0 ** np.where(tiny, -7.0 + 4.0 * u, -3.0 + (top + 3.0) * u)
        delta = np.minimum(r2 + 10.0 ** rng.uniform(-3.5, -1.0, size), 10.0**top)
        delta = np.maximum(delta, r2 * 1.01)
        return [
            (r2margin.TestInput(r2=float(r2[i]), n=int(n[i]), k=int(k[i])), float(delta[i]))
            for i in range(size)
        ]

    def op_input(self, index: int):
        start = index - index % self._CHUNK
        if start != self._chunk_start:
            self._chunk_start, self._chunk = start, self._requests(self.seed, start)
        return self._chunk[index - start]

    def warmup_inputs(self):
        return self._requests(REFERENCE_SEED, 0, warmup=True)[: 20 if self.toy else 50]

    def run(self, op):
        observed, delta = op
        bound = r2margin.upper_ci_p2(observed, self.alpha)
        result = r2margin.noninferiority_pvalue(observed, delta)
        return bound, result

    def summarize(self, op, output) -> RequestSummary:
        observed, delta = op
        bound, result = output
        return RequestSummary(
            observed.r2,
            observed.n,
            observed.k,
            delta,
            self.alpha,
            bound.upper,
            bound.upper_raw,
            float(bound.clamped),
            result.p_value,
        )

    @staticmethod
    def check(summaries) -> dict[int, str]:
        import oracle

        if not summaries:
            return {}
        columns = np.asarray(summaries, dtype=float).reshape(-1, len(RequestSummary._fields)).T
        return oracle.check_inference(**dict(zip(RequestSummary._fields, columns)))


class FitSummary(NamedTuple):
    key: tuple
    delta: float
    code: int
    text: str


class FitCsv(Workload):
    """``r2margin fit`` in-process on a freshly written CSV per op:
    about 1e5 rows of an outcome and four covariates.  The only path
    through the ``cli`` layer; per-cell parsing dominates."""

    name = "fit-csv"
    cycle = 1
    k = 4
    alpha = 0.05

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.toy = toy
        self.rows = _size("fit_rows", toy)
        # ``fit`` builds this parser on every call; building it here puts it
        # in set-up too, next to the import.
        self.parser = r2margin.cli.build_parser()
        os.makedirs(OUT_DIR, exist_ok=True)

    def dataset(self, key):
        """Outcome and covariates of the op with ``key`` = (seed, warm-up
        flag, index), on a 1e-6 grid so that the CSV text parses back to
        exactly these doubles; also the margin handed to ``fit``."""
        rng = np.random.default_rng(list(key))
        covariance = r2margin.exchangeable_covariance(self.k)
        beta = rng.uniform(-0.12, 0.12, self.k)
        x = rng.standard_normal((self.rows, self.k)) @ np.linalg.cholesky(covariance).T
        y = x @ beta + rng.standard_normal(self.rows)
        table = np.rint(np.column_stack([y, x]) * 1e6) / 1e6
        signal = float(beta @ covariance @ beta)
        delta = round(signal / (signal + 1.0) + rng.uniform(0.001, 0.02), 6)
        return table, delta

    def _op(self, key):
        table, delta = self.dataset(key)
        path = os.path.join(OUT_DIR, "fit-{}-{}-{}-{}.csv".format(os.getpid(), *key))
        header = "y," + ",".join(f"x{j + 1}" for j in range(self.k))
        np.savetxt(path, table, fmt="%.6f", delimiter=",", header=header, comments="")
        return path, delta, key

    def op_input(self, index: int):
        return self._op((self.seed, 0, index))

    def warmup_inputs(self):
        return [self._op((REFERENCE_SEED, 1, 0))]

    def run(self, op):
        path, delta, _ = op
        argv = ["fit", "--data", path, "--delta", repr(delta), "--alpha", repr(self.alpha)]
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = r2margin.cli.main(argv + ["--precision", "17"])
        return code, captured.getvalue()

    @staticmethod
    def finish(op) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(op[0])

    @staticmethod
    def summarize(op, output) -> FitSummary:
        _, delta, key = op
        code, text = output
        return FitSummary(key, delta, code, text)

    def check(self, summaries) -> dict[int, str]:
        """Each report against the regenerated data and the oracle."""
        import oracle

        problems = {}
        for i, s in enumerate(summaries):
            if s.code != 0:
                problems[i] = f"fit exited with code {s.code}"
                continue
            table, _ = self.dataset(s.key)
            problem = oracle.fit_problem(table[:, 1:], table[:, 0], s.delta, self.alpha, s.text)
            if problem:
                problems[i] = problem
        return problems


WORKLOADS = {w.name: w for w in (PaperGrid, LargeNGrid, InferenceCalls, FitCsv)}

