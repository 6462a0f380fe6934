"""Benchmark of r2margin: one workload per fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports r2margin from
``src/`` and refuses to run without it.  Workloads (see ``workloads.py``):
paper-grid, large-n-grid, inference-calls, fit-csv.

One run:

1. runs the reference warm-up ops, untimed;
2. runs a closed, serial loop of ops for about ``--seconds`` seconds, one
   op at a time, stopping on a workload cycle boundary;
3. between cycles, spread evenly over the loop, times set-up (``setup_s``)
   in fresh interpreters: Python start, ``import r2margin`` (numpy
   included) and building the workload's inputs through the public API.
   Spreading the samples lets them see the same host as the ops; their
   time does not count toward ``--seconds``;
4. checks every output (``oracle.py``) outside the timed region;
5. prints a ``run_record`` JSON line, then the result JSON line.

``--trace 0`` reports the end-to-end metrics:

- ``throughput_per_s``: units completed (replicates on the grids, requests,
  fits) per timed second;
- ``latency_ms_p50``, ``latency_ms_p90``: wall time of one op;
- ``setup_s``: median of the fresh-interpreter set-up times;
- ``peak_rss_mb``: ``ru_maxrss`` of this process, read before the checks
  load scipy.

``--trace 1`` alternates untraced and traced cycles (``tracing.py``) and
reports per-layer metrics per unit of the traced cycles, plus the tracing
overhead between the two.

Runs are serial: ``R2MARGIN_THREADS`` is removed from the environment and
the BLAS pool is pinned to one thread before numpy loads.  ``host.ref_ms``
times a fixed loop that does not use r2margin, so that a shift between sets
of runs can be traced to the host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from array import array
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 15
HOST_PROBE_REPEATS = 3
WORKLOAD_NAMES = ("paper-grid", "large-n-grid", "inference-calls", "fit-csv")
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

_SETUP_CODE = """\
import sys
sys.path[:0] = sys.argv[1:3]
import r2margin, r2margin.cli, workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]))
"""


def setup_sample(name: str, seed: int) -> float:
    """Wall seconds of a fresh interpreter that imports r2margin and builds
    the workload's inputs."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH_DIR), name, str(seed)],
        check=True,
        cwd=ROOT,
    )
    return perf_counter() - start


def host_probe() -> float:
    """Milliseconds of a fixed interpreter-plus-numpy loop."""
    import numpy as np

    start = perf_counter()
    total = 0.0
    for i in range(1, 40_001):
        total += math.sqrt(i) / (i + 1.0)
    matrix = np.linspace(0.0, 1.0, 50_000 * 4).reshape(50_000, 4) ** 2 + np.eye(50_000, 4)
    for _ in range(4):
        total += float(np.linalg.qr(matrix, mode="r")[0, 0])
    if not math.isfinite(total):
        raise RuntimeError("host probe produced a non-finite value")
    return (perf_counter() - start) * 1e3


class Phase:
    """Timed ops of one part of a run.

    Op outputs are pickled to a temporary file instead of kept in memory, and
    latencies sit in a flat array, so that peak RSS barely grows with the
    number of ops a faster program completes."""

    def __init__(self, spill_dir):
        self.latencies = array("d")
        self.timed_s = 0.0
        self.units = 0
        self.cycles = 0
        self.cpu_s = 0.0
        self.errors: dict[int, str] = {}
        os.makedirs(spill_dir, exist_ok=True)
        self._spill = tempfile.TemporaryFile(dir=spill_dir)

    def store(self, index: int, summary) -> None:
        pickle.dump((index, summary), self._spill)

    def outputs(self) -> tuple[list[int], list]:
        """Op indices and summaries of the ops that returned, in run order."""
        indices, summaries = [], []
        with self._spill:
            self._spill.seek(0)
            while True:
                try:
                    index, summary = pickle.load(self._spill)
                except EOFError:
                    return indices, summaries
                indices.append(index)
                summaries.append(summary)

    @property
    def throughput(self) -> float:
        return self.units / self.timed_s if self.timed_s else math.nan


def execute(workload, op, index, phase, tracer=None) -> None:
    """Run one op, timing only the call into r2margin.  An op that raises
    is recorded as failed; the run goes on."""
    if tracer is not None:
        tracer.op_id = index
    cpu_start = process_time()
    start = perf_counter()
    try:
        output = workload.run(op)
    except Exception as exc:  # any failure of the program counts against it
        phase.latencies.append(perf_counter() - start)
        phase.timed_s += phase.latencies[-1]
        phase.errors[index] = f"{type(exc).__name__}: {exc}"
        if len(phase.errors) <= 3:
            traceback.print_exc(file=sys.stderr)
    else:
        phase.latencies.append(perf_counter() - start)
        phase.timed_s += phase.latencies[-1]
        phase.units += workload.units(op)
        phase.store(index, workload.summarize(op, output))
    finally:
        phase.cpu_s += process_time() - cpu_start
        workload.finish(op)


def timed_loop(workload, spill_dir, seconds: float, tracer=None, setup=None) -> tuple[list[Phase], list[float]]:
    """Closed loop of whole cycles until the next cycle would end after
    ``seconds`` of loop time (at least one cycle).  With a tracer, cycles
    alternate between an untraced and a traced phase, so both see the same
    host.  With ``setup``, a callable returning one set-up time, takes
    SETUP_REPEATS samples evenly spaced over the loop, between cycles; the
    time they take is left out of the loop time.  Returns the phases and
    the set-up samples."""
    phases = [Phase(spill_dir) for _ in range(1 if tracer is None else 2)]
    setup_samples: list[float] = []
    index = 0
    cycles = 0
    start = perf_counter()
    paused = 0.0
    while True:
        elapsed = perf_counter() - start - paused
        if setup is not None and len(setup_samples) < SETUP_REPEATS * min(1.0, elapsed / seconds):
            pause = perf_counter()
            setup_samples.append(setup())
            paused += perf_counter() - pause
        phase = phases[cycles % len(phases)]
        traced = phase is not phases[0]
        if traced:
            tracer.install()
        try:
            for _ in range(workload.cycle):
                execute(workload, workload.op_input(index), index, phase, tracer if traced else None)
                index += 1
        finally:
            if traced:
                tracer.uninstall()
        phase.cycles += 1
        cycles += 1
        elapsed = perf_counter() - start - paused
        if cycles % len(phases) == 0 and elapsed + elapsed / cycles * len(phases) > seconds:
            break
    while setup is not None and len(setup_samples) < SETUP_REPEATS:
        setup_samples.append(setup())
    return phases, setup_samples


def check(workload, phases, warm) -> tuple[dict, list[str]]:
    """Check every stored output.  Returns {op index: problem} for timed ops
    and a list of run-level problems (golden values, warm-up)."""
    import oracle

    def problems_of(phase):
        indices, summaries = phase.outputs()
        found = workload.check(summaries)
        return {indices[i]: message for i, message in found.items()}, summaries

    warm_problems, warm_summaries = problems_of(warm)
    run_problems = oracle.golden()
    run_problems += [f"warm-up op {i}: {m}" for i, m in sorted({**warm.errors, **warm_problems}.items())]
    run_problems += workload.warmup_problems(warm_summaries)
    op_problems = {}
    for phase in phases:
        op_problems.update(problems_of(phase)[0])
    return op_problems, run_problems


def _blas_record(np) -> dict:
    record = {"pinned_env": PINNED_ENV}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        record["library"] = "unknown"
    record["threads"] = "unknown"
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    record["threads"] = getter()
                    return record
    except OSError:
        pass
    return record


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "r2margin").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def _percentile_90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def run_benchmark(name, seed, seconds, trace, *, toy=False):
    """One benchmark run; returns (run record, result)."""
    os.environ.pop("R2MARGIN_THREADS", None)
    os.environ.update(PINNED_ENV)

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy as np

    import r2margin

    if Path(r2margin.__file__).resolve().parent != SRC / "r2margin":
        raise RuntimeError(f"r2margin was imported from {r2margin.__file__}, not from {SRC}")
    import tracing
    import workloads as wl

    workload = wl.WORKLOADS[name](seed, toy=toy)
    host_probe()  # the first call pays numpy's lazy set-up
    probes = [host_probe() for _ in range(HOST_PROBE_REPEATS)]

    warm = Phase(wl.OUT_DIR)
    for i, op in enumerate(workload.warmup_inputs()):
        execute(workload, op, -1 - i, warm)

    tracer = tracing.Tracer() if trace else None
    # set-up time is an end-to-end metric, so traced runs skip it
    setup = None if trace else (lambda: setup_sample(name, seed))
    phases, setup_samples = timed_loop(workload, wl.OUT_DIR, seconds, tracer, setup)
    probes += [host_probe() for _ in range(HOST_PROBE_REPEATS)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    op_problems, run_problems = check(workload, phases, warm)
    for index, message in list(op_problems.items())[:5]:
        print(f"check failed for op {index}: {message}", file=sys.stderr)
    for message in run_problems:
        print(f"check failed: {message}", file=sys.stderr)

    attempted = sum(len(phase.latencies) for phase in phases)
    errors = {i: m for phase in phases for i, m in phase.errors.items()}
    failed = len(set(errors) | set(op_problems))
    main = phases[0]
    p90 = _percentile_90(main.latencies)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "toy": toy,
        "host.ref_ms": statistics.median(probes),
        "host.ref_ms.samples": probes,
        "setup_s.samples": setup_samples,
        "ops": attempted,
        "units": sum(phase.units for phase in phases),
        "cycles": sum(phase.cycles for phase in phases),
        "warmup_ops": len(warm.latencies),
        "timed_s": sum(phase.timed_s for phase in phases),
        "latency_samples": len(main.latencies),
        "samples_beyond_p90": sum(t > p90 for t in main.latencies),
        "failed_ops": {str(i): m for i, m in list({**errors, **op_problems}.items())[:10]},
        "run_problems": run_problems,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_record(np),
        "r2margin_threads": os.environ.get("R2MARGIN_THREADS", "unset"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }
    if trace:
        trace_path = Path(wl.OUT_DIR) / f"trace-{name}-seed{seed}.npz"
        tracer.save(str(trace_path))
        record["trace_file"] = os.path.relpath(trace_path, ROOT)
        record["spans"] = len(tracer.start)
        metrics = layer_metrics(tracer, *phases, statistics.median(probes), workload)
    else:
        metrics = {
            "throughput_per_s": (main.throughput, "1/s"),
            "latency_ms_p50": (statistics.median(main.latencies) * 1e3, "ms"),
            "latency_ms_p90": (p90 * 1e3, "ms"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": attempted,
        "failed": failed,
        # A value is undefined (null) only when no op of the run succeeded.
        "metrics": {
            key: {"value": value if math.isfinite(value) else None, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }
    return record, result


def layer_metrics(tracer, untraced, traced, host_ref_ms, workload) -> dict:
    """Per-unit layer metrics of the traced phase; CPU time per unit comes
    from the untraced phase."""
    totals = tracer.totals()
    counters = tracer.counters
    units = traced.units or math.nan

    def calls(span):
        return totals.get(span, (0, 0.0))[0]

    def self_s(span):
        return totals.get(span, (0, 0.0))[1]

    def per_unit_ms(span):
        return self_s(span) / units * 1e3

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    csv_rows = traced.units * workload.rows if workload.name == "fit-csv" else 0
    return {
        "distributions.RandomStream.self_ms": (per_unit_ms("distributions.RandomStream"), "ms"),
        "distributions.standard_normal.self_ms": (per_unit_ms("distributions.standard_normal"), "ms"),
        "distributions.f_cdf.calls": (calls("distributions.f_cdf") / units, "count"),
        "distributions.f_cdf.self_ms": (per_unit_ms("distributions.f_cdf"), "ms"),
        "distributions.f_quantile.calls": (calls("distributions.f_quantile") / units, "count"),
        "distributions.f_quantile.self_ms": (per_unit_ms("distributions.f_quantile"), "ms"),
        "inference.noninferiority_pvalue.calls": (calls("inference.noninferiority_pvalue") / units, "count"),
        "inference.noninferiority_pvalue.self_ms": (per_unit_ms("inference.noninferiority_pvalue"), "ms"),
        "inference.fixed_point_v.iterations": (
            ratio(counters.get("fixed_point_v.iterations", 0.0), calls("inference.fixed_point_v")),
            "count",
        ),
        "inference.upper_ci_p2.self_ms": (per_unit_ms("inference.upper_ci_p2"), "ms"),
        "inference.upper_ci_p2.iterations": (
            ratio(counters.get("upper_ci_p2.iterations", 0.0), calls("inference.upper_ci_p2")),
            "count",
        ),
        "inference.upper_ci_p2.fallback_share": (
            ratio(counters.get("upper_ci_p2.fallbacks", 0.0), calls("inference.upper_ci_p2")),
            "share",
        ),
        "regression.fit_ols.self_ms": (per_unit_ms("regression.fit_ols"), "ms"),
        "regression.fit_ols.rows_per_s": (
            ratio(counters.get("fit_ols.rows", 0.0), self_s("regression.fit_ols")),
            "rows/s",
        ),
        "montecarlo.cholesky_factor.calls": (calls("montecarlo.cholesky_factor") / units, "count"),
        "montecarlo.generate_dataset.self_ms": (per_unit_ms("montecarlo.generate_dataset"), "ms"),
        "montecarlo.run_scenario.self_ms": (per_unit_ms("montecarlo.run_scenario"), "ms"),
        "montecarlo.skipped_share": (
            ratio(counters.get("run_scenario.skipped", 0.0), counters.get("run_scenario.replicates", 0.0)),
            "share",
        ),
        "cli.main.self_ms": (per_unit_ms("cli.main"), "ms"),
        "cli.parse_rows_per_s": (ratio(csv_rows, self_s("cli.main")), "rows/s"),
        "process.cpu_ms": (untraced.cpu_s / (untraced.units or math.nan) * 1e3, "ms"),
        "trace.overhead_pct": ((untraced.throughput / traced.throughput - 1.0) * 100.0, "%"),
        "host.ref_ms": (host_ref_ms, "ms"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="workload seed; inputs derive from it")
    parser.add_argument("--seconds", type=float, required=True, help="timed length of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = per-layer traced run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "r2margin" / "__init__.py").is_file():
        print(f"error: no r2margin sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or not args.seconds > 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    record, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
