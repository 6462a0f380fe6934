"""Fast self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Runs every workload untraced and traced, checks that the seed code passes
every correctness check, and that the checks catch perturbed results.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import oracle  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def summaries(workload, inputs):
    """Run the ops ``inputs``; returns their summaries."""
    phase = run.Phase(wl.OUT_DIR)
    for index, op in enumerate(inputs):
        run.execute(workload, op, index, phase)
    return phase.outputs()[1]


def toy_results(name, ops):
    """Run ``ops`` ops of a toy workload; returns it and the op summaries."""
    workload = wl.WORKLOADS[name](2, toy=True)
    return workload, summaries(workload, [workload.op_input(index) for index in range(ops)])


class WorkloadsRun(unittest.TestCase):
    def test_every_workload_passes_its_checks(self):
        for name in wl.WORKLOADS:
            for trace, spec_key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    record, result = run.run_benchmark(name, 2, 0.2, trace, toy=True)
                    self.assertTrue(result["correct"], record)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC[spec_key]})

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory(dir=wl.OUT_DIR) as bare:
            shutil.copytree(run.BENCH_DIR, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            args = ["--workload", "paper-grid", "--seed", "1", "--seconds", "1", "--trace", "0"]
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", *args], cwd=bare, capture_output=True, text=True, timeout=60
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


class ChecksCatchPerturbations(unittest.TestCase):
    def test_golden_values(self):
        self.assertEqual(oracle.golden(), [])

    def test_inference_pvalue_and_bound(self):
        workload, results = toy_results("inference-calls", 40)
        self.assertEqual(workload.check(results), {})
        row = results[7]
        bad_rows = (
            row._replace(p_value=row.p_value + 1e-6),
            row._replace(upper=row.upper + 1e-6, upper_raw=row.upper_raw + 1e-6),
        )
        for bad in bad_rows:
            perturbed = results[:7] + [bad] + results[8:]
            self.assertEqual(set(workload.check(perturbed)), {7})

    def test_grid_counts(self):
        workload, results = toy_results("paper-grid", 30)
        self.assertEqual(workload.check(results), {})
        counts = (1,) + (0,) * (len(results[3].counts) - 1)
        bad = results[3]._replace(counts=counts, rates=tuple(c / results[3].n_sims for c in counts))
        self.assertIn("decrease", workload.check(results[:3] + [bad] + results[4:])[3])

    def test_grid_warmup_digest(self):
        workload = wl.WORKLOADS["paper-grid"](2, toy=True)
        warm = summaries(workload, workload.warmup_inputs())
        self.assertEqual(workload.warmup_problems(warm), [])
        counts = list(warm[5].counts)
        counts[-1] += 1 if counts[-1] < warm[5].n_sims else -1
        bad = warm[5]._replace(counts=tuple(counts))
        self.assertEqual(len(workload.warmup_problems(warm[:5] + [bad] + warm[6:])), 1)

    def test_fit_report(self):
        workload, results = toy_results("fit-csv", 1)
        self.assertEqual(workload.check(results), {})
        text = results[0].text
        for name in ("p_value", "ci_upper", "r2"):
            line = next(line for line in text.splitlines() if line.startswith(name))
            value = float(line.split()[1])
            bad = results[0]._replace(text=text.replace(line, f"{name}  {value + 1e-6!r}"))
            self.assertIn(0, workload.check([bad]), name)


if __name__ == "__main__":
    unittest.main()
