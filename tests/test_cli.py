"""End-to-end tests of the command-line interface (in-process)."""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import r2margin.cli as cli
from r2margin.errors import ConvergenceError, ExcessiveSkipsError
from r2margin.cli import main


def run_cli(capsys, *argv):
    """Invoke the CLI and return (exit_code, report_dict, stdout + stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    report = {}
    for line in captured.out.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        parts = line.split(None, 1)
        if len(parts) == 2:
            report[parts[0]] = parts[1].strip()
    return code, report, captured.out + captured.err


def write_csv(path, y, x):
    k = x.shape[1]
    lines = ["y," + ",".join(f"x{i + 1}" for i in range(k))]
    for yi, row in zip(y, x):
        lines.append(",".join(format(v, ".17g") for v in [yi, *row]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestCiCommand:
    def test_golden_output(self, capsys):
        code, report, out = run_cli(
            capsys, "ci", "--r2", "0.085", "--n", "1250", "--k", "6", "--alpha", "0.10"
        )
        assert code == 0
        assert "0.1069415" in out
        assert report["clamped"] == "no"

    def test_zero_r2_prints_clamped_zero(self, capsys):
        code, report, _ = run_cli(
            capsys, "ci", "--r2", "0", "--n", "100", "--k", "3", "--alpha", "0.10"
        )
        assert code == 0
        assert float(report["upper"]) == 0.0
        assert report["clamped"] == "yes"

    def test_invariant_violation_exits_2(self, capsys):
        # n = 9 < k + 2 leaves no residual degrees of freedom
        code, _, text = run_cli(
            capsys, "ci", "--r2", "0.99", "--n", "9", "--k", "8", "--alpha", "0.05"
        )
        assert code == 2
        assert "n must be >= k + 2" in text

    def test_minimal_residual_df_is_accepted(self, capsys):
        # n = k + 2 gives one residual degree of freedom, the smallest
        # configuration the input contract admits
        code, report, _ = run_cli(
            capsys, "ci", "--r2", "0.99", "--n", "10", "--k", "8", "--alpha", "0.05"
        )
        assert code == 0
        assert 0.0 <= float(report["upper"]) < 1.0

    def test_convergence_failure_exits_3(self, capsys, monkeypatch):
        def stall(*args, **kwargs):
            raise ConvergenceError("stalled")

        monkeypatch.setattr(cli, "upper_ci_p2", stall)
        code, _, _ = run_cli(
            capsys, "ci", "--r2", "0.1", "--n", "100", "--k", "2", "--alpha", "0.05"
        )
        assert code == 3

    def test_non_positive_precision_exits_2(self, capsys):
        code, _, text = run_cli(
            capsys, "ci", "--r2", "0.085", "--n", "1250", "--k", "6", "--alpha", "0.10",
            "--precision", "-1",
        )
        assert code == 2
        assert "--precision" in text


class TestTestCommand:
    def test_golden_output(self, capsys):
        code, _, out = run_cli(
            capsys, "test", "--r2", "0.075", "--n", "1250", "--k", "6", "--delta", "0.10"
        )
        assert code == 0
        assert "0.02710537" in out

    def test_zero_r2_gives_zero_pvalue(self, capsys):
        code, report, _ = run_cli(
            capsys, "test", "--r2", "0", "--n", "100", "--k", "2", "--delta", "0.05"
        )
        assert code == 0
        assert float(report["p_value"]) == 0.0

    def test_margin_outside_unit_interval_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "test", "--r2", "0.1", "--n", "100", "--k", "2", "--delta", "1.2"
        )
        assert code == 2


class TestFitCommand:
    def test_perfect_fit_cannot_conclude_negligibility(self, capsys, tmp_path):
        x = np.linspace(-2.0, 2.0, 50).reshape(-1, 1)
        path = tmp_path / "line.csv"
        write_csv(path, 2.0 + 3.0 * x[:, 0], x)
        code, report, _ = run_cli(capsys, "fit", "--data", str(path), "--delta", "0.5")
        assert code == 0
        assert float(report["r2"]) > 0.999999
        assert float(report["p_value"]) > 0.99
        assert report["decision"].startswith("fail to reject")

    def test_too_few_rows_exits_2(self, capsys, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("y,x1,x2\n1,2,3\n4,5,6\n5,6,7\n", encoding="utf-8")
        code, _, _ = run_cli(capsys, "fit", "--data", str(path), "--delta", "0.1")
        assert code == 2

    def test_non_numeric_cell_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n1.0,2.0\noops,3.0\n" + "1,2\n" * 10, encoding="utf-8")
        code, _, _ = run_cli(capsys, "fit", "--data", str(path), "--delta", "0.1")
        assert code == 2

    def test_collinear_column_reported(self, capsys, tmp_path):
        rng = np.random.default_rng(12)
        base = rng.normal(size=(30, 1))
        x = np.column_stack([base, base])
        path = tmp_path / "collinear.csv"
        write_csv(path, rng.normal(size=30), x)
        code, _, text = run_cli(capsys, "fit", "--data", str(path), "--delta", "0.1")
        assert code == 2
        assert "column 2" in text

    def test_fit_and_test_agree_on_pvalue(self, capsys, tmp_path):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(200, 3))
        y = 0.3 + x @ np.array([0.1, -0.05, 0.02]) + rng.normal(size=200)
        path = tmp_path / "data.csv"
        write_csv(path, y, x)
        code, fit_report, _ = run_cli(
            capsys, "fit", "--data", str(path), "--delta", "0.08", "--precision", "17"
        )
        assert code == 0
        code, test_report, _ = run_cli(
            capsys,
            "test",
            "--r2", fit_report["r2"],
            "--n", fit_report["n"],
            "--k", fit_report["k"],
            "--delta", "0.08",
            "--precision", "17",
        )
        assert code == 0
        assert abs(float(fit_report["p_value"]) - float(test_report["p_value"])) <= 1e-12

    def test_null_model_pvalues_roughly_uniform_or_smaller(self, capsys, tmp_path):
        # With beta = 0 the population share is zero, so for any positive
        # margin the p-values over repeated datasets should be stochastically
        # no larger than uniform.
        rng = np.random.default_rng(2026)
        path = tmp_path / "null.csv"
        p_values = []
        for _ in range(200):
            x = rng.normal(size=(1000, 2))
            y = rng.normal(size=1000)
            write_csv(path, y, x)
            code, report, _ = run_cli(
                capsys, "fit", "--data", str(path), "--delta", "0.05", "--precision", "12"
            )
            assert code == 0
            p_values.append(float(report["p_value"]))
        p_values = np.array(p_values)
        for q in (0.25, 0.5, 0.75):
            slack = 3.0 * math.sqrt(q * (1 - q) / len(p_values))
            assert (p_values <= q).mean() >= q - slack

    def test_same_file_reproduces_identical_pvalue(self, capsys, tmp_path):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(300, 2))
        y = rng.normal(size=300)
        path = tmp_path / "repeat.csv"
        write_csv(path, y, x)
        _, first, _ = run_cli(
            capsys, "fit", "--data", str(path), "--delta", "0.05", "--precision", "17"
        )
        _, second, _ = run_cli(
            capsys, "fit", "--data", str(path), "--delta", "0.05", "--precision", "17"
        )
        assert first["p_value"] == second["p_value"]


class TestSimulateCommand:
    def test_paper_grid_row_count_and_layout(self, capsys, tmp_path):
        out = tmp_path / "results.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--paper-grid", "--sims", "2", "--seed", "3",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# r2margin simulate --paper-grid --sims 2")
        assert lines[1] == ",".join(cli.RESULT_COLUMNS)
        data = lines[2:]
        assert len(data) == 570
        keys = [(row.split(",")[0], float(row.split(",")[5])) for row in data]
        assert keys == sorted(keys)

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for out in (first, second):
            code, _, _ = run_cli(
                capsys, "simulate", "--paper-grid", "--sims", "2", "--seed", "9",
                "--out", str(out),
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_zero_sims_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "simulate", "--paper-grid", "--sims", "0", "--seed", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_config_driven_run(self, capsys, tmp_path):
        config = {
            "scenarios": [
                {"id": "a", "n": 80, "k": 2, "beta": [0.2, -0.1], "sigma2": 1.0,
                 "sigma_offdiag": 0.05},
                {"id": "b", "n": 80, "k": 4, "beta": [0.1, 0.1, -0.05, -0.1],
                 "sigma2": 0.5, "sigma_offdiag": 0.05},
            ],
            "deltas": [0.02, 0.05],
        }
        config_path = tmp_path / "grid.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "custom.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(config_path), "--sims", "5",
            "--seed", "4", "--out", str(out),
        )
        assert code == 0
        data = [l for l in out.read_text(encoding="utf-8").splitlines()[2:] if l]
        assert len(data) == 4  # 2 scenarios x 2 margins

    @pytest.mark.parametrize(
        "config",
        [
            {"scenario": []},  # wrong top-level key
            {"scenarios": [], "deltas": [0.05]},
            {"scenarios": [{"id": "a", "n": 50, "k": 2, "beta": [0.1, 0.2],
                            "sigma2": 1.0}], "deltas": [0.05]},  # missing sigma_offdiag
            {"scenarios": [{"id": "a", "n": 50, "k": 2, "beta": [0.1],
                            "sigma2": 1.0, "sigma_offdiag": 0.0}],
             "deltas": [0.05]},  # beta length mismatch
            *[
                {"scenarios": [{"id": "a", "n": 50, "k": 2, "beta": [0.1, 0.2],
                                "sigma2": 1.0, "sigma_offdiag": 0.0, key: bad}],
                 "deltas": [0.05]}
                for key in ("sigma2", "sigma_offdiag", "beta0")
                for bad in ("abc", None)
            ],
            {"scenarios": [{"id": "a", "n": 50, "k": 2, "beta": [0.1, 0.2],
                            "sigma2": 10**400, "sigma_offdiag": 0.0}], "deltas": [0.05]},
            {"scenarios": [{"id": "a", "n": 50, "k": 2, "beta": [0.1, "abc"],
                            "sigma2": 1.0, "sigma_offdiag": 0.0}], "deltas": [0.05]},
            {"scenarios": [{"id": "a", "n": 50, "k": 2, "beta": [0.1, None],
                            "sigma2": 1.0, "sigma_offdiag": 0.0}], "deltas": [0.05]},
            {"scenarios": [{"id": "a", "n": 50, "k": 2, "beta": [0.1, 0.2],
                            "sigma2": 1.0, "sigma_offdiag": 0.0}], "deltas": ["abc"]},
            {"scenarios": [{"id": "a", "n": 50, "k": 2, "beta": [0.1, 0.2],
                            "sigma2": 1.0, "sigma_offdiag": 0.0}], "deltas": [None]},
            # designs too large to address: rejected before anything is drawn
            *[
                {"scenarios": [{"id": "a", "n": n, "k": 2, "beta": [0.1, 0.2],
                                "sigma2": 1.0, "sigma_offdiag": 0.0}], "deltas": [0.05]}
                for n in (10**30, 2**62)
            ],
        ],
    )
    def test_schema_violations_exit_2(self, capsys, tmp_path, config):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(config_path), "--sims", "3",
            "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_excessive_skips_exit_4(self, capsys, tmp_path, monkeypatch):
        def all_skip(*args, **kwargs):
            raise ExcessiveSkipsError("forced")

        monkeypatch.setattr(cli, "run_scenario", all_skip)
        code, _, _ = run_cli(
            capsys, "simulate", "--paper-grid", "--sims", "2", "--seed", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 4


@pytest.fixture(scope="module")
def results_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("plotdata") / "results.csv"
    code = main(
        ["simulate", "--paper-grid", "--sims", "2", "--seed", "6", "--out", str(out)]
    )
    assert code == 0
    return out


class TestPlotCommand:
    def test_structure_of_paper_grid_figure(self, capsys, results_csv, tmp_path):
        out = tmp_path / "figure.svg"
        code, _, _ = run_cli(
            capsys, "plot", "--results", str(results_csv), "--out", str(out)
        )
        assert code == 0
        content = out.read_text(encoding="utf-8")
        ET.fromstring(content)  # well-formed XML
        assert content.count("<polyline") == 30
        assert content.count('class="alpha-ref"') == 2

    def test_restricted_axis_keeps_polyline_data(self, capsys, results_csv, tmp_path):
        full = tmp_path / "full.svg"
        restricted = tmp_path / "restricted.svg"
        run_cli(capsys, "plot", "--results", str(results_csv), "--out", str(full))
        run_cli(
            capsys, "plot", "--results", str(results_csv), "--out", str(restricted),
            "--restricted-axis",
        )

        def polyline_points(path):
            root = ET.fromstring(path.read_text(encoding="utf-8"))
            return [
                el.attrib["points"]
                for el in root.iter("{http://www.w3.org/2000/svg}polyline")
            ]

        assert polyline_points(full) == polyline_points(restricted)
        assert full.read_bytes() != restricted.read_bytes()

    def test_header_only_csv_exits_2(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(cli.RESULT_COLUMNS) + "\n", encoding="utf-8")
        code, _, _ = run_cli(
            capsys, "plot", "--results", str(empty), "--out", str(tmp_path / "x.svg")
        )
        assert code == 2

    def test_missing_column_exits_2(self, capsys, tmp_path):
        broken = tmp_path / "broken.csv"
        broken.write_text("scenario_id,n,k\nfoo,10,2\n", encoding="utf-8")
        code, _, _ = run_cli(
            capsys, "plot", "--results", str(broken), "--out", str(tmp_path / "x.svg")
        )
        assert code == 2
