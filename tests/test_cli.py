"""End-to-end tests of the command-line interface (in-process)."""

import csv
import errno
import hashlib
import inspect
import json
import math
import mmap
import os
import pathlib
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import stats

import r2margin.cli as cli
import r2margin.montecarlo as montecarlo
import r2margin.regression as regression
from r2margin import errors, inference
from r2margin.errors import ConvergenceError, ExcessiveSkipsError, R2MarginError
from r2margin.cli import main
from r2margin.regression import Dataset, _fit_blocks, fit_ols

from oracles import r2_exact, small_r2_dataset


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


def _unexpected_run(*args, **kwargs):
    raise AssertionError("run_scenario called")


def write_csv(path, y, x):
    k = x.shape[1]
    lines = ["y," + ",".join(f"x{i + 1}" for i in range(k))]
    for yi, row in zip(y, x):
        lines.append(",".join(format(v, ".17g") for v in [yi, *row]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# The exit code each error class is documented to map onto.
DOCUMENTED_EXIT_CODES = {
    "DomainError": 2,
    "DimensionMismatchError": 2,
    "RankDeficiencyError": 2,
    "NotPositiveDefiniteError": 2,
    "ConvergenceError": 3,
    "ExcessiveSkipsError": 4,
}


@pytest.mark.parametrize(
    "error",
    [
        cls
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, R2MarginError) and cls is not R2MarginError
    ],
    ids=lambda cls: cls.__name__,
)
def test_every_error_class_exits_with_its_documented_code(capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr(cli, "upper_ci_p2", fail)
    code, _, text = run_cli(
        capsys, "ci", "--r2", "0.1", "--n", "100", "--k", "2", "--alpha", "0.05"
    )
    assert code == DOCUMENTED_EXIT_CODES[error.__name__]
    assert text == "error: forced\n"


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
        assert report["iterations"] == "0"

    def test_invariant_violation_exits_2(self, capsys):
        # n = 9 < k + 2 leaves no residual degrees of freedom
        code, _, text = run_cli(
            capsys, "ci", "--r2", "0.99", "--n", "9", "--k", "8", "--alpha", "0.05"
        )
        assert code == 2
        assert "n must be >= k + 2" in text

    def test_n_beyond_the_float_range_exits_2(self, capsys):
        code, _, text = run_cli(
            capsys, "ci", "--r2", "0.1", "--n", "1" + "0" * 400, "--k", "2", "--alpha", "0.05"
        )
        assert code == 2
        assert text == "error: n must be finite, got a number beyond the float range\n"

    def test_prefactor_beyond_the_float_range_exits_3(self, capsys):
        # at N = 1e18 the incomplete beta's prefactor overflows the float range
        code, _, text = run_cli(
            capsys, "ci", "--r2", "0.1", "--n", "1" + "0" * 18, "--k", "2", "--alpha", "0.05"
        )
        assert code == 3
        assert text.startswith("error: the incomplete-beta prefactor is beyond the float range")

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

    @pytest.mark.parametrize("precision", [str(2**31), "3000000000"])
    def test_precision_beyond_format_limit_exits_2(self, capsys, precision):
        code, _, text = run_cli(
            capsys, "test", "--r2", "0.075", "--n", "1250", "--k", "6", "--delta", "0.10",
            "--precision", precision,
        )
        assert code == 2
        assert text == f"error: --precision must lie in [1, 2147483647], got {precision}\n"

    def test_margin_outside_unit_interval_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "test", "--r2", "0.1", "--n", "100", "--k", "2", "--delta", "1.2"
        )
        assert code == 2

    def test_large_n_pvalue_matches_scipy(self, capsys):
        # R2 next to the incomplete beta's series switch at N = 1e6.
        code, report, _ = run_cli(
            capsys, "test", "--r2", "0.30003", "--n", "1000000", "--k", "2", "--delta", "0.3",
            "--precision", "17",
        )
        assert code == 0
        expected = stats.f.cdf(float(report["f_stat"]), float(report["v_final"]), 1000000 - 3)
        assert abs(float(report["p_value"]) - expected) <= 1e-9


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

    def test_tiny_r2_prints_the_exact_digits(self, capsys, tmp_path):
        y, x = small_r2_dataset(1e-12, seed=0)
        path = tmp_path / "tiny.csv"
        rows = [",".join(map(repr, [yi, *row])) for yi, row in zip(y.tolist(), x.tolist())]
        path.write_text("\n".join(["y,x1,x2", *rows]) + "\n", encoding="utf-8")
        code, report, _ = run_cli(capsys, "fit", "--data", str(path), "--delta", "0.05")
        assert code == 0
        assert report["r2"] == format(float(r2_exact(y, x)), ".7g")

    def test_test_bound_agrees_with_the_decision_where_the_ci_bound_does_not(
        self, capsys, tmp_path
    ):
        # R2 = 0.01963 at N = 300, K = 2: p lies in [alpha/2, alpha), so the
        # test rejects while the alpha/2 bound lies above the margin
        y, x = small_r2_dataset(0.01963, seed=3, n=300)
        path = tmp_path / "between.csv"
        write_csv(path, y, x)
        code, report, _ = run_cli(capsys, "fit", "--data", str(path), "--delta", "0.05")
        assert code == 0
        assert 0.025 <= float(report["p_value"]) < 0.05
        assert report["decision"].startswith("reject")
        assert float(report["ci_upper"]) > 0.05 > float(report["test_upper"])
        assert report["ci_level"] == "0.95"

    def test_outcome_of_small_magnitude_prints_its_unscaled_r2(self, capsys, tmp_path):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(200, 2))
        y = x @ np.array([0.8, -0.4]) + rng.normal(size=200)
        reports = []
        for name, scale in [("plain.csv", 1.0), ("scaled.csv", 1e-15)]:
            write_csv(tmp_path / name, scale * y, x)
            code, report, _ = run_cli(
                capsys, "fit", "--data", str(tmp_path / name), "--delta", "0.1"
            )
            assert code == 0
            reports.append(report)
        assert float(reports[0]["r2"]) > 0.1
        assert reports[1]["r2"] == reports[0]["r2"]
        assert reports[1]["decision"] == reports[0]["decision"]

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

    @pytest.mark.parametrize("flag,value", [("--delta", "1.5"), ("--alpha", "0")])
    def test_invalid_level_exits_2_before_the_data_is_read(self, capsys, tmp_path, flag, value):
        levels = {"--delta": "0.1", "--alpha": "0.05", flag: value}
        argv = [item for pair in levels.items() for item in pair]
        code, _, text = run_cli(capsys, "fit", "--data", str(tmp_path / "missing.csv"), *argv)
        assert code == 2
        assert text == f"error: {flag[2:]} must lie strictly inside (0, 1), got {float(value)!r}\n"

    def test_error_names_physical_line(self, capsys, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("y,x\n1,2\n\n\n\n3,4\noops,5\n", encoding="utf-8")
        code, _, text = run_cli(capsys, "fit", "--data", str(path), "--delta", "0.1")
        assert code == 2
        assert "line 7 contains a non-numeric cell" in text

    def test_over_long_quoted_cell_exits_2(self, capsys, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text('y,x\n1,2\n"0.' + "1" * 140_000 + '",3\n4,5\n6,7\n', encoding="utf-8")
        code, _, text = run_cli(capsys, "fit", "--data", str(path), "--delta", "0.1")
        assert code == 2
        assert text == "error: line 3: field larger than field limit (131072)\n"

    def test_header_only_csv_prints_one_error_and_no_warning(self, capsys, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("y,x1\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, text = run_cli(capsys, "fit", "--data", str(path), "--delta", "0.1")
        assert code == 2
        assert text == "error: CSV must contain a header row followed by data rows\n"

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_overflowing_outcome_exits_2(self, capsys, tmp_path, scale):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 2))
        path = tmp_path / "huge.csv"
        write_csv(path, scale * (x[:, 0] + rng.normal(size=50)), x)
        code, _, text = run_cli(capsys, "fit", "--data", str(path), "--delta", "0.1")
        assert code == 2
        assert text == "error: the outcome's sums of squares overflow the float range\n"

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

    @pytest.mark.parametrize(
        "outcome",
        [
            lambda x, noise: 1.0 + x @ [0.5, -2.0] + 1e-6 * noise,
            lambda x, noise: 5.0 + 1e-12 * noise,
            lambda x, noise: 0.1 + 2.0**-56 * (noise > 0),
        ],
        ids=["r2-above-1-1e-9", "near-constant-outcome", "constant-but-last-bits"],
    )
    def test_untrusted_cross_products_print_what_the_qr_fit_prints(
        self, capsys, tmp_path, outcome
    ):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(200, 2))
        y = outcome(x, rng.normal(size=200))
        path = tmp_path / "untrusted.csv"
        write_csv(path, y, x)
        argv = ["fit", "--data", str(path), "--delta", "0.1", "--precision", "17"]
        code, report, _ = run_cli(capsys, *argv)
        assert code == 0
        r2 = min(fit_ols(Dataset(y=y, x=x)).r2, inference._PSQ_CEILING)
        assert report["r2"] == format(r2, ".17g")


def _decline(path):
    raise cli._Declined


def fit_outcome(path, rows_only=False):
    """What ``fit`` makes of ``path``: (n, k, R2), or the message and exit
    code of the error it raises.  With ``rows_only`` the per-row parser reads
    every pass."""
    with pytest.MonkeyPatch.context() as patch:
        if rows_only:
            patch.setattr(cli, "_loadtxt_blocks", _decline)
        try:
            r2, n, k = cli._csv_r2(str(path))
        except R2MarginError as exc:
            return str(exc), exc.exit_code
    return n, k, r2


def loadtxt_reads(path) -> bool:
    """Whether the loadtxt reader reads every block of ``path``."""
    try:
        for _ in cli._loadtxt_blocks(str(path)):
            pass
    except cli._Declined:
        return False
    return True


_CSV_CHARS = list("0123456789.eE+-_,\"# \t\r\n\x0c\x1c") + ["inf", "nan"]
_ODD_CELLS = st.one_of(
    st.lists(st.sampled_from(_CSV_CHARS), max_size=5).map("".join),
    st.sampled_from(["1_0", '"2"', "1e400", "nan", "#7", "-0", " 3 ", "\x1c4", "5\x1f", "\uff16"]),
)


@st.composite
def csv_texts(draw):
    """A short text over the CSV alphabet, or (mostly) a numeric table with
    a header, mixed line endings and up to two odd cells."""
    if draw(st.integers(0, 4)) == 0:
        return "".join(draw(st.lists(st.sampled_from(_CSV_CHARS), max_size=40)))
    width = draw(st.integers(2, 3))
    names = ["y"] + [f"x{j}" for j in range(1, width)]
    header = draw(st.sampled_from([
        ",".join(names),
        ",".join(f'"{name}"' for name in names),
        "\ufeff" + ",".join(names),
        "\n\n" + ",".join(names),
        ",".join(names[:-1]),
        ",".join(names + ["z"]),
    ]))
    rows = draw(st.integers(0, 6))
    cells = draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        min_size=rows * width,
        max_size=rows * width,
    ))
    for _ in range(draw(st.integers(0, 2)) if cells else 0):
        cells[draw(st.integers(0, len(cells) - 1))] = draw(_ODD_CELLS)
    text = header
    for row in range(rows):
        text += draw(st.sampled_from(["\n", "\r\n", "\r", "\n\n"]))
        text += ",".join(cells[row * width:(row + 1) * width])
    return text + draw(st.sampled_from(["", "\n", "\r\n", "\n \n", "\n\t"]))


class TestCsvParsePaths:
    """``fit`` reads a CSV in blocks through loadtxt when it can and through
    the per-row parser otherwise; both must give identical results."""

    @pytest.mark.parametrize(
        "text, fast, expected",
        [
            ("\ufeffy,x\n1,2\n2,3\n4,4\n", True, None),
            ('"y","x"\n1,2\n2,3\n4,4\n', True, None),
            ("y,x\r\n1,2\r\n2,3\r\n4,4\r\n", True, None),
            ("y,x\r1,2\r2,3\r4,4\r", True, None),
            ("\n\ny,x\n1,2\n\n2,3\n4,4\n\n", True, None),
            (" y , x \n 1 ,\t2\x0c\n2,3\n4,4\n", True, None),
            ("y,x\n1,2\n \n2,3\n4,4\n", False, "line 3 has 1 fields, expected 2"),
            ("y,x\n1,2,\n2,3\n4,4\n", False, "line 2 has 3 fields, expected 2"),
            ('y,x\n"1.5",2\n2,3\n4,4\n', False, None),
            ("y,x\n1_000,2\n2,3\n4,4\n", False, None),
            ("y,x\n\uff11,2\n2,3\n4,4\n", False, None),
            ("y,x\n1,2\n#2,3\n4,4\n", False, "line 3 contains a non-numeric cell"),
            ("y,x\n1,2\ninf,3\n4,4\n", False, "line 3 contains a non-finite value"),
            ("y,x\n1,2\n2\n4,4\n", False, "line 3 has 1 fields, expected 2"),
            ("y,x\n1,2\x1c\n2,3\n4,4\n", False, "line 2 contains a non-numeric cell"),
            ("y,x\n", False, "CSV must contain a header row followed by data rows"),
            ("y\n1\n2\n3\n", False,
             "CSV needs an outcome column plus at least one covariate column"),
            ("y,x\n1,2\n2,3\n", True, "n must be >= k + 2 so that n - k - 1 >= 1, got n=2, k=1"),
        ],
        ids=[
            "bom-header", "quoted-header", "crlf", "lone-cr", "blank-lines",
            "padded-cells", "whitespace-row", "trailing-comma", "quoted-number",
            "underscore-number", "full-width-digit", "hash-row", "inf-cell",
            "short-row", "unit-separator", "header-only", "one-column", "too-few-rows",
        ],
    )
    def test_table_of_spellings(self, tmp_path, text, fast, expected):
        path = tmp_path / "case.csv"
        path.write_bytes(text.encode("utf-8"))
        outcome = fit_outcome(path)
        assert outcome == fit_outcome(path, rows_only=True)
        assert loadtxt_reads(path) == fast
        if expected is None:
            assert outcome[:2] == (3, 1)
        else:
            assert outcome == (expected, 2)

    def test_loadtxt_doubles_equal_float_of_each_spelling(self, tmp_path):
        rng = np.random.default_rng(8)
        values = np.concatenate([
            rng.standard_normal(400) * 10.0 ** rng.integers(-30, 30, 400),
            [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0, 0.1],
        ]).tolist()
        spellings = [
            lambda v: format(v, ".17g"),
            lambda v: format(v, ".6f"),
            repr,
            lambda v: format(v, ".25e"),
            lambda v: format(v, ".30f"),
        ]
        lines = ["y,x1,x2,x3,x4,x5"]
        for row in range(len(values)):
            lines.append(",".join(
                spell(values[(row + j) % len(values)]) for j, spell in enumerate(spellings)
            ) + ",1")
        path = tmp_path / "spellings.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert loadtxt_reads(path)
        fast = np.concatenate(list(cli._loadtxt_blocks(str(path))))
        exact = np.concatenate(list(cli._row_blocks(str(path))))
        assert fast.shape == (len(values), 6)
        assert fast.tobytes() == exact.tobytes()
        assert fit_outcome(path) == fit_outcome(path, rows_only=True)

    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=csv_texts())
    def test_fast_path_agrees_with_exact_path(self, tmp_path, text):
        path = tmp_path / "generated.csv"
        path.write_bytes(text.encode("utf-8"))
        assert fit_outcome(path) == fit_outcome(path, rows_only=True)


# The loadtxt reader's block size at the header width of 3.
_SIZE = regression._block_rows(3)


@pytest.fixture(scope="module")
def boundary_rows():
    """A random table of B + 1 rows of (y, x1, x2) and its CSV lines."""
    table = np.random.default_rng(0).normal(size=(_SIZE + 1, 3))
    return table, [",".join(map(repr, row)) for row in table.tolist()]


def boundary_csv(path, lines, size):
    """Writes ``lines`` under a header, those around the boundary after data
    row ``size`` ending in \\r\\n, a lone \\r and blank lines; returns the text."""
    endings = {size - 2: "\r\n", size - 1: "\r\n\n", size: "\r\r", size + 1: "\n\r\n"}
    text = "y,x1,x2\n" + "".join(
        line + endings.get(row, "\n") for row, line in enumerate(lines, 1)
    )
    path.write_bytes(text.encode("utf-8"))
    return text


class TestBlockReader:
    """``fit`` streams its CSV in blocks of ``regression._block_rows(width)``
    rows into one QR fit."""

    @pytest.mark.parametrize(
        "rows, sizes",
        [(1, [1]), (_SIZE - 1, [_SIZE - 1]), (_SIZE, [_SIZE]), (_SIZE + 1, [_SIZE, 1])],
        ids=["1", "B-1", "B", "B+1"],
    )
    def test_files_around_the_block_size(self, tmp_path, boundary_rows, rows, sizes):
        table, lines = boundary_rows
        table = table[:rows]
        path = tmp_path / "boundary.csv"
        boundary_csv(path, lines[:rows], _SIZE)
        for read in (cli._loadtxt_blocks, cli._row_blocks):
            blocks = list(read(str(path)))
            assert [len(block) for block in blocks] == sizes
            assert np.concatenate(blocks).tobytes() == table.tobytes()
        outcome = fit_outcome(path)
        if rows == 1:
            assert outcome == ("n must be >= k + 2 so that n - k - 1 >= 1, got n=1, k=2", 2)
        else:
            n, k, r2 = outcome
            assert (n, k) == (rows, 2)
            assert abs(r2 - fit_ols(Dataset(y=table[:, 0], x=table[:, 1:])).r2) <= 2e-12

    @pytest.mark.parametrize("bad", [10, 11])
    def test_error_after_a_block_names_its_physical_line(self, tmp_path, monkeypatch, bad):
        monkeypatch.setattr(regression, "_BLOCK_FLOATS", 30)  # 10 rows a block
        lines = [f"{row},{row % 3},{row % 5}" for row in range(1, 12)]
        lines[bad - 1] = "oops" + lines[bad - 1][lines[bad - 1].index(","):]
        path = tmp_path / "boundary.csv"
        text = boundary_csv(path, lines, 10)
        line = next(i for i, row in enumerate(text.splitlines(), 1) if row.startswith("oops"))
        assert line > bad + 1  # blank lines came before it
        expected = (f"line {line} contains a non-numeric cell", 2)
        assert fit_outcome(path) == fit_outcome(path, rows_only=True) == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_fit_prints_exactly_the_r2_of_fit_ols(self, capsys, tmp_path, monkeypatch, seed):
        # 35 rows in four blocks of at most 10: fit and fit_ols fold one cut
        monkeypatch.setattr(regression, "_BLOCK_FLOATS", 30)
        table, _ = self._table(seed, 35, 2, None)
        path = tmp_path / "blocks.csv"
        write_csv(path, table[:, 0], table[:, 1:])
        argv = ["fit", "--data", str(path), "--delta", "0.1", "--precision", "17"]
        code, report, _ = run_cli(capsys, *argv)
        assert code == 0
        r2 = min(fit_ols(Dataset(y=table[:, 0], x=table[:, 1:])).r2, inference._PSQ_CEILING)
        assert report["r2"] == format(r2, ".17g")

    @staticmethod
    def _table(seed, n, k, far):
        """(y, x1, ..., xk) of ``n`` random rows, the first row moved by
        ``10**far`` in y and x1 (in every covariate it would make them
        collinear) unless ``far`` is None."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, k))
        table = np.column_stack([x @ rng.uniform(-1.0, 1.0, k) + rng.normal(size=n), x])
        if far is not None:
            table[0, :2] += rng.choice([-1.0, 1.0], 2) * 10.0**far
        return table, rng

    # N from K + 2 to 3 blocks; spreads from 1e-3 to 1e5, every column up to
    # 1e3 spreads from zero, and the first row up to 1e3 spreads from the
    # rest, where sums shifted by the first row alone lose digits
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 4),
        blocks=st.floats(0.0, 3.0),
        spread=st.floats(-3.0, 5.0),
        offset=st.floats(0.0, 3.0),
        far=st.one_of(st.none(), st.floats(0.0, 3.0)),
    )
    @example(seed=0, k=2, blocks=1.0, spread=0.0, offset=3.0, far=3.0)
    @example(seed=1, k=4, blocks=2.0, spread=5.0, offset=0.0, far=None)
    def test_block_r2_agrees_with_one_block(self, seed, k, blocks, spread, offset, far):
        size = regression._block_rows(k + 1)
        n = max(k + 2, int(blocks * size))
        table, rng = self._table(seed, n, k, far)
        table *= 10.0**spread
        table += rng.choice([-1.0, 1.0], k + 1) * 10.0 ** (spread + offset)
        fit, got_n = _fit_blocks(table[i : i + size].copy() for i in range(0, n, size))
        assert (got_n, len(fit.coefficients)) == (n, k)
        whole, _ = _fit_blocks([table.copy()])
        assert abs(fit.r2 - whole.r2) <= 2e-12
        expected = np.append(whole.coefficients, whole.intercept)
        got = np.append(fit.coefficients, fit.intercept)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0.0)

    # covariates up to 1e12 from zero at unit spread, where a fit that shifts
    # only y is off by up to about 1e-4: the whole table as one block and
    # blocks of 1 to 10 rows against the exact R2 of the doubles
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.integers(1, 4).flatmap(lambda k: st.tuples(st.integers(k + 2, 40), st.just(k))),
        size=st.integers(1, 10),
        offset=st.floats(0.0, 12.0),
        far=st.one_of(st.none(), st.floats(0.0, 3.0)),
    )
    @example(seed=2, shape=(40, 2), size=8, offset=12.0, far=3.0)
    def test_block_r2_equals_the_exact_r2_far_from_zero(self, seed, shape, size, offset, far):
        n, k = shape
        table, rng = self._table(seed, n, k, far)
        table[:, 1:] += rng.choice([-1.0, 1.0], k) * 10.0**offset
        exact = float(r2_exact(table[:, 0], table[:, 1:]))
        fit, _ = _fit_blocks(table[i : i + size].copy() for i in range(0, n, size))
        assert abs(fit.r2 - exact) <= 2e-12
        assert abs(fit_ols(Dataset(y=table[:, 0], x=table[:, 1:])).r2 - exact) <= 2e-12


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

    def test_seed_7_paper_grid_csv_bytes_are_pinned(self, capsys, tmp_path):
        # The rejection counts of a full paper-grid run must not move when
        # the numerics behind the critical R2 are reworked.
        out = tmp_path / "seed7.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--paper-grid", "--sims", "200", "--seed", "7",
            "--out", str(out),
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "59a16f4c78f85889eb5538193c84d3059880b7af174b314c8ae2725b789e9b60"
        )

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
        "config,message",
        [
            ({"scenario": []}, "config has unknown top-level keys: ['scenario']"),
            ({"scenarios": [], "deltas": [0.05]}, "config key 'scenarios' must be a non-empty list"),
            ({"scenarios": [{"id": "a", "n": 50, "k": 2, "beta": [0.1, 0.2], "sigma2": 1.0}],
              "deltas": [0.05]}, "scenario 0 is missing keys: ['sigma_offdiag']"),
            ({"scenarios": [{"id": "a", "n": 50, "k": 2, "beta": [0.1],
                             "sigma2": 1.0, "sigma_offdiag": 0.0}], "deltas": [0.05]},
             "scenario 0: 'beta' has 1 entries, expected k=2"),
            *[
                ({"scenarios": [{"id": "a", "n": 50, "k": 2, "beta": [0.1, 0.2],
                                 "sigma2": 1.0, "sigma_offdiag": 0.0, key: bad}],
                  "deltas": [0.05]},
                 f"scenario 0: {key!r} holds a non-numeric value {bad!r}")
                for key in ("sigma2", "sigma_offdiag")
                for bad in ("abc", None)
            ],
            # an intercept cannot change R2, so a config has none
            ({"scenarios": [{"id": "a", "n": 50, "k": 2, "beta": [0.1, 0.2],
                             "sigma2": 1.0, "sigma_offdiag": 0.0, "beta0": 0.0}],
              "deltas": [0.05]}, "scenario 0 has unknown keys: ['beta0']"),
            # named, never echoed in its 401 digits
            ({"scenarios": [{"id": "a", "n": 50, "k": 2, "beta": [0.1, 0.2],
                             "sigma2": 10**400, "sigma_offdiag": 0.0}], "deltas": [0.05]},
             "scenario 0: 'sigma2' holds a number beyond the float range"),
            # no covariance: -0.6 is below -1/(k-1) at k = 3
            ({"scenarios": [{"id": "a", "n": 50, "k": 3, "beta": [0.1, 0.2, 0.3],
                             "sigma2": 1.0, "sigma_offdiag": -0.6}], "deltas": [0.05]},
             "scenario 0: offdiag must lie in (-1/(k-1), 1) for positive definiteness"),
            *[
                ({"scenarios": [{"id": "a", "n": 50, "k": 2, "beta": [0.1, bad],
                                 "sigma2": 1.0, "sigma_offdiag": 0.0}], "deltas": [0.05]},
                 f"scenario 0: 'beta' holds a non-numeric value {bad!r}")
                for bad in ("abc", None)
            ],
            *[
                ({"scenarios": [{"id": "a", "n": 50, "k": 2, "beta": [0.1, 0.2],
                                 "sigma2": 1.0, "sigma_offdiag": 0.0}], "deltas": [bad]},
                 f"config: 'deltas' holds a non-numeric value {bad!r}")
                for bad in ("abc", None)
            ],
            # designs too large to address: rejected before anything is drawn
            *[
                ({"scenarios": [{"id": "a", "n": n, "k": 2, "beta": [0.1, 0.2],
                                 "sigma2": 1.0, "sigma_offdiag": 0.0}], "deltas": [0.05]},
                 f"scenario 'a': an n={n} by k+1=3 float64 draw buffer is beyond the "
                 "addressable memory")
                for n in (10**30, 2**62)
            ],
            # covariances too large to address: beta's length, which cannot
            # reach k, rejects them before the k-by-k matrix is built
            *[
                ({"scenarios": [{"id": "a", "n": 50, "k": k, "beta": [0.1],
                                 "sigma2": 1.0, "sigma_offdiag": 0.0}], "deltas": [0.05]},
                 f"scenario 0: 'beta' has 1 entries, expected k={k}")
                for k in (10**10, 2**31)
            ],
            ({"scenarios": [{"id": "a", "n": 50, "k": 1, "beta": [0.1], "sigma2": 1.0,
                             "sigma_offdiag": 0.0}] * 2, "deltas": [0.05]},
             "scenario ids must be unique"),
            # not JSON: written as it stands
            ('{"scenarios": [', "config is not valid JSON: Expecting value"),
            ([{"scenarios": [], "deltas": [0.05]}], "config must be a JSON object"),
            ({"scenarios": [{"id": "a", "n": 50, "k": 1, "beta": [0.1], "sigma2": 1.0,
                             "sigma_offdiag": 0.0}], "deltas": 0.05},
             "config key 'deltas' must be a non-empty list"),
            ({"scenarios": [[1]], "deltas": [0.05]}, "scenario 0 must be a JSON object"),
            ({"scenarios": [{"id": "a", "n": 50, "k": 1, "beta": 0.1, "sigma2": 1.0,
                             "sigma_offdiag": 0.0}], "deltas": [0.05]},
             "scenario 0: 'beta' must be a list of numbers"),
        ],
    )
    def test_schema_violations_exit_2(self, capsys, tmp_path, config, message):
        config_path = tmp_path / "bad.json"
        raw = config if isinstance(config, str) else json.dumps(config)
        config_path.write_text(raw, encoding="utf-8")
        code, _, text = run_cli(
            capsys, "simulate", "--config", str(config_path), "--sims", "3",
            "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        # each config reaches the check it was written for, and only that one
        assert text.startswith(f"error: {message}"), text
        assert text.count("\n") == 1

    @pytest.mark.parametrize(
        "k, beta, message",
        [
            (3, [0.1, 0.2], "scenario 0: 'beta' has 2 entries, expected k=3"),
            (10**10, [0.1], "scenario 0: 'beta' has 1 entries, expected k=10000000000"),
        ],
        ids=["short-beta", "unaddressable-k"],
    )
    def test_k_checked_before_covariance_is_built(
        self, capsys, tmp_path, monkeypatch, k, beta, message
    ):
        def unexpected(*args, **kwargs):
            raise AssertionError("covariance built before k was checked")

        monkeypatch.setattr(cli, "exchangeable_covariance", unexpected)
        config = {"scenarios": [{"id": "a", "n": 50, "k": k, "beta": beta,
                                 "sigma2": 1.0, "sigma_offdiag": 0.0}], "deltas": [0.05]}
        config_path = tmp_path / "bad-k.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, text = run_cli(
            capsys, "simulate", "--config", str(config_path), "--sims", "3",
            "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert message in text

    def test_out_of_memory_exits_2(self, capsys, tmp_path, monkeypatch):
        def unallocatable(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.42 PiB for an array")

        monkeypatch.setattr(montecarlo, "_draw_normals", unallocatable)
        code, _, text = run_cli(
            capsys, "simulate", "--paper-grid", "--sims", "2", "--seed", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert text == "error: out of memory: Unable to allocate 1.42 PiB for an array\n"

    def test_unmappable_draw_buffer_exits_2(self, capsys, tmp_path, monkeypatch):
        # N (K+1) = 300000 > 2^18 doubles: the draw buffer is mapped, not
        # allocated by numpy, and the mapping is refused
        def refused(*args, **kwargs):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        monkeypatch.setattr(mmap, "mmap", refused)
        config = {"scenarios": [{"id": "a", "n": 100_000, "k": 2, "beta": [0.1, 0.2],
                                 "sigma2": 1.0, "sigma_offdiag": 0.0}], "deltas": [0.05]}
        config_path = tmp_path / "large.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, text = run_cli(
            capsys, "simulate", "--config", str(config_path), "--sims", "2", "--seed", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert text == (
            "error: out of memory: cannot map a 2400000-byte draw buffer: "
            f"[Errno {errno.ENOMEM}] {os.strerror(errno.ENOMEM)}\n"
        )

    def test_unwritable_out_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_scenario", _unexpected_run)
        config = {"scenarios": [{"id": "a", "n": 50, "k": 2, "beta": [0.1, 0.2],
                                 "sigma2": 1.0, "sigma_offdiag": 0.0}], "deltas": [0.05]}
        config_path = tmp_path / "one.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = str(tmp_path / "missing" / "x.csv")
        code, _, text = run_cli(
            capsys, "simulate", "--config", str(config_path), "--sims", "1",
            "--seed", "1", "--out", out,
        )
        assert code == 2
        assert text.startswith(f"error: cannot write {out!r}: ")
        assert text.count("\n") == 1

    @pytest.mark.parametrize("source", ["alpha-flag", "config-margin"])
    def test_invalid_level_keeps_an_existing_out_file(self, capsys, tmp_path, monkeypatch, source):
        monkeypatch.setattr(cli, "run_scenario", _unexpected_run)
        config = {"scenarios": [{"id": "a", "n": 50, "k": 2, "beta": [0.1, 0.2],
                                 "sigma2": 1.0, "sigma_offdiag": 0.0}], "deltas": [1.5]}
        config_path = tmp_path / "margin.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        grid = {
            "alpha-flag": ["--paper-grid", "--alpha", "2"],
            "config-margin": ["--config", str(config_path)],
        }[source]
        out = tmp_path / "old.csv"
        out.write_bytes(b"earlier results\n")
        code, _, text = run_cli(
            capsys, "simulate", *grid, "--sims", "2", "--seed", "1", "--out", str(out)
        )
        assert code == 2
        assert "must lie strictly inside (0, 1)" in text
        assert out.read_bytes() == b"earlier results\n"

    def test_repeated_margin_keeps_an_existing_out_file(self, capsys, tmp_path, monkeypatch):
        # simulate would write scenario a at 0.05 twice, which plot rejects
        monkeypatch.setattr(cli, "run_scenario", _unexpected_run)
        config = {"scenarios": [{"id": "a", "n": 50, "k": 2, "beta": [0.1, 0.2],
                                 "sigma2": 1.0, "sigma_offdiag": 0.0}],
                  "deltas": [0.05, 0.05, 0.02]}
        config_path = tmp_path / "repeat.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "old.csv"
        out.write_bytes(b"earlier results\n")
        code, _, text = run_cli(
            capsys, "simulate", "--config", str(config_path), "--sims", "2", "--seed", "1",
            "--out", str(out),
        )
        assert code == 2
        assert text == "error: config key 'deltas' repeats the margin 0.05\n"
        assert out.read_bytes() == b"earlier results\n"

    def test_excessive_skips_exit_4(self, capsys, tmp_path, monkeypatch):
        def all_skip(*args, **kwargs):
            raise ExcessiveSkipsError("forced")

        monkeypatch.setattr(cli, "run_scenario", all_skip)
        out = tmp_path / "x.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--paper-grid", "--sims", "2", "--seed", "1",
            "--out", str(out),
        )
        assert code == 4
        assert out.read_bytes() == b""

    def test_failure_after_a_finished_scenario_leaves_no_partial_table(
        self, capsys, tmp_path, monkeypatch
    ):
        calls = []

        def skip_from_second_scenario(*args, **kwargs):
            calls.append(args[0].id)
            if len(calls) > 1:
                raise ExcessiveSkipsError("forced")
            return montecarlo.run_scenario(*args, **kwargs)

        monkeypatch.setattr(cli, "run_scenario", skip_from_second_scenario)
        out = tmp_path / "x.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--paper-grid", "--sims", "2", "--seed", "1",
            "--out", str(out),
        )
        assert code == 4
        assert calls == ["k2_n0060_v0.4", "k2_n0060_v0.5"]
        assert out.read_bytes() == b""

    def test_ids_round_trip_through_csv_and_plot(self, capsys, tmp_path):
        ids = ["a,b", 'say "hi"', "#x"]
        config = {
            "scenarios": [
                {"id": id_, "n": n, "k": 2, "beta": [0.2, -0.1], "sigma2": 1.0,
                 "sigma_offdiag": 0.05}
                for id_, n in zip(ids, (40, 50, 60))
            ],
            "deltas": [0.02, 0.05],
        }
        config_path = tmp_path / "ids.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "ids.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(config_path), "--sims", "3",
            "--seed", "2", "--out", str(out),
        )
        assert code == 0
        with open(out, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))[2:]
        assert sorted({row[0] for row in rows}) == sorted(ids)
        assert all(len(row) == len(cli.RESULT_COLUMNS) for row in rows)
        figure = tmp_path / "ids.svg"
        code, _, text = run_cli(capsys, "plot", "--results", str(out), "--out", str(figure))
        assert code == 0
        assert "6 source rows" in text
        assert figure.read_text(encoding="utf-8").count("<polyline") == len(ids)

    @pytest.mark.parametrize("bad_id", ["a\ud800", "a\nb"], ids=["lone-surrogate", "newline"])
    def test_unprintable_id_exits_2_before_any_run(self, capsys, tmp_path, monkeypatch, bad_id):
        monkeypatch.setattr(cli, "run_scenario", _unexpected_run)
        config = {"scenarios": [{"id": bad_id, "n": 50, "k": 2, "beta": [0.1, 0.2],
                                 "sigma2": 1.0, "sigma_offdiag": 0.0}], "deltas": [0.05]}
        config_path = tmp_path / "bad-id.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, text = run_cli(
            capsys, "simulate", "--config", str(config_path), "--sims", "1",
            "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert text.startswith("error: scenario id must be a non-empty printable string")
        assert text.count("\n") == 1

    def test_overflowing_outcome_exits_4(self, capsys, tmp_path):
        # P2 = 1.0 is finite, but g = 1e300 per coefficient, so every
        # replicate's |v|^2 overflows and its R2 is not finite
        config = {"scenarios": [{"id": "huge", "n": 50, "k": 2, "beta": [1e150, 1e150],
                                 "sigma2": 1e-300, "sigma_offdiag": 0.0}], "deltas": [0.05]}
        config_path = tmp_path / "huge.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, text = run_cli(
            capsys, "simulate", "--config", str(config_path), "--sims", "5",
            "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 4
        assert text == (
            "error: 5 of 5 replicates in scenario 'huge' had collinear covariate normals "
            "or no finite R2 (threshold 0.1%)\n"
        )

    def test_overflowing_share_exits_2_before_any_run(self, capsys, tmp_path, monkeypatch):
        # beta' Sigma beta overflows, so the second scenario has no P2
        monkeypatch.setattr(cli, "run_scenario", _unexpected_run)
        config = {
            "scenarios": [
                {"id": "a", "n": 8000, "k": 2, "beta": [0.1, 0.2], "sigma2": 1.0,
                 "sigma_offdiag": 0.05},
                {"id": "huge", "n": 50, "k": 2, "beta": [1e200, 1e200], "sigma2": 1e300,
                 "sigma_offdiag": 0.05},
            ],
            "deltas": [0.05],
        }
        config_path = tmp_path / "overflow.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "x.csv"
        code, _, text = run_cli(
            capsys, "simulate", "--config", str(config_path), "--sims", "2000",
            "--seed", "1", "--out", str(out),
        )
        assert code == 2
        assert text == "error: scenario 'huge': beta' Sigma beta must be finite, got inf\n"
        assert not out.exists()

    def test_singular_covariance_exits_2_before_any_run(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_scenario", _unexpected_run)
        config = {
            "scenarios": [
                {"id": "a", "n": 8000, "k": 2, "beta": [0.1, 0.2], "sigma2": 1.0,
                 "sigma_offdiag": 0.05},
                {"id": "b", "n": 50, "k": 2, "beta": [0.1, 0.2], "sigma2": 1.0,
                 "sigma_offdiag": 0.9999999999999},
            ],
            "deltas": [0.05],
        }
        config_path = tmp_path / "singular.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, text = run_cli(
            capsys, "simulate", "--config", str(config_path), "--sims", "1",
            "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert text.startswith("error: scenario 'b': Cholesky pivot 2.00062189037")
        assert "np.float64" not in text


class TestPathEcho:
    """A path is echoed as-is when printable and as its repr otherwise."""

    def _config(self, tmp_path, name):
        config = {"scenarios": [{"id": "a", "n": 40, "k": 2, "beta": [0.2, -0.1],
                                 "sigma2": 1.0, "sigma_offdiag": 0.05}],
                  "deltas": [0.02, 0.05]}
        path = tmp_path / name
        path.write_text(json.dumps(config), encoding="utf-8")
        return str(path)

    def _data(self, tmp_path, name):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 2))
        path = tmp_path / name
        write_csv(path, x @ [0.5, -0.3] + rng.standard_normal(30), x)
        return str(path)

    def test_newline_paths_keep_simulate_and_plot_lines_whole(self, capsys, tmp_path):
        config = self._config(tmp_path, "c\nd.json")
        out = str(tmp_path / "r\ns.csv")
        code, _, text = run_cli(
            capsys, "simulate", "--config", config, "--sims", "2", "--seed", "1",
            "--out", out,
        )
        assert code == 0
        assert text == f"wrote 2 rows (1 scenarios) to {out!r}\n"
        lines = pathlib.Path(out).read_text(encoding="utf-8").splitlines()
        assert lines[0] == f"# r2margin simulate --config {config!r} --sims 2 --alpha 0.05 --seed 1"
        assert lines[1] == ",".join(cli.RESULT_COLUMNS)
        figure = str(tmp_path / "f\ng.svg")
        code, _, text = run_cli(capsys, "plot", "--results", out, "--out", figure)
        assert code == 0
        assert text == f"wrote figure with 2 source rows to {figure!r}\n"

    def test_undecodable_config_path_is_escaped(self, capsys, tmp_path):
        # an argv byte that is not UTF-8 arrives as a lone surrogate
        config = self._config(tmp_path, "c\udcff.json")
        out = tmp_path / "x.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", config, "--sims", "2", "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        first = out.read_text(encoding="utf-8").splitlines()[0]
        assert first.startswith(f"# r2margin simulate --config {config!r} --sims 2")
        assert "\\udcff" in first

    def test_newline_data_path_keeps_fit_header_one_line(self, capsys, tmp_path):
        data = self._data(tmp_path, "c\nd.csv")
        code, report, text = run_cli(capsys, "fit", "--data", data, "--delta", "0.1")
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == f"# r2margin fit --data {data!r} --delta 0.1 --alpha 0.05"
        assert [line.split()[0] for line in lines[1:]] == [
            "n", "k", "r2", "ci_upper", "ci_level", "test_upper", "p_value", "decision"
        ]

    def test_undecodable_data_path_prints_on_strict_stdout(self, tmp_path):
        data = self._data(tmp_path, "c\udcff.csv")
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONIOENCODING="utf-8:strict")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "r2margin.cli", "fit", "--data", data, "--delta", "0.1"],
            capture_output=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        header = done.stdout.decode("utf-8").splitlines()[0]
        assert header == f"# r2margin fit --data {data!r} --delta 0.1 --alpha 0.05"


@pytest.mark.parametrize(
    "subcommand,flag,extra",
    [
        ("fit", "--data", ["--delta", "0.1"]),
        ("simulate", "--config", ["--sims", "1", "--seed", "1", "--out", "{tmp}/x.csv"]),
        ("plot", "--results", ["--out", "{tmp}/x.svg"]),
    ],
    ids=["fit", "simulate", "plot"],
)
def test_non_utf8_input_exits_2(capsys, tmp_path, subcommand, flag, extra):
    path = tmp_path / "latin1.txt"
    path.write_bytes("y,gr\u00f6\u00dfe\n1,2\n3,4\n5,7\n".encode("latin-1"))
    extra = [arg.format(tmp=tmp_path) for arg in extra]
    code, _, text = run_cli(capsys, subcommand, flag, str(path), *extra)
    assert code == 2
    assert text.startswith(f"error: cannot read {str(path)!r}: 'utf-8' codec can't decode")


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

    def test_paper_grid_figure_bytes_are_pinned(self, capsys, results_csv, tmp_path):
        out = tmp_path / "figure.svg"
        code, _, _ = run_cli(capsys, "plot", "--results", str(results_csv), "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e3f805f5ef5d027b9f47ff1b4510dd65323136ed2a8f40342d747ba02e82347d"
        )

    def test_scenarios_sharing_a_cell_get_one_line_each(self, capsys, tmp_path):
        # same (n, k, sigma2), different beta
        config = {
            "scenarios": [
                {"id": id_, "n": 60, "k": 2, "beta": beta, "sigma2": 1.0, "sigma_offdiag": 0.05}
                for id_, beta in (("weak", [0.05, 0.0]), ("strong", [0.6, 0.4]))
            ],
            "deltas": [0.02, 0.05, 0.3],
        }
        config_path = tmp_path / "pair.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        results = tmp_path / "pair.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(config_path), "--sims", "50",
            "--seed", "1", "--out", str(results),
        )
        assert code == 0
        figure = tmp_path / "pair.svg"
        code, _, _ = run_cli(capsys, "plot", "--results", str(results), "--out", str(figure))
        assert code == 0
        root = ET.fromstring(figure.read_text(encoding="utf-8"))
        lines = [
            [tuple(map(float, point.split(","))) for point in el.attrib["points"].split()]
            for el in root.iter("{http://www.w3.org/2000/svg}polyline")
        ]
        with open(results, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
        # "strong" sorts before "weak": one line per scenario, its margins in order
        assert lines == [
            [(float(row["delta"]), float(row["rejection_rate"]))
             for row in rows if row["scenario_id"] == id_]
            for id_ in ("strong", "weak")
        ]
        assert lines[0] != lines[1]

    @pytest.mark.parametrize(
        "second,message",
        [
            ({"alpha": "0.1"}, "results row 1 has alpha 0.1, row 0 0.05"),
            ({"rejection_rate": "0.5"}, "results row 1 repeats scenario 's' at delta 0.03"),
            ({"n": "sixty"}, "results row 1 has a non-numeric cell: "),
        ],
        ids=["mixed-levels", "repeated-margin", "non-numeric-cell"],
    )
    def test_rows_that_cannot_share_a_figure_exit_2(self, capsys, tmp_path, second, message):
        cells = dict(zip(cli.RESULT_COLUMNS, "s,60,2,1.0,0.03,0.03,0.05,2,0,0.0,0,1".split(",")))
        results = tmp_path / "results.csv"
        results.write_text(
            ",".join(cli.RESULT_COLUMNS) + "\n"
            + "".join(",".join(row.values()) + "\n" for row in (cells, cells | second)),
            encoding="utf-8",
        )
        code, _, text = run_cli(
            capsys, "plot", "--results", str(results), "--out", str(tmp_path / "x.svg")
        )
        assert code == 2
        assert text.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "delta, lo, hi", [("0.03", "0.025", "0.035"), ("0.5", "0.45", "0.55")]
    )
    def test_one_margin_pads_the_axis(self, capsys, tmp_path, delta, lo, hi):
        # a lone margin would leave the axis zero wide: it is padded by
        # 10% of the margin, and by at least 0.005, on either side
        cells = dict(zip(cli.RESULT_COLUMNS, "s,60,2,1.0,0.03,0.03,0.05,2,0,0.0,0,1".split(",")))
        results = tmp_path / "results.csv"
        results.write_text(
            ",".join(cli.RESULT_COLUMNS) + "\n" + ",".join((cells | {"delta": delta}).values())
            + "\n",
            encoding="utf-8",
        )
        figure = tmp_path / "x.svg"
        code, _, _ = run_cli(capsys, "plot", "--results", str(results), "--out", str(figure))
        assert code == 0
        root = ET.fromstring(figure.read_text(encoding="utf-8"))
        (line,) = [el for el in root.iter("{http://www.w3.org/2000/svg}line")
                   if el.get("class") == "alpha-ref"]
        assert (line.get("x1"), line.get("x2")) == (lo, hi)
        (series,) = root.iter("{http://www.w3.org/2000/svg}polyline")
        assert series.get("points") == f"{delta},0"

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

    def test_over_long_quoted_cell_exits_2(self, capsys, tmp_path):
        long = tmp_path / "long.csv"
        long.write_text(
            "# r2margin simulate\n" + ",".join(cli.RESULT_COLUMNS) + "\n"
            + '"' + "s" * 140_000 + '",60,2,1.0,0.03,0.05,0.05,2,0,0.0,0,1\n',
            encoding="utf-8",
        )
        code, _, text = run_cli(
            capsys, "plot", "--results", str(long), "--out", str(tmp_path / "x.svg")
        )
        assert code == 2
        assert text == "error: line 3: field larger than field limit (131072)\n"

    @pytest.mark.parametrize(
        "column, value",
        [("rejection_rate", "nan"), ("delta", "inf"), ("sigma2", "-inf"), ("alpha", "nan")],
    )
    def test_non_finite_cell_exits_2(self, capsys, tmp_path, column, value):
        cells = dict(zip(cli.RESULT_COLUMNS, "s,60,2,1.0,0.03,0.05,0.05,2,0,0.0,0,1".split(",")))
        rows = [dict(cells, delta="0.05"), dict(cells, delta="0.1") | {column: value}]
        results = tmp_path / "results.csv"
        results.write_text(
            ",".join(cli.RESULT_COLUMNS) + "\n"
            + "".join(",".join(row.values()) + "\n" for row in rows),
            encoding="utf-8",
        )
        code, _, text = run_cli(
            capsys, "plot", "--results", str(results), "--out", str(tmp_path / "x.svg")
        )
        assert code == 2
        assert text == f"error: results row 1 has a non-finite {column!r}: {value!r}\n"

    def test_unwritable_out_exits_2(self, capsys, results_csv, tmp_path):
        out = str(tmp_path / "missing" / "figure.svg")
        code, _, text = run_cli(capsys, "plot", "--results", str(results_csv), "--out", out)
        assert code == 2
        assert text.startswith(f"error: cannot write {out!r}: ")
        assert text.count("\n") == 1
