"""Command-line interface.

Subcommands
-----------
ci        one-sided upper confidence bound for P2 from (r2, n, k, alpha)
test      non-inferiority p-value from (r2, n, k, delta)
fit       run both on a CSV dataset (first column outcome, rest covariates)
simulate  rejection-rate study over a scenario grid, written as CSV
plot      per-K SVG panels of rejection-rate curves from a simulate CSV

``fit`` reads its CSV in blocks of at most 2^18 doubles, through loadtxt or,
where loadtxt declines a block, the per-row parser, and folds them into the
QR fit's R factor (``regression._fit_blocks``), so its memory does not grow
with N.

Exit codes: 0 success, otherwise the ``exit_code`` of the error class
raised (see ``errors``): 2 validation failure (an input too large for the
memory available exits 2 as well), 3 convergence failure, 4 excessive Monte
Carlo skips.  ``R2MARGIN_THREADS`` sets the simulate worker count (0 = one per
CPU), capped at one per CPU.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import sys
import warnings

import numpy as np

from .errors import DomainError, R2MarginError, _check_int, _check_open_unit
from .figures import render_rejection_figure
from .inference import _PSQ_CEILING, TestInput, noninferiority_pvalue, upper_ci_p2
from .montecarlo import (
    Scenario,
    default_delta_grid,
    exchangeable_covariance,
    paper_grid,
    run_scenario,
)
from .regression import _fit_blocks

EXIT_OK = 0

RESULT_COLUMNS = (
    "scenario_id",
    "n",
    "k",
    "sigma2",
    "true_p2",
    "delta",
    "alpha",
    "n_sims",
    "rejections",
    "rejection_rate",
    "skipped",
    "master_seed",
)

# The largest precision ``format`` accepts (C int); beyond it it raises.
_MAX_PRECISION = 2**31 - 1


def _fmt(value: float, precision: int) -> str:
    return format(float(value), f".{precision}g")


@contextlib.contextmanager
def _output(path: str):
    """``path`` opened for writing; an OSError on it becomes a DomainError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        raise DomainError(f"cannot write {path!r}: {exc}") from None


def _shown(path: str) -> str:
    """``path`` as echoed: its repr unless printable, so that a newline cannot
    split a line and an undecodable byte (a lone surrogate) still encodes."""
    return path if path.isprintable() else repr(path)


def _print_report(meta: str, lines: list[tuple[str, str]]) -> None:
    print(meta)
    width = max(len(name) for name, _ in lines)
    for name, text in lines:
        print(f"{name:<{width}}  {text}")


def _cmd_ci(args) -> int:
    observed = TestInput(r2=args.r2, n=args.n, k=args.k)
    bound = upper_ci_p2(observed, args.alpha, halve_alpha=not args.full_alpha)
    meta = (
        f"# r2margin ci --r2 {args.r2!r} --n {args.n} --k {args.k} --alpha {args.alpha!r}"
        + (" --full-alpha" if args.full_alpha else "")
    )
    _print_report(
        meta,
        [
            ("upper", _fmt(bound.upper, args.precision)),
            ("level", _fmt(bound.level, args.precision)),
            ("alpha", _fmt(bound.alpha_param, args.precision)),
            ("v_final", _fmt(bound.v_final, args.precision)),
            ("iterations", str(bound.iterations)),
            ("clamped", "yes" if bound.clamped else "no"),
        ],
    )
    return EXIT_OK


def _cmd_test(args) -> int:
    observed = TestInput(r2=args.r2, n=args.n, k=args.k)
    result = noninferiority_pvalue(observed, args.delta)
    meta = f"# r2margin test --r2 {args.r2!r} --n {args.n} --k {args.k} --delta {args.delta!r}"
    _print_report(
        meta,
        [
            ("p_value", _fmt(result.p_value, args.precision)),
            ("f_stat", _fmt(result.f_stat, args.precision)),
            ("v_final", _fmt(result.v_final, args.precision)),
            ("delta", _fmt(result.delta, args.precision)),
        ],
    )
    return EXIT_OK


# Float64s in one block of ``fit``'s CSV reader (2 MiB): a block holds
# max(1, 2^18 // width) rows, 52428 at the header width of 5.
_BLOCK_FLOATS = 2**18
# ASCII separators that loadtxt strips around a number as whitespace but
# ``float()`` does not; every other character is treated alike by both.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
_SCAN_CHARS = 1 << 20


class _Declined(Exception):
    """The loadtxt reader cannot vouch for a block; the per-row parser reads
    the file instead."""


def _block_rows(width: int) -> int:
    return max(1, _BLOCK_FLOATS // width)


def _loadtxt_blocks(path: str):
    """The CSV's numeric body, outcome first, in blocks of ``_block_rows``
    rows, each one ``np.loadtxt`` call on the open file.

    Raises _Declined unless the file holds none of ``_LOADTXT_ONLY_SPACE``,
    the header is a non-empty row of at least two fields, and loadtxt reads
    the body, without quotes or comments, into at least one row of exactly
    that many finite values.  Each call starts a new pass over the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            while chunk := handle.read(_SCAN_CHARS):
                if any(char in chunk for char in _LOADTXT_ONLY_SPACE):
                    raise _Declined
            handle.seek(0)
            header = next((row for row in csv.reader(handle) if row), [])
            if len(header) < 2:
                raise _Declined
            rows = _block_rows(len(header))
            empty = True
            # until a call reads no row: a short block is not known to be the
            # last, since numpy before 1.23 counts blank lines toward max_rows
            while True:
                with warnings.catch_warnings():
                    # end of file, and blank lines, which max_rows skips
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    warnings.filterwarnings("ignore", "Input line [0-9]+ contained no data")
                    block = np.loadtxt(
                        handle, delimiter=",", comments=None, ndmin=2, max_rows=rows
                    )
                if len(block) == 0:
                    if empty:  # a header-only file
                        raise _Declined
                    return
                if block.shape[1] != len(header) or not np.isfinite(block).all():
                    raise _Declined
                yield block
                empty = False
    except (OSError, ValueError, csv.Error):
        raise _Declined from None


def _row_blocks(path: str):
    """The per-row parser: csv fields, one ``float()`` per cell, in the
    blocks of ``_loadtxt_blocks``.  Raises DomainError at the first fault,
    naming the physical line of the offending row."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            rows = ((reader.line_num, row) for row in reader if row)
            _, header = next(rows, (0, []))
            first = next(rows, None)
            if first is None:
                raise DomainError("CSV must contain a header row followed by data rows")
            if len(header) < 2:
                raise DomainError("CSV needs an outcome column plus at least one covariate column")
            width, size = len(header), _block_rows(len(header))
            block = []
            for line_number, row in itertools.chain([first], rows):
                if len(row) != width:
                    raise DomainError(f"line {line_number} has {len(row)} fields, expected {width}")
                try:
                    values = [float(cell) for cell in row]
                except ValueError:
                    raise DomainError(f"line {line_number} contains a non-numeric cell") from None
                if not all(math.isfinite(v) for v in values):
                    raise DomainError(f"line {line_number} contains a non-finite value")
                block.append(values)
                if len(block) == size:
                    yield np.array(block)
                    block = []
            if block:
                yield np.array(block)
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path!r}: {exc}") from None
    except csv.Error as exc:  # e.g. a quoted cell beyond csv's field size limit
        raise DomainError(f"line {reader.line_num}: {exc}") from None


def _read_csv(path: str, reduce):
    """``reduce`` over the blocks of ``path``: loadtxt's, or the per-row
    parser's where loadtxt declines any block.  Both readers cut the same
    blocks and give the same doubles, so the result is the same."""
    try:
        return reduce(_loadtxt_blocks(path))
    except _Declined:
        return reduce(_row_blocks(path))


def _csv_r2(path: str) -> tuple[float, int, int]:
    """R2, N and K of a ``fit`` CSV: column 1 outcome, the rest covariates.

    One pass over the file's blocks folds them into the QR fit.  R2 is capped
    at the top of ``TestInput``'s range, 1 - 1e-12, the ceiling the bound
    clamps to: a perfect fit's 1.0 becomes the largest admissible R2.
    """
    fit, n = _read_csv(path, _fit_blocks)
    return min(fit.r2, _PSQ_CEILING), n, len(fit.coefficients)


def _cmd_fit(args) -> int:
    r2, n, k = _csv_r2(args.data)
    observed = TestInput(r2=r2, n=n, k=k)
    bound = upper_ci_p2(observed, args.alpha)
    # the one-sided 1 - alpha bound, which lies below the margin exactly when
    # the level-alpha test rejects
    test_bound = upper_ci_p2(observed, args.alpha, halve_alpha=False)
    result = noninferiority_pvalue(observed, args.delta)
    if result.p_value < args.alpha:
        decision = f"reject H0: P2 >= {args.delta:g} (model explains less than the margin)"
    else:
        decision = f"fail to reject H0: P2 >= {args.delta:g}"
    meta = (
        f"# r2margin fit --data {_shown(args.data)} --delta {args.delta!r} --alpha {args.alpha!r}"
    )
    _print_report(
        meta,
        [
            ("n", str(n)),
            ("k", str(k)),
            ("r2", _fmt(r2, args.precision)),
            ("ci_upper", _fmt(bound.upper, args.precision)),
            ("ci_level", _fmt(bound.level, args.precision)),
            ("test_upper", _fmt(test_bound.upper, args.precision)),
            ("p_value", _fmt(result.p_value, args.precision)),
            ("decision", decision),
        ],
    )
    return EXIT_OK


def _number(where: str, key: str, value) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # a JSON integer, whose repr can run to any length
            raise DomainError(f"{where}: {key!r} holds a number beyond the float range") from None
    raise DomainError(f"{where}: {key!r} holds a non-numeric value {value!r}")


def _load_config(path: str) -> tuple[list[Scenario], list[float]]:
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DomainError(f"config is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise DomainError("config must be a JSON object")
    unknown = set(config) - {"scenarios", "deltas"}
    if unknown:
        raise DomainError(f"config has unknown top-level keys: {sorted(unknown)}")
    raw_scenarios = config.get("scenarios")
    raw_deltas = config.get("deltas")
    if not isinstance(raw_scenarios, list) or not raw_scenarios:
        raise DomainError("config key 'scenarios' must be a non-empty list")
    if not isinstance(raw_deltas, list) or not raw_deltas:
        raise DomainError("config key 'deltas' must be a non-empty list")

    required = {"id", "n", "k", "beta", "sigma2", "sigma_offdiag"}
    scenarios = []
    for index, entry in enumerate(raw_scenarios):
        if not isinstance(entry, dict):
            raise DomainError(f"scenario {index} must be a JSON object")
        missing = required - set(entry)
        if missing:
            raise DomainError(f"scenario {index} is missing keys: {sorted(missing)}")
        unknown = set(entry) - required
        if unknown:
            raise DomainError(f"scenario {index} has unknown keys: {sorted(unknown)}")
        k = _check_int(f"scenario {index}: 'k'", entry["k"])
        if not isinstance(entry["beta"], list):
            raise DomainError(f"scenario {index}: 'beta' must be a list of numbers")
        # before the k-by-k covariance is built: beta's k entries are in memory
        if len(entry["beta"]) != k:
            raise DomainError(
                f"scenario {index}: 'beta' has {len(entry['beta'])} entries, expected k={k}"
            )
        where = f"scenario {index}"
        offdiag = _number(where, "sigma_offdiag", entry["sigma_offdiag"])
        try:
            sigma = exchangeable_covariance(k, offdiag)
        except DomainError as exc:
            raise DomainError(f"{where}: {exc}") from None
        scenarios.append(
            Scenario(
                id=entry["id"],
                n=entry["n"],
                k=k,
                beta=np.array([_number(where, "beta", b) for b in entry["beta"]]),
                sigma2=_number(where, "sigma2", entry["sigma2"]),
                sigma_matrix=sigma,
            )
        )
    if len({s.id for s in scenarios}) != len(scenarios):
        raise DomainError("scenario ids must be unique")
    deltas = [_check_open_unit("every margin", _number("config", "deltas", d)) for d in raw_deltas]
    # a repeated margin would write rows that `plot` rejects
    for i, d in enumerate(deltas):
        if d in deltas[:i]:
            raise DomainError(f"config key 'deltas' repeats the margin {d!r}")
    return scenarios, deltas


def _cmd_simulate(args) -> int:
    if args.sims < 1:
        raise DomainError(f"--sims must be a positive integer, got {args.sims}")
    if args.paper_grid:
        scenarios = paper_grid()
        deltas = default_delta_grid()
        source = "--paper-grid"
    else:
        scenarios, deltas = _load_config(args.config)
        source = f"--config {_shown(args.config)}"

    # The metadata comment carries the semantic flag set only: neither the
    # output path nor the worker count may influence the bytes written.
    meta = f"# r2margin simulate {source} --sims {args.sims} --alpha {args.alpha!r} --seed {args.seed}"
    # Opened before the grid runs; a failed run leaves it empty.
    with _output(args.out) as handle:
        results = [
            (scenario, run_scenario(scenario, deltas, args.sims, args.alpha, args.seed))
            for scenario in sorted(scenarios, key=lambda scenario: scenario.id)
        ]
        handle.write(meta + "\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for scenario, records in results:
            for r in sorted(records, key=lambda record: record.delta):
                writer.writerow(
                    [r.scenario_id, scenario.n, scenario.k, scenario.sigma2, r.true_p2,
                     r.delta, r.alpha, r.n_sims, r.rejections, r.rejection_rate,
                     r.skipped, r.master_seed]
                )
    rows = len(scenarios) * len(deltas)
    print(f"wrote {rows} rows ({len(scenarios)} scenarios) to {_shown(args.out)}")
    return EXIT_OK


def _read_results_csv(path: str) -> list[dict]:
    """The rows of a ``simulate`` CSV after its leading ``#`` lines.  A csv
    error names the physical line.  ``figures`` checks the rows."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            lines = list(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path!r}: {exc}") from None
    skipped = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    reader = csv.DictReader(lines[skipped:])
    try:
        return list(reader)
    except csv.Error as exc:  # e.g. a quoted cell beyond csv's field size limit
        # the underlying reader's count: DictReader's own lags on an error
        raise DomainError(f"line {skipped + reader.reader.line_num}: {exc}") from None


def _cmd_plot(args) -> int:
    rows = _read_results_csv(args.results)
    svg = render_rejection_figure(rows, restricted_axis=args.restricted_axis)
    with _output(args.out) as handle:
        handle.write(svg)
    print(f"wrote figure with {len(rows)} source rows to {_shown(args.out)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="r2margin",
        description=(
            "Non-inferiority testing and one-sided confidence bounds for the "
            "population share of variance explained by a linear model with "
            "random regressors."
        ),
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    ci = subparsers.add_parser("ci", help="one-sided upper confidence bound for P2")
    ci.add_argument("--r2", type=float, required=True, help="observed R-squared in [0, 1)")
    ci.add_argument("--n", type=int, required=True, help="number of observations")
    ci.add_argument("--k", type=int, required=True, help="number of covariates")
    ci.add_argument("--alpha", type=float, required=True, help="one minus the confidence level")
    ci.add_argument(
        "--full-alpha",
        action="store_true",
        help="solve p = alpha for the bound instead of the default p = alpha/2",
    )
    ci.add_argument("--precision", type=int, default=7, help="significant digits to print")
    ci.set_defaults(handler=_cmd_ci)

    test = subparsers.add_parser("test", help="non-inferiority p-value for P2 >= delta")
    test.add_argument("--r2", type=float, required=True, help="observed R-squared in [0, 1)")
    test.add_argument("--n", type=int, required=True, help="number of observations")
    test.add_argument("--k", type=int, required=True, help="number of covariates")
    test.add_argument("--delta", type=float, required=True, help="non-inferiority margin in (0, 1)")
    test.add_argument("--precision", type=int, default=7, help="significant digits to print")
    test.set_defaults(handler=_cmd_test)

    fit = subparsers.add_parser("fit", help="fit a CSV dataset and test it")
    fit.add_argument(
        "--data",
        required=True,
        help="CSV path: header row, column 1 = outcome, remaining columns = covariates",
    )
    fit.add_argument("--delta", type=float, required=True, help="non-inferiority margin in (0, 1)")
    fit.add_argument("--alpha", type=float, default=0.05, help="test level (default 0.05)")
    fit.add_argument("--precision", type=int, default=7, help="significant digits to print")
    fit.set_defaults(handler=_cmd_fit)

    simulate = subparsers.add_parser("simulate", help="rejection-rate study to CSV")
    grid = simulate.add_mutually_exclusive_group(required=True)
    grid.add_argument(
        "--paper-grid",
        action="store_true",
        help="use the built-in 30-scenario grid with the default margin grid",
    )
    grid.add_argument("--config", help="JSON scenario configuration path")
    simulate.add_argument("--sims", type=int, required=True, help="replicates per scenario")
    simulate.add_argument("--alpha", type=float, default=0.05, help="test level (default 0.05)")
    simulate.add_argument("--seed", type=int, required=True, help="master seed")
    simulate.add_argument("--out", required=True, help="output CSV path")
    simulate.set_defaults(handler=_cmd_simulate)

    plot = subparsers.add_parser("plot", help="render a simulate CSV to SVG")
    plot.add_argument("--results", required=True, help="CSV produced by the simulate subcommand")
    plot.add_argument("--out", required=True, help="output SVG path")
    plot.add_argument(
        "--restricted-axis",
        action="store_true",
        help="cap the vertical axis at 0.2 to magnify behaviour near the test level",
    )
    plot.set_defaults(handler=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 1 <= getattr(args, "precision", 1) <= _MAX_PRECISION:
            raise DomainError(
                f"--precision must lie in [1, {_MAX_PRECISION}], got {args.precision}"
            )
        # before a handler opens a file: simulate truncates --out first
        for name in ("alpha", "delta"):
            if hasattr(args, name):
                _check_open_unit(name, getattr(args, name))
        return args.handler(args)
    except R2MarginError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return DomainError.exit_code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
