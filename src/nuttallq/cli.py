"""Command-line front end: single evaluations, golden tables, sweeps, self-test.

Subcommands:
    eval      one moment evaluation by a chosen method
    table     regenerate the built-in golden reference tables (1 or 2)
    sweep     evaluate a parameter grid with one or more methods
    selftest  scan the recurrence-consistency deviation over a region

Exit codes: 0 success, 1 usage/domain error, 2 convergence failure,
3 self-test failure, 141 (128 + SIGPIPE, as a shell reports a program that
SIGPIPE ended) when the reader closes standard output early; that last
case prints nothing to standard error.  All numeric output uses 17
significant digits and identical invocations produce byte-identical
output.  A field that no route measured (the recurrences' est_error and
terms) is null in JSON, an empty CSV cell, and no line of text.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable

from .errors import ConvergenceError, DomainError
from .nuttall import (MomentQuery, consistency_deviation, homogeneous_table,
                      nuttall_q_ladder, nuttall_q_series)
from .quadrature import tanh_rule_integrate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_SELFTEST_FAIL = 3
EXIT_BROKEN_PIPE = 141

METHODS = ("series", "ladder", "homogeneous", "quadrature")

# Golden fixture, reference table 1: (eta, mu, x, y, double-precision value,
# 50-digit value) rows.
TABLE1 = (
    (1.0, 1.0, 0.1, 1.5, 0.6644091427683566, 0.66440914276835656),
    (5.0, 10.0, 0.1, 1.5, 252472.22699183668, 252472.226991836658),
    (50.0, 30.0, 0.1, 1.5, 1.1944632251434243e+86, 1.19446322514344860e+86),
    (1.0, 1.0, 1.2, 5.0, 0.5457546041478581, 0.54575460414785805),
    (5.0, 10.0, 1.2, 5.0, 419098.1927146542, 419098.192714654143),
    (50.0, 30.0, 1.2, 5.0, 6.809314196073125e+86, 6.80931419607285639e+86),
    (1.0, 1.0, 5.0, 10.0, 1.4822515303982464, 1.48225153039824667),
    (5.0, 10.0, 5.0, 10.0, 1654969.264263704, 1654969.26426370245),
    (50.0, 30.0, 5.0, 10.0, 1.1734657613338925e+89, 1.17346576133388184e+89),
)
TABLE2_ETA = 2
TABLE2_X = 2.0
TABLE2_Y = 3.0
TABLE2_NS = (10, 20, 30, 40, 50, 60)

SELFTEST_THRESHOLD = 1e-12
# Default axes of the sweep and self-test grid: the working region.
_DEFAULT_AXES = (("eta", "1:49"), ("mu", "1:50"), ("x", "0.1:20"),
                 ("y", "0.1:20"))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _fmt(v) -> str:
    """A field as text and CSV print it: a float to 17 significant digits,
    None as nothing, and a dict as ``key=value`` pairs."""
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, dict):
        return " ".join(f"{k}={_fmt(w)}" for k, w in v.items())
    return "" if v is None else str(v)


def _write_record(record: dict, fmt: str, keys: Iterable[str] = ()) -> None:
    """One record: sorted JSON, or a ``key value`` line for each of ``keys``
    (all, by default) whose value is not None."""
    if fmt == "json":
        print(json.dumps(record, sort_keys=True))
        return
    for key in keys or record:
        if record[key] is not None:
            print(key, _fmt(record[key]))


def _write_rows(header: tuple[str, ...], rows: Iterable[tuple],
                fmt: str) -> None:
    """Rows under ``header``: one JSON list, or CSV lines as they come."""
    if fmt == "json":
        print(json.dumps([dict(zip(header, row)) for row in rows]))
        return
    print(",".join(header))
    for row in rows:
        print(",".join(_fmt(v) for v in row))


def _linspace(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]


def _parse_range(text: str, steps_default: int) -> tuple[float, float, int]:
    """(lo, hi, steps) from ``lo[:hi[:steps]]``; lo <= hi and steps >= 1."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = float(parts[0])
            steps = 1
        elif len(parts) == 2:
            lo, hi, steps = float(parts[0]), float(parts[1]), steps_default
        elif len(parts) == 3:
            lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
        else:
            raise _UsageError(f"bad range {text!r}: expected lo[:hi[:steps]]")
    except ValueError as exc:
        raise _UsageError(f"bad range {text!r}: {exc}") from exc
    if not lo <= hi:
        raise _UsageError(f"bad range {text!r}: lo must be <= hi")
    if steps < 1:
        raise _UsageError(f"bad range {text!r}: steps must be >= 1, got {steps}")
    return lo, hi, steps


def _add_axes(parser: argparse.ArgumentParser) -> None:
    for name, default in _DEFAULT_AXES:
        parser.add_argument(f"--{name}", default=default,
                            help="lo[:hi[:steps]]")
    parser.add_argument("--steps", type=int, default=5,
                        help="default steps per axis")


def _axes(args) -> list[list[float]]:
    """The eta, mu, x and y grid values of a ``sweep`` or ``selftest``."""
    if args.steps < 1:
        raise _UsageError(f"--steps must be >= 1, got {args.steps}")
    return [_linspace(*_parse_range(getattr(args, name), args.steps))
            for name, _ in _DEFAULT_AXES]


def _eval_one(q: MomentQuery, method: str
              ) -> tuple[float, int | None, float | None, bool]:
    """(value, terms_or_nodes, est_error, converged) for one evaluation;
    the recurrences measure neither terms nor an error, so give None."""
    if method == "series":
        out = nuttall_q_series(q)
        return out.value, out.terms_used, out.est_error, out.converged
    if method == "quadrature":
        out = tanh_rule_integrate(q)
        return out.value, out.nodes, out.est_error, True
    # The table recurs up to mu from mu_start in (0, 1] (up to a 1e-12
    # slack); the builders check eta and the table's size.
    n_cols = max(1, math.ceil(q.mu - 1e-12))
    build = nuttall_q_ladder if method == "ladder" else homogeneous_table
    table = build(q.eta, q.mu - (n_cols - 1), n_cols, q.x, q.y)
    return table.entry(table.eta_max, n_cols - 1), None, None, True


def _cmd_eval(args) -> int:
    q = MomentQuery(args.eta, args.mu, args.x, args.y)
    value, terms, est, converged = _eval_one(q, args.method)
    record = {
        "eta": q.eta, "mu": q.mu, "x": q.x, "y": q.y,
        "method": args.method, "value": value, "est_error": est,
        "terms": terms, "converged": converged,
    }
    _write_record(record, args.format,
                  ("value", "method", "terms", "est_error", "converged"))
    if not converged:
        print("warning: series did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _table1_rows() -> list[tuple[float, ...]]:
    rows = []
    for eta, mu, x, y, _, _ in TABLE1:
        out = nuttall_q_series(MomentQuery(eta, mu, x, y))
        if not out.converged:
            raise ConvergenceError(f"table 1 series stalled at {(eta, mu, x, y)}")
        rows.append((eta, mu, x, y, out.value))
    return rows


def _table2_rows() -> list[tuple[int, float]]:
    x, y = TABLE2_X, TABLE2_Y
    table = homogeneous_table(TABLE2_ETA, 1.0, max(TABLE2_NS), x, y)
    out = []
    for n in TABLE2_NS:
        series = nuttall_q_series(MomentQuery(TABLE2_ETA, float(n), x, y))
        rel = abs(1.0 - series.value / table.entry(TABLE2_ETA, n - 1))
        out.append((n, rel))
    return out


def _cmd_table(args) -> int:
    if args.which == 1:
        _write_rows(("eta", "mu", "x", "y", "value"), _table1_rows(),
                    args.format)
    else:
        _write_rows(("N", "rel_error"), _table2_rows(), args.format)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    etas, mus, xs, ys = _axes(args)
    methods = args.methods.split(",")
    for m in methods:
        if m not in METHODS:
            raise DomainError(f"unknown method {m!r}")
    needs_integer_eta = any(m in ("ladder", "homogeneous") for m in methods)
    if needs_integer_eta and not all(float(e).is_integer() for e in etas):
        raise DomainError(
            "ladder/homogeneous sweeps require an integer eta grid")
    failures = 0

    def rows():
        nonlocal failures
        for eta, mu, x, y in itertools.product(etas, mus, xs, ys):
            q = MomentQuery(eta, mu, x, y)
            for method in methods:
                try:
                    value, terms, est, conv = _eval_one(q, method)
                except ConvergenceError:
                    failures += 1
                    continue
                if not conv:
                    failures += 1
                yield eta, mu, x, y, method, value, est, terms

    _write_rows(("eta", "mu", "x", "y", "method", "value", "est_error",
                 "terms"), rows(), "csv")
    if failures:
        print(f"warning: {failures} evaluations did not converge",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_selftest(args) -> int:
    etas, mus, xs, ys = _axes(args)
    grid = list(itertools.product(sorted(set(etas)), mus, xs, ys))
    worst, worst_at, failures = -1.0, None, 0
    for eta, mu, x, y in grid:
        try:
            dev = consistency_deviation(MomentQuery(eta, mu, x, y))
        except ConvergenceError:
            failures += 1
            continue
        if dev > worst:
            worst, worst_at = dev, {"eta": int(eta) if eta.is_integer()
                                    else eta, "mu": mu, "x": x, "y": y}
    passed = failures == 0 and worst <= SELFTEST_THRESHOLD
    record = {
        "points": len(grid),
        "convergence_failures": failures,
        "max_deviation": worst,
        "argmax": worst_at,
        "threshold": SELFTEST_THRESHOLD,
        "result": "PASS" if passed else "FAIL",
    }
    _write_record(record, args.format)
    if failures:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if passed else EXIT_SELFTEST_FAIL


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="nuttallq",
        description="Moments of the partial non-central chi-squared "
                    "distribution by series, recurrences, and quadrature.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one moment")
    for name in ("eta", "mu", "x", "y"):
        p_eval.add_argument(f"--{name}", type=float, required=True)
    p_eval.add_argument("--method", choices=METHODS, default="series")
    p_eval.add_argument("--format", choices=("text", "json"), default="text")
    p_eval.set_defaults(func=_cmd_eval)

    p_table = sub.add_parser("table", help="emit a golden reference table")
    p_table.add_argument("which", type=int, choices=(1, 2))
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(func=_cmd_table)

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter grid")
    _add_axes(p_sweep)
    p_sweep.add_argument("--methods", default="series",
                         help="comma-separated subset of "
                              "series,ladder,homogeneous,quadrature")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_self = sub.add_parser("selftest",
                            help="recurrence-consistency scan over a region")
    _add_axes(p_self)
    p_self.add_argument("--format", choices=("text", "json"), default="text")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        # Flush here, so that a reader gone away is caught below and not at
        # interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Send what is left in the buffer to /dev/null, so that the flush
        # at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
