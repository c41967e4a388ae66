"""Command-line front end: single evaluations, golden tables, sweeps, self-test.

Subcommands:
    eval      one moment evaluation by a chosen method
    table     regenerate the built-in golden reference tables (1 or 2)
    sweep     evaluate a parameter grid with one or more methods
    selftest  scan the recurrence-consistency deviation over a region

This module holds the parser, ``eval`` and the output helpers; the bodies
of ``table``, ``sweep`` and ``selftest`` live in ``grid``, which loads
only when one of them runs.

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
import os
import sys
from collections.abc import Iterable

from .errors import ConvergenceError, DomainError, UsageError
from .query import METHODS, MomentQuery, evaluate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_SELFTEST_FAIL = 3
EXIT_BROKEN_PIPE = 141

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
# Default axes of the sweep and self-test grid: the working region.
_DEFAULT_AXES = (("eta", "1:49"), ("mu", "1:50"), ("x", "0.1:20"),
                 ("y", "0.1:20"))


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def format_field(v) -> str:
    """A field as text and CSV print it: a float to 17 significant digits,
    None as nothing, and a dict as ``key=value`` pairs."""
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, dict):
        return " ".join(f"{k}={format_field(w)}" for k, w in v.items())
    return "" if v is None else str(v)


def write_record(record: dict, fmt: str, keys: Iterable[str] = ()) -> None:
    """One record: sorted JSON, or a ``key value`` line for each of ``keys``
    (all, by default) whose value is not None."""
    if fmt == "json":
        import json
        print(json.dumps(record, sort_keys=True))
        return
    for key in keys or record:
        if record[key] is not None:
            print(key, format_field(record[key]))


def _add_axes(parser: argparse.ArgumentParser) -> None:
    for name, default in _DEFAULT_AXES:
        parser.add_argument(f"--{name}", default=default,
                            help="lo[:hi[:steps]]")
    parser.add_argument("--steps", type=int, default=5,
                        help="default steps per axis")


def _cmd_eval(args) -> int:
    q = MomentQuery(args.eta, args.mu, args.x, args.y)
    ev = evaluate(q, args.method)
    write_record({**q._asdict(), **ev._asdict()}, args.format, ev._fields)
    if not ev.converged:
        print("warning: series did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_grid(args) -> int:
    """``table``, ``sweep`` or ``selftest``, from ``grid``, which loads
    here: ``eval`` does not compile them."""
    from . import grid
    return getattr(grid, args.command)(args)


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
    p_table.set_defaults(func=_cmd_grid)

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter grid")
    _add_axes(p_sweep)
    p_sweep.add_argument("--methods", default="series",
                         help="comma-separated subset of "
                              "series,ladder,homogeneous,quadrature")
    p_sweep.set_defaults(func=_cmd_grid)

    p_self = sub.add_parser("selftest",
                            help="recurrence-consistency scan over a region")
    _add_axes(p_self)
    p_self.add_argument("--format", choices=("text", "json"), default="text")
    p_self.set_defaults(func=_cmd_grid)
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
    except UsageError as exc:
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
