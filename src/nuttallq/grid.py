"""The CLI's ``table``, ``sweep`` and ``selftest`` commands.

``cli`` imports this module only when one of them runs, so that ``eval``
does not compile it.  ``table 2`` and ``selftest`` import the recurrences
where they run them, and the tables the series; ``table 1`` runs the
series alone.  A sweep reaches each route through ``evaluate``, so a
quadrature sweep compiles no series.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterable

from .cli import (EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_SELFTEST_FAIL,
                  EXIT_USAGE, TABLE1, format_field, write_record)
from .errors import ConvergenceError, DomainError, UsageError
from .query import METHODS, MomentQuery, evaluate

TABLE2_ETA = 2
TABLE2_X = 2.0
TABLE2_Y = 3.0
TABLE2_NS = (10, 20, 30, 40, 50, 60)

SELFTEST_THRESHOLD = 1e-12


def _write_rows(header: tuple[str, ...], rows: Iterable[tuple],
                fmt: str) -> None:
    """Rows under ``header``: one JSON list, or CSV lines as they come."""
    if fmt == "json":
        import json
        print(json.dumps([dict(zip(header, row)) for row in rows]))
        return
    print(",".join(header))
    for row in rows:
        print(",".join(format_field(v) for v in row))


def _linspace(lo: float, hi: float, steps: int) -> list[float]:
    """``steps`` points from ``lo`` to ``hi``, which end the axis exactly:
    neither is formed from (hi - lo), which can round, overflow or be nan."""
    if steps == 1:
        return [lo]
    inner = (lo + i * (hi - lo) / (steps - 1) for i in range(1, steps - 1))
    return [lo, *inner, hi]


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
            raise UsageError(f"bad range {text!r}: expected lo[:hi[:steps]]")
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}: {exc}") from exc
    if not lo <= hi:
        raise UsageError(f"bad range {text!r}: lo must be <= hi")
    if steps < 1:
        raise UsageError(f"bad range {text!r}: steps must be >= 1, got {steps}")
    return lo, hi, steps


def _axes(args) -> list[list[float]]:
    """The eta, mu, x and y grid values of a ``sweep`` or ``selftest``."""
    if args.steps < 1:
        raise UsageError(f"--steps must be >= 1, got {args.steps}")
    return [_linspace(*_parse_range(getattr(args, name), args.steps))
            for name in MomentQuery._fields]


def _table1_rows() -> list[tuple[float, ...]]:
    from .nuttall import nuttall_q_series
    rows = []
    for eta, mu, x, y, _, _ in TABLE1:
        out = nuttall_q_series(MomentQuery(eta, mu, x, y))
        if not out.converged:
            raise ConvergenceError(f"table 1 series stalled at {(eta, mu, x, y)}")
        rows.append((eta, mu, x, y, out.value))
    return rows


def _table2_rows() -> list[tuple[int, float]]:
    """(N, |1 - series / table|) at mu = N; a series that stalls raises
    ConvergenceError, as in ``table 1``, before anything is printed."""
    from .nuttall import series_value
    from .recurrence import homogeneous_table
    x, y = TABLE2_X, TABLE2_Y
    table = homogeneous_table(TABLE2_ETA, 1.0, max(TABLE2_NS), x, y)
    return [(n, abs(1.0 - series_value(TABLE2_ETA, float(n), x, y)
                    / table.entry(TABLE2_ETA, n - 1))) for n in TABLE2_NS]


def _check_grid(axes: list[list[float]]) -> None:
    """Raise the DomainError of the first grid point, in product order,
    that ``MomentQuery`` refuses, without building the grid.

    ``MomentQuery`` checks each field against an interval of its own, so a
    point is refused where one of its values is.  The first refused point
    then takes the first refused value of the last axis that holds one,
    and the first value of every other axis; checking the axes from the
    last back, each value with the others at their first, meets it first.
    """
    first = [axis[0] for axis in axes]
    for k in reversed(range(len(axes))):
        for v in axes[k]:
            MomentQuery(*first[:k], v, *first[k + 1:])


def table(args) -> int:
    if args.which == 1:
        _write_rows(("eta", "mu", "x", "y", "value"), _table1_rows(),
                    args.format)
    else:
        _write_rows(("N", "rel_error"), _table2_rows(), args.format)
    return EXIT_OK


def sweep(args) -> int:
    axes = _axes(args)
    methods = args.methods.split(",")
    for m in methods:
        if m not in METHODS:
            raise DomainError(f"unknown method {m!r}")
    # Every point is checked before the header is printed; each query is
    # built as it is evaluated.  A route's refusal of a point leaves out
    # its row and is counted, as a convergence failure is.
    _check_grid(axes)
    failures = refused = 0
    first_refusal = None

    def rows():
        nonlocal failures, refused, first_refusal
        for point in itertools.product(*axes):
            q = MomentQuery(*point)
            for method in methods:
                try:
                    ev = evaluate(q, method)
                except ConvergenceError:
                    failures += 1
                    continue
                except DomainError as exc:
                    refused += 1
                    first_refusal = first_refusal or exc
                    continue
                if not ev.converged:
                    failures += 1
                yield *q, method, ev.value, ev.est_error, ev.terms

    _write_rows(("eta", "mu", "x", "y", "method", "value", "est_error",
                 "terms"), rows(), "csv")
    if failures:
        print(f"warning: {failures} evaluations did not converge",
              file=sys.stderr)
    if refused:
        print(f"domain error: {refused} evaluations were refused; "
              f"the first: {first_refusal}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_NO_CONVERGENCE if failures else EXIT_OK


def selftest(args) -> int:
    from .recurrence import consistency_deviation
    axes = _axes(args)
    worst, worst_at, failures = -1.0, None, 0
    for eta, mu, x, y in itertools.product(*axes):
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
        "points": math.prod(map(len, axes)),
        "convergence_failures": failures,
        "max_deviation": None if worst_at is None else worst,
        "argmax": worst_at,
        "threshold": SELFTEST_THRESHOLD,
        "result": "PASS" if passed else "FAIL",
    }
    write_record(record, args.format)
    if failures:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if passed else EXIT_SELFTEST_FAIL
