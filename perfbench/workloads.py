"""Seeded op lists for the three workloads, and the calls that run them.

An op is one public library call (or, for the homogeneous table, the fixed
sequence of public calls that ``nuttallq table 2`` makes).  Ops come in
passes: pass k of a seed is a fixed list drawn by Latin-hypercube sampling
over the workload's parameter box, so every pass has the same mix of inputs
and no pass repeats another's points.  A run executes passes 0..n-1 to
completion, with n fixed by the workload and ``--seconds`` alone (see
``pass_count``), so every commit runs the same op list for a seed.

Every call goes through the module objects (``nuttall.nuttall_q_series``,
never a name bound at import time), so the tracer can wrap them in place.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from nuttallq import nuttall, quadrature
from nuttallq.nuttall import MomentQuery


class OpFailed(Exception):
    """An op returned without raising but did not converge."""


@dataclass(frozen=True)
class TableOp:
    """One recurrence table: rows eta = 0..eta_max, columns mu0 + m."""

    method: str  # "ladder" or "homogeneous"
    eta_max: int
    mu0: float
    n_cols: int
    x: float
    y: float


@dataclass(frozen=True)
class Workload:
    name: str
    pass_size: int
    # Ops per reference-host second on the commit that defined the benchmark.
    ref_ops_per_s: float
    tolerance: float
    make_ops: Callable[[random.Random, int], list]
    execute: Callable[[object], list]
    # (eta, mu, x, y) of each value ``execute`` returns for an op.
    value_points: Callable[[object], list]
    # ``nuttallq eval`` arguments whose printed value equals the op's last value.
    cli_args: Callable[[object], list]


def _strata(rng: random.Random, n: int) -> list[float]:
    """n draws from [0, 1), one in each of n equal strata, in random order."""
    cells = list(range(n))
    rng.shuffle(cells)
    return [(c + rng.random()) / n for c in cells]


def _labels(rng: random.Random, n: int,
            shares: tuple[tuple[str, float], ...]) -> list[str]:
    """n labels in the given proportions (rounded), in random order."""
    out: list[str] = []
    cum = 0.0
    for label, share in shares:
        cum += share
        out += [label] * (round(cum * n) - len(out))
    rng.shuffle(out)
    return out


_ETA_SHARES = (("marcum", 0.2), ("integer", 0.4), ("real", 0.4))
_EDGE_SHARES = (("x0", 0.04), ("y0", 0.04), ("interior", 0.92))


def _points(rng: random.Random, n: int) -> list[MomentQuery]:
    """Points of the working region: eta = 0, integer eta in 1..50 or real
    eta in [0, 50]; mu in [1, 50]; x, y in [0, 20], a few exactly 0."""
    kinds = _labels(rng, n, _ETA_SHARES)
    edges = _labels(rng, n, _EDGE_SHARES)
    u_eta, u_mu, u_x, u_y = (_strata(rng, n) for _ in range(4))
    out = []
    for i in range(n):
        if kinds[i] == "marcum":
            eta = 0.0
        elif kinds[i] == "integer":
            eta = float(1 + int(50 * u_eta[i]))
        else:
            eta = 50.0 * u_eta[i]
        x = 0.0 if edges[i] == "x0" else 20.0 * u_x[i]
        y = 0.0 if edges[i] == "y0" else 20.0 * u_y[i]
        out.append(MomentQuery(eta, 1.0 + 49.0 * u_mu[i], x, y))
    return out


def _tables(rng: random.Random, n: int) -> list[TableOp]:
    """Tables with eta_max in 1..10, mu0 in {0.5, 1}, n_cols in 10..50 and
    x, y in [0.1, 20]; ops alternate ladder and homogeneous fill."""
    mu0s = _labels(rng, n, (("0.5", 0.5), ("1", 0.5)))
    u_eta, u_cols, u_x, u_y = (_strata(rng, n) for _ in range(4))
    return [TableOp("ladder" if i % 2 == 0 else "homogeneous",
                    1 + int(10 * u_eta[i]), float(mu0s[i]),
                    10 + int(41 * u_cols[i]),
                    0.1 + 19.9 * u_x[i], 0.1 + 19.9 * u_y[i])
            for i in range(n)]


def _series(q: MomentQuery) -> list[float]:
    out = nuttall.nuttall_q_series(q)
    if not out.converged:
        raise OpFailed(f"series did not converge at {q}")
    return [out.value]


def _quadrature(q: MomentQuery) -> list[float]:
    return [quadrature.moment_by_quadrature(q)]


def _table(op: TableOp) -> list[float]:
    """All (eta_max + 1) * n_cols entries, row by row."""
    if op.method == "ladder":
        table = nuttall.nuttall_q_ladder(op.eta_max, op.mu0, op.n_cols,
                                         op.x, op.y)
        return [v for row in table.values for v in row]
    row = [nuttall.marcum_q(op.mu0 + m, op.x, op.y) for m in range(op.n_cols)]
    values = list(row)
    for e in range(1, op.eta_max + 1):
        s0 = nuttall.nuttall_q_series(MomentQuery(e, op.mu0, op.x, op.y))
        s1 = nuttall.nuttall_q_series(MomentQuery(e, op.mu0 + 1.0, op.x, op.y))
        if not (s0.converged and s1.converged):
            raise OpFailed(f"homogeneous seed series did not converge at {op}")
        row = nuttall.nuttall_q_homogeneous(e, row, s0.value, s1.value,
                                            op.x, op.y, op.mu0, op.n_cols)
        values.extend(row)
    return values


def _point_of(q: MomentQuery) -> list[tuple[float, float, float, float]]:
    return [(q.eta, q.mu, q.x, q.y)]


def _table_points(op: TableOp) -> list[tuple[float, float, float, float]]:
    return [(float(e), op.mu0 + m, op.x, op.y)
            for e in range(op.eta_max + 1) for m in range(op.n_cols)]


def _point_cli(method: str) -> Callable[[MomentQuery], list]:
    def args(q: MomentQuery) -> list:
        return ["--eta", repr(q.eta), "--mu", repr(q.mu), "--x", repr(q.x),
                "--y", repr(q.y), "--method", method]
    return args


def _table_cli(op: TableOp) -> list:
    # The CLI's recurrences start at mu - floor(mu) and span n_cols columns,
    # so the value it prints is this table's last entry.
    return ["--eta", str(op.eta_max), "--mu", repr(op.mu0 + op.n_cols - 1),
            "--x", repr(op.x), "--y", repr(op.y), "--method", op.method]


WORKLOADS = {
    "series-points": Workload(
        "series-points", 2000, 8100.0, 1e-12,
        _points, _series, _point_of, _point_cli("series")),
    "recurrence-tables": Workload(
        "recurrence-tables", 100, 168.0, 1e-12,
        _tables, _table, _table_points, _table_cli),
    "quadrature-points": Workload(
        "quadrature-points", 100, 36.0, 1e-10,
        _points, _quadrature, _point_of, _point_cli("quadrature")),
}


def pass_count(workload: Workload, seconds: float) -> int:
    """Passes a run executes: about ``seconds`` of work at the defining
    commit's speed.  It does not depend on how fast the program runs now."""
    return max(1, round(seconds * workload.ref_ops_per_s / workload.pass_size))


def make_pass(workload: Workload, seed: int, k: int) -> list:
    """Pass k of a seed: the same list on every call with the same arguments."""
    rng = random.Random(f"{workload.name}:{seed}:{k}")
    return workload.make_ops(rng, workload.pass_size)
