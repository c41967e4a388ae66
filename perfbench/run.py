#!/usr/bin/env python3
"""Benchmark for nuttallq: three seeded closed-loop workloads, one per route.

Run from the repository root:

    python3 perfbench/run.py --workload series-points --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1

One process and one thread issue one op at a time; each op starts when the
previous one returns (a closed loop with one client).  A run executes a
fixed number of passes of its workload, about ``--seconds`` of work at the
speed of the commit that defined the benchmark (see ``workloads.py``), so a
faster program runs the same ops in less time.  Then it:

* reads the process's peak RSS, before any reference code is imported;
* times ``python -m nuttallq eval`` in fresh interpreters on the first op of
  pass 0 and checks that it prints the same value the library returned;
* checks a seeded sample of pass 0's values against mpmath (``reference.py``).

An op fails if it raises, does not converge, returns a non-finite value, or
has a sampled value outside the workload's tolerance.

Every reported time is in reference-host seconds: the measured time scaled
by a calibration timed alongside it (see ``hostspeed.py``), because this
shared host changes speed by up to 2x from minute to minute.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs pass 0
once plain and once under the tracer (``tracer.py``), requires bit-identical
values from both, reports the per-layer metrics and writes the spans to
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
failed check sets ``correct`` to false and still exits 0, so the figures of
that run are kept; the exit code is not 0 only when no result is printed.

``--all`` runs every workload both ways in child processes, prints each
metric with its unit, writes ``perfbench/out/results-seed<N>.json`` and
exits 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# Reference values checked per run, and fresh interpreters timed per figure.
CHECK_SAMPLE = 24
SETUP_REPEATS = 21
CHILD_TIMEOUT_S = 120
# A run stops after the pass that crosses this many raw seconds, so that a
# much slower program still finishes in time; it then runs fewer ops.
MAX_OPS_S = 120.0


def _import_package() -> None:
    if not (ROOT / "src" / "nuttallq" / "__init__.py").is_file():
        sys.exit(f"perfbench: package source src/nuttallq not found under {ROOT}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def run_pass(wl, ops: list, tracer=None) -> tuple[list, list, float]:
    """Run ops in order.

    Returns, per op, its values (None if it failed) and its reference-host
    seconds, and the raw seconds of all ops together.
    """
    from perfbench.hostspeed import ScaledTimer

    execute = wl.execute
    clock = time.perf_counter
    timer = ScaledTimer()
    values: list = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            out = execute(op)
        except Exception as exc:  # any raise is a failed op; keep running
            out = exc
        timer.add(clock() - t0)
        if isinstance(out, Exception):
            print(f"perfbench: op {i} failed: {out!r}", file=sys.stderr)
            out = None
        elif not all(map(math.isfinite, out)):
            print(f"perfbench: op {i} returned a non-finite value",
                  file=sys.stderr)
            out = None
        values.append(out)
    timer.close()
    return values, timer.scaled, timer.raw_s


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child_env() -> dict:
    path = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def _run_child(argv: list) -> tuple[float, str]:
    """Wall seconds and stdout of one fresh interpreter; raises if it fails."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr}")
    return wall, proc.stdout


def _paired_starts(argv: list) -> list[tuple[float, float, str]]:
    """(bare seconds, seconds, stdout) of SETUP_REPEATS fresh runs of
    ``argv``, after one untimed run, each right after a bare
    ``python -c pass`` that serves as its host-speed reference."""
    _run_child(argv)
    runs = []
    for _ in range(SETUP_REPEATS):
        bare, _ = _run_child(["-c", "pass"])
        runs.append((bare, *_run_child(argv)))
    return runs


def cli_setup(wl, op, expected: float) -> tuple[float, bool]:
    """Cold-start seconds of ``nuttallq eval`` on ``op``, and whether it
    printed ``expected`` exactly.

    Each start is scaled by REF_START_S over the bare start just before it:
    host speed moves both alike, so the scaled median held within 3% over
    ten batches where the raw one spread 20% (see hostspeed.py).
    """
    from perfbench.hostspeed import REF_START_S

    runs = _paired_starts(["-m", "nuttallq", "eval", *wl.cli_args(op)])
    setup_s = statistics.median(wall * REF_START_S / bare
                                for bare, wall, _ in runs)
    out = runs[0][2]
    printed = dict(line.split(" ", 1) for line in out.splitlines())
    ok = float(printed["value"]) == expected
    if not ok:
        print(f"perfbench: CLI printed {printed['value']}, library returned "
              f"{expected!r}", file=sys.stderr)
    return setup_s, ok


def check_sample(wl, seed: int, ops: list, values: list) -> list[tuple]:
    """Seeded (op index, value index) pairs: the last value and one random
    value of each sampled op, until CHECK_SAMPLE pairs are chosen."""
    rng = random.Random(f"check:{wl.name}:{seed}")
    order = [i for i in range(len(ops)) if values[i] is not None]
    rng.shuffle(order)
    picks: list[tuple] = []
    for i in order:
        n = len(values[i])
        for j in sorted({n - 1, rng.randrange(n)}):
            picks.append((i, j))
        if len(picks) >= CHECK_SAMPLE:
            break
    return picks


def check_reference(wl, seed: int, ops: list, values: list
                    ) -> tuple[set, float, int]:
    """Ops whose sampled values miss the tolerance, the worst relative
    error, and the number of values checked."""
    from perfbench import reference

    bad: set = set()
    worst = 0.0
    picks = check_sample(wl, seed, ops, values)
    for i, j in picks:
        err = reference.rel_err(values[i][j],
                                reference.nuttall_q(*wl.value_points(ops[i])[j]))
        worst = max(worst, err)
        if not err <= wl.tolerance:
            print(f"perfbench: op {i} value {j} at "
                  f"{wl.value_points(ops[i])[j]} is off by {err:.3g}",
                  file=sys.stderr)
            bad.add(i)
    return bad, worst, len(picks)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, seed: int, seconds: float) -> dict:
    """Passes 0..pass_count-1; each figure is the median over passes of
    that pass's figure."""
    from perfbench.workloads import make_pass, pass_count

    rates: list[float] = []
    p50s: list[float] = []
    p90s: list[float] = []
    attempted = failed = 0
    measured = 0.0
    n_passes = pass_count(wl, seconds)
    for k in range(n_passes):
        if measured > MAX_OPS_S:
            print(f"perfbench: stopped after {k} of {n_passes} passes, "
                  f"{measured:.1f} s", file=sys.stderr)
            break
        ops = make_pass(wl, seed, k)
        values, times, raw_s = run_pass(wl, ops)
        if k == 0:
            first_ops, first_values = ops, values
        deciles = statistics.quantiles(
            [t for t, v in zip(times, values) if v is not None], n=10)
        rates.append(len(ops) / sum(times))
        p50s.append(deciles[4])
        p90s.append(deciles[8])
        measured += raw_s
        attempted += len(ops)
        failed += values.count(None)
    rss = peak_rss_mb()

    last = first_values[0][-1] if first_values[0] else math.nan
    setup_s, cli_ok = cli_setup(wl, first_ops[0], last)
    bad, _, _ = check_reference(wl, seed, first_ops, first_values)
    failed += len(bad)
    print(f"perfbench: {wl.name} seed {seed}: {len(rates)} passes of "
          f"{wl.pass_size} ops, {attempted} ops in {measured:.1f} s, raw throughput "
          f"{attempted / measured:.6g}/s", file=sys.stderr)
    return {
        "correct": failed == 0 and cli_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "ops_per_s": _metric(statistics.median(rates), "1/s"),
            "op_p50_ms": _metric(statistics.median(p50s) * 1e3, "ms"),
            "op_p90_ms": _metric(statistics.median(p90s) * 1e3, "ms"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(rss, "MB"),
        },
    }


def _same_bits(a: list, b: list) -> bool:
    def flat(vals):
        return array("d", [v for out in vals if out is not None for v in out])
    return ([v is None for v in a] == [v is None for v in b]
            and flat(a).tobytes() == flat(b).tobytes())


_IMPORT_TIMER = ("import time; t = time.perf_counter(); import nuttallq; "
                 "print(time.perf_counter() - t)")


def per_layer(wl, seed: int) -> dict:
    from nuttallq import nuttall, quadrature
    from perfbench.tracer import SPAN_NAMES, Tracer
    from perfbench.workloads import make_pass

    ops = make_pass(wl, seed, 0)
    run_pass(wl, ops)  # warm-up
    values, plain_times, _ = run_pass(wl, ops)
    tracer = Tracer({"nuttall": nuttall, "quadrature": quadrature})
    with tracer:
        traced_values, traced_times, traced_raw_s = run_pass(wl, ops, tracer)
    identical = _same_bits(values, traced_values)
    if not identical:
        print("perfbench: traced values differ from untraced values",
              file=sys.stderr)

    bad, worst, n_checked = check_reference(wl, seed, ops, values)
    failed = values.count(None) + len(bad)
    from perfbench.hostspeed import REF_START_S

    runs = _paired_starts(["-c", _IMPORT_TIMER])
    interpreter_s = statistics.median(bare for bare, _, _ in runs)
    import_s = statistics.median(float(out) * REF_START_S / bare
                                 for bare, _, out in runs)

    n = len(ops)
    to_reference = sum(traced_times) / traced_raw_s
    calls, self_s = tracer.totals()
    by_name = dict(zip(SPAN_NAMES, calls))
    series_calls = by_name["nuttall.nuttall_q_series"]
    integrals = by_name["quadrature.tanh_rule_integrate"]
    n_values = sum(len(v) for v in values if v is not None)
    metrics = {}
    for name, c, s in zip(SPAN_NAMES, calls, self_s):
        metrics[f"{name}.calls_per_op"] = _metric(c / n, "calls/op")
        metrics[f"{name}.self_us_per_op"] = _metric(
            s * to_reference / n * 1e6, "us/op")
    metrics.update({
        "nuttall.series_terms_per_call": _metric(
            tracer.series_terms / series_calls if series_calls else 0.0,
            "terms/call"),
        "nuttall.series_converged_ratio": _metric(
            tracer.series_converged / series_calls if series_calls else 0.0,
            "ratio"),
        "nuttall.series_calls_per_value": _metric(
            series_calls / n_values if n_values else 0.0, "calls/value"),
        "quadrature.nodes_per_integral": _metric(
            tracer.node_evals / integrals if integrals else 0.0, "nodes/call"),
        "setup.interpreter_s": _metric(interpreter_s, "s"),
        "setup.import_s": _metric(import_s, "s"),
        "trace.overhead_ratio": _metric(
            sum(traced_times) / sum(plain_times), "ratio"),
        "check.max_rel_err": _metric(worst, "ratio"),
        "check.fail_ratio": _metric(failed / n, "ratio"),
        "check.sample_size": _metric(float(n_checked), "count"),
    })

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}.tsv")
    return {"correct": failed == 0 and identical, "attempted": n,
            "failed": failed, "metrics": metrics}


def _print_metrics(label: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{label:<20} {name:<44} {m['value']:<24.12g} {m['unit']}")


def run_all(seed: int, seconds: int) -> int:
    from perfbench.workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=CHILD_TIMEOUT_S * 5)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False}
            results[f"{name}/trace{trace}"] = result
            _print_metrics(name, result.get("metrics", {}))
            print(f"{name:<20} correct={result['correct']} "
                  f"attempted={result.get('attempted')} "
                  f"failed={result.get('failed')}")
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    record = {
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "results": results,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"results-seed{seed}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, plain and traced")
    args = parser.parse_args(argv)
    _import_package()
    if args.all:
        return run_all(args.seed, args.seconds)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.trace:
        result = per_layer(wl, args.seed)
    else:
        result = end_to_end(wl, args.seed, args.seconds)
    _print_metrics(wl.name, result["metrics"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
