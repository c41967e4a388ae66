"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.
"""

import math
import time

from nuttallq import (MomentQuery, bessel_ratio, consistency_deviation,
                      homogeneous_table, log_q_increment, marcum_q,
                      moment_by_quadrature, nuttall_q_ladder,
                      nuttall_q_series)
from nuttallq.cli import TABLE1
from nuttallq.incgamma import q_with_log_increment

from oracles import bessel_ratio_by_series


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_table1_series_reproduction():
    t0 = time.perf_counter()
    worst = 0.0
    for eta, mu, x, y, val_dp, val_ref in TABLE1:
        out = nuttall_q_series(MomentQuery(eta, mu, x, y))
        assert out.converged
        worst = max(worst, abs(out.value / val_dp - 1.0),
                    abs(out.value / val_ref - 1.0))
    elapsed = time.perf_counter() - t0
    _report("1 table-1 series reproduction",
            worst <= 5e-14 and elapsed < 1.0,
            f"max rel err {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_table2_recurrence_reproduction():
    t0 = time.perf_counter()
    x, y = 2.0, 3.0
    row = homogeneous_table(2, 1.0, 60, x, y).values[2]
    worst = 0.0
    for n in (10, 20, 30, 40, 50, 60):
        series = nuttall_q_series(MomentQuery(2.0, float(n), x, y)).value
        worst = max(worst, abs(1.0 - series / row[n - 1]))
    elapsed = time.perf_counter() - t0
    _report("2 table-2 recurrence reproduction",
            worst <= 1e-13 and elapsed < 1.0,
            f"max E_r {worst:.3e}, {elapsed:.2f}s")


def test_criterion_3_region_selftest():
    t0 = time.perf_counter()
    etas = [1, 13, 25, 37, 49]
    mus = [1.0, 13.25, 25.5, 37.75, 50.0]
    xs = [0.1, 5.075, 10.05, 15.025, 20.0]
    ys = [0.1, 5.075, 10.05, 15.025, 20.0]
    worst = -1.0
    worst_at = None
    for eta in etas:
        for mu in mus:
            for x in xs:
                for y in ys:
                    dev = consistency_deviation(MomentQuery(float(eta), mu, x, y))
                    if dev > worst:
                        worst, worst_at = dev, (eta, mu, x, y)
    elapsed = time.perf_counter() - t0
    _report("3 region self-test (5^4 grid)",
            worst <= 1e-12 and elapsed < 10.0,
            f"max deviation {worst:.3e} at {worst_at}, {elapsed:.2f}s")


def test_criterion_4_quadrature_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for eta, mu, x, y, _, _ in TABLE1:
        q = MomentQuery(eta, mu, x, y)
        quad = moment_by_quadrature(q)
        series = nuttall_q_series(q).value
        worst = max(worst, abs(quad / series - 1.0))
    elapsed = time.perf_counter() - t0
    _report("4 quadrature oracle equivalence",
            worst <= 1e-10 and elapsed < 30.0,
            f"max rel diff {worst:.3e}, {elapsed:.2f}s")


def test_criterion_5_property_suites():
    # Incomplete-gamma forward chain of length 100 vs direct evaluation.
    chain_worst = 0.0
    for mu0, y in ((1.0, 1.5), (0.7, 80.0)):
        q = q_with_log_increment(mu0, y)[0]
        shape = mu0
        for _ in range(100):
            q = q + math.exp(log_q_increment(shape, y))
            shape += 1.0
        chain_worst = max(chain_worst,
                          abs(q / q_with_log_increment(shape, y)[0] - 1.0))

    # Bessel ratio continued fraction vs independent series quotient.
    cf_worst = 0.0
    for mu in (0.0, 0.5, 1.0, 5.0, 15.0, 30.0, 45.0, 60.0):
        for z in (0.01, 0.5, 2.0, 8.0, 16.0, 24.0, 30.0):
            cf_worst = max(cf_worst, abs(
                bessel_ratio(mu, z) / bessel_ratio_by_series(mu, z) - 1.0))

    # Monotonicity of the moment in y and of Q_mu(y) in both arguments.
    # Where Q saturates to exactly 1.0 in doubles, equality is the correct
    # floating-point outcome; strictness is required away from that plateau.
    mono_ok = True
    ys = [0.1, 2.0, 6.0, 12.0, 20.0]
    for eta, mu, x in ((1.0, 1.0, 0.5), (4.0, 2.5, 5.0), (5.0, 10.0, 5.0)):
        vals = [nuttall_q_series(MomentQuery(eta, mu, x, y)).value for y in ys]
        mono_ok &= all(a > b or a == b == vals[0]
                       for a, b in zip(vals, vals[1:]))
        mono_ok &= vals[0] > vals[-1]
    shapes = [0.5, 2.0, 8.0, 25.0, 100.0]
    cuts = [0.5, 2.0, 8.0, 25.0, 100.0]
    for mu in shapes:
        vals = [q_with_log_increment(mu, y)[0] for y in cuts]
        mono_ok &= all(a > b or a == b == 1.0 for a, b in zip(vals, vals[1:]))
        mono_ok &= vals[0] > vals[-1]
    for y in cuts:
        vals = [q_with_log_increment(mu, y)[0] for mu in shapes]
        mono_ok &= all(a < b or a == b == 1.0 for a, b in zip(vals, vals[1:]))
        mono_ok &= vals[0] < vals[-1]

    # Marcum reduction at y = 0.
    marcum_worst = max(abs(marcum_q(mu, x, 0.0) - 1.0)
                       for mu in (1.0, 2.5, 10.0, 50.0)
                       for x in (0.1, 1.0, 10.0, 20.0))

    ok = (chain_worst <= 1e-12 and cf_worst <= 1e-14 and mono_ok
          and marcum_worst <= 1e-14)
    _report("5 property suites", ok,
            f"chain {chain_worst:.3e}, cf {cf_worst:.3e}, "
            f"monotone {mono_ok}, marcum {marcum_worst:.3e}")


def test_criterion_6_degenerate_inputs():
    ok = True
    detail = []

    # y = 0 reductions.
    v = nuttall_q_series(MomentQuery(0.0, 2.0, 3.0, 0.0)).value
    ok &= v == 1.0
    detail.append(f"Q(0,2,3,0)={v}")
    v = marcum_q(4.0, 7.0, 0.0)
    ok &= v == 1.0

    # x = 0 reductions.
    v = nuttall_q_series(MomentQuery(2.0, 1.0, 0.0, 1.0)).value
    ok &= math.isclose(v, 5.0 * math.exp(-1.0), rel_tol=2e-15)
    detail.append(f"Q(2,1,0,1) rel err "
                  f"{abs(v / (5.0 * math.exp(-1.0)) - 1.0):.2e}")
    v = marcum_q(1.0, 0.0, 2.0)
    ok &= math.isclose(v, math.exp(-2.0), rel_tol=2e-15)

    # x = 0 is an ordinary point of both recurrences: never a wrong number,
    # every entry matches the series.
    worst = 0.0
    for build in (nuttall_q_ladder, homogeneous_table):
        table = build(2, 1.0, 5, 0.0, 3.0)
        for e in range(3):
            for m in range(5):
                ref = nuttall_q_series(MomentQuery(e, 1.0 + m, 0.0, 3.0)).value
                worst = max(worst, abs(table.entry(e, m) / ref - 1.0))
    ok &= worst <= 1e-13
    detail.append(f"x=0 tables rel err {worst:.2e}")

    _report("6 degenerate-input suite", ok, "; ".join(detail))
