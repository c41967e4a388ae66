"""Tests of the benchmark itself: seeded inputs, tracer, and checker."""

from __future__ import annotations

import types

import pytest

from nuttallq import nuttall, quadrature
from perfbench import run
from perfbench.tracer import SPAN_NAMES, Tracer
from perfbench.workloads import WORKLOADS, make_pass

# Small passes keep each test well under a second.
SMALL = {"series-points": 40, "recurrence-tables": 4, "quadrature-points": 2}


def _modules():
    return {"nuttall": nuttall, "quadrature": quadrature}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    wl = WORKLOADS[name]
    assert make_pass(wl, 7, 0) == make_pass(wl, 7, 0)
    assert make_pass(wl, 7, 0) != make_pass(wl, 8, 0)
    assert make_pass(wl, 7, 0) != make_pass(wl, 7, 1)
    assert len(make_pass(wl, 7, 0)) == wl.pass_size


def test_point_mix_keeps_its_shares():
    ops = make_pass(WORKLOADS["series-points"], 3, 0)
    assert sum(q.eta == 0.0 for q in ops) == 400
    assert sum(q.x == 0.0 for q in ops) == 80
    assert sum(q.y == 0.0 for q in ops) == 80
    assert all(1.0 <= q.mu <= 50.0 and q.x <= 20.0 and q.y <= 20.0
               for q in ops)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_values_are_bit_identical(name):
    wl = WORKLOADS[name]
    ops = make_pass(wl, 5, 0)[:SMALL[name]]
    plain, _, _ = run.run_pass(wl, ops)
    originals = {attr: getattr(nuttall, attr) for attr in dir(nuttall)}
    tracer = Tracer(_modules())
    with tracer:
        traced, times, _ = run.run_pass(wl, ops, tracer)
    assert None not in plain
    assert len(times) == len(ops) and min(times) > 0.0
    assert run._same_bits(plain, traced)
    assert {attr: getattr(nuttall, attr) for attr in dir(nuttall)} == originals
    calls, _ = tracer.totals()
    assert sum(calls) > 0
    assert set(tracer.op) == set(range(len(ops)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_counts_repeat_exactly(name):
    wl = WORKLOADS[name]
    ops = make_pass(wl, 11, 0)[:SMALL[name]]

    def counts():
        tracer = Tracer(_modules())
        with tracer:
            run.run_pass(wl, ops, tracer)
        return (tracer.totals()[0], tracer.series_terms,
                tracer.series_converged, tracer.node_evals)

    assert counts() == counts()


def test_self_time_excludes_children():
    wl = WORKLOADS["recurrence-tables"]
    ops = make_pass(wl, 2, 0)[:2]
    tracer = Tracer(_modules())
    with tracer:
        _, _, raw_s = run.run_pass(wl, ops, tracer)
    calls, self_s = tracer.totals()
    by_name = dict(zip(SPAN_NAMES, calls))
    assert by_name["nuttall.nuttall_q_ladder"] == 1
    assert by_name["nuttall.marcum_q"] > 0
    assert all(s >= 0.0 for s in self_s)
    assert 0.0 < sum(self_s) <= raw_s


def test_missing_boundary_reports_zero_calls():
    wl = WORKLOADS["quadrature-points"]
    ops = make_pass(wl, 1, 0)[:1]
    tracer = Tracer({"nuttall": types.ModuleType("nuttall"),
                     "quadrature": quadrature})
    with tracer:
        values, _, _ = run.run_pass(wl, ops, tracer)
    calls, _ = tracer.totals()
    by_name = dict(zip(SPAN_NAMES, calls))
    assert None not in values
    assert by_name["nuttall.nuttall_q_series"] == 0
    assert by_name["quadrature.tanh_rule_integrate"] == 1
    assert tracer.node_evals > 0


def test_checker_flags_a_perturbed_value():
    pytest.importorskip("mpmath")
    wl = WORKLOADS["series-points"]
    ops = make_pass(wl, 4, 0)[:4]
    values, _, _ = run.run_pass(wl, ops)
    bad, worst, n_checked = run.check_reference(wl, 4, ops, values)
    assert bad == set() and worst <= wl.tolerance and n_checked == len(ops)

    i, j = run.check_sample(wl, 4, ops, values)[0]
    values[i] = list(values[i])
    values[i][j] *= 1.0 + 1e-9
    bad, worst, _ = run.check_reference(wl, 4, ops, values)
    assert bad == {i}
    assert worst > wl.tolerance
