"""Tests for the command-line interface: formats, exit codes, determinism."""

import ast
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import nuttallq
from nuttallq import (DomainError, Evaluation, MomentQuery,
                      homogeneous_table, tanh_rule_integrate)
from nuttallq import cli, grid, nuttall, recurrence
from nuttallq.cli import (EXIT_BROKEN_PIPE, EXIT_NO_CONVERGENCE, EXIT_OK,
                          EXIT_SELFTEST_FAIL, EXIT_USAGE, main)

from test_quadrature import pass_points


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if l]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_eval_series_golden_value(capsys):
    # sweep is the one CSV writer; at one point it prints eval's record.
    code, out, _ = run(capsys, "sweep", "--eta", "1", "--mu", "1",
                       "--x", "0.1", "--y", "1.5")
    assert code == EXIT_OK
    row = parse_csv(out)[0]
    assert float(row["value"]) == pytest.approx(0.6644091427683566, rel=5e-14, abs=0.0)
    assert row["method"] == "series"


def _eval_at_mu_one(capsys, monkeypatch, method):
    # At mu <= 1 the table has one column, and its eta = 1 entry is stepped
    # up from row 0, not a copy of a series value.
    calls = []
    series = nuttall.nuttall_q_series

    def counted(q):
        calls.append(q)
        return series(q)

    monkeypatch.setattr(nuttall, "nuttall_q_series", counted)
    code, out, _ = run(capsys, "eval", "--eta", "1", "--mu", "1", "--x", "0.1",
                       "--y", "1.5", "--method", method, "--format", "json")
    assert code == EXIT_OK
    assert [(q.eta, q.mu) for q in calls] == [(0.0, 1.0)]
    assert json.loads(out)["value"] == pytest.approx(0.6644091427683566,
                                                     rel=1e-13, abs=0.0)


def test_eval_ladder_recurs_at_mu_one(capsys, monkeypatch):
    _eval_at_mu_one(capsys, monkeypatch, "ladder")


def test_eval_homogeneous_recurs_at_mu_one(capsys, monkeypatch):
    # The homogeneous table's one-column boundary is the ladder's.
    _eval_at_mu_one(capsys, monkeypatch, "homogeneous")


def test_eval_trivial_full_half_line(capsys):
    code, out, _ = run(capsys, "eval", "--eta", "0", "--mu", "4",
                       "--x", "7", "--y", "0", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["value"] == 1.0


def test_eval_quadrature_matches_series(capsys):
    args = ("--eta", "2", "--mu", "5", "--x", "2", "--y", "3", "--format", "json")
    code1, out1, _ = run(capsys, "eval", *args, "--method", "quadrature")
    code2, out2, _ = run(capsys, "eval", *args, "--method", "series")
    assert code1 == code2 == EXIT_OK
    v1 = json.loads(out1)["value"]
    v2 = json.loads(out2)["value"]
    assert v1 == pytest.approx(v2, rel=1e-10, abs=0.0)


def test_eval_quadrature_reports_nodes_as_terms(capsys):
    code, out, _ = run(capsys, "eval", "--eta", "2", "--mu", "5", "--x", "2",
                       "--y", "3", "--method", "quadrature", "--format", "json")
    assert code == EXIT_OK
    q = MomentQuery(2.0, 5.0, 2.0, 3.0)
    outcome = tanh_rule_integrate(q)
    record = json.loads(out)
    assert record["terms"] == outcome.nodes
    assert record["value"] == outcome.value
    assert record["est_error"] == outcome.est_error


EVAL_POINT = ("eval", "--eta", "4", "--mu", "12.5", "--x", "7", "--y", "9")


@pytest.mark.parametrize("method", cli.METHODS)
def test_eval_text_lines_are_key_value_pairs(capsys, method):
    # A reader may split each line once at its first space, as
    # perfbench/run.py does: no line is a bare key, and the value read back
    # is the JSON value.
    code, text, _ = run(capsys, *EVAL_POINT, "--method", method)
    assert code == EXIT_OK
    fields = dict(line.split(" ", 1) for line in text.splitlines())
    _, out, _ = run(capsys, *EVAL_POINT, "--method", method,
                    "--format", "json")
    record = json.loads(out)
    assert float(fields["value"]) == record["value"]
    assert fields["method"] == method
    assert list(fields) == [k for k in ("value", "method", "terms",
                                        "est_error", "converged")
                            if record[k] is not None]


@pytest.mark.parametrize("method", ["ladder", "homogeneous"])
def test_eval_recurrences_report_no_terms_or_error(capsys, method):
    # Neither recurrence measures its work or its error: nothing is printed
    # in their place.
    code, out, _ = run(capsys, *EVAL_POINT, "--method", method,
                       "--format", "json")
    assert code == EXIT_OK
    assert '"est_error": null' in out and '"terms": null' in out
    _, text, _ = run(capsys, *EVAL_POINT, "--method", method)
    assert [line.split()[0] for line in text.splitlines()] == [
        "value", "method", "converged"]


def test_sweep_leaves_the_recurrences_unmeasured_cells_empty(capsys):
    code, out, _ = run(capsys, "sweep", *EVAL_POINT[1:], "--methods",
                       "series,ladder,homogeneous,quadrature")
    assert code == EXIT_OK
    rows = {r["method"]: r for r in parse_csv(out)}
    for method in ("ladder", "homogeneous"):
        assert rows[method]["est_error"] == rows[method]["terms"] == ""
    for method in ("series", "quadrature"):
        assert float(rows[method]["est_error"]) >= 0.0
        assert int(rows[method]["terms"]) >= 1


@pytest.mark.parametrize("eta,mu,x,y,mu_start,n_cols", [
    (2, 7.5, 2.0, 3.0, 0.5, 8),
    (3, 4.0, 0.7, 9.0, 1.0, 4),
    (1, 1.0, 5.0, 2.0, 1.0, 1),
])
def test_eval_homogeneous_prints_the_table_entry(capsys, eta, mu, x, y,
                                                 mu_start, n_cols):
    code, out, _ = run(capsys, "eval", "--eta", str(eta), "--mu", repr(mu),
                       "--x", repr(x), "--y", repr(y),
                       "--method", "homogeneous", "--format", "json")
    assert code == EXIT_OK
    table = homogeneous_table(eta, mu_start, n_cols, x, y)
    assert json.loads(out)["value"] == table.entry(eta, n_cols - 1)


@pytest.mark.parametrize(
    "module", sorted(p.name for p in Path(nuttallq.__file__).parent.glob("*.py")))
def test_module_imports_no_private_names(module):
    path = Path(nuttallq.__file__).parent / module
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names += [a.name for a in node.names]
            names += (node.module or "").split(".")
        elif isinstance(node, ast.Import):
            names += [part for a in node.names for part in a.name.split(".")]
    assert not [n for n in names if n.startswith("_") and n != "__future__"]


def test_eval_text_format_has_17_digit_roundtrip(capsys):
    code, out, _ = run(capsys, "eval", "--eta", "1", "--mu", "2",
                       "--x", "3", "--y", "4")
    assert code == EXIT_OK
    value_line = next(l for l in out.splitlines() if l.startswith("value "))
    text = value_line.split()[1]
    assert float(text) == float(format(float(text), ".17g"))


def test_eval_non_convergence_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(nuttall, "_MAX_TERMS", 4)
    code, _, err = run(capsys, "eval", "--eta", "2", "--mu", "2",
                       "--x", "15", "--y", "3")
    assert code == EXIT_NO_CONVERGENCE
    assert err == "warning: series did not converge\n"


@pytest.mark.parametrize("flag", ["--tol=1e-12", "--max-terms=500"])
@pytest.mark.parametrize("command", [
    ["eval", "--eta", "1", "--mu", "2", "--x", "3", "--y", "4"],
    ["table", "1"],
    ["sweep", "--steps", "1"],
    ["selftest", "--steps", "1"],
], ids=["eval", "table", "sweep", "selftest"])
def test_removed_tolerance_flags_are_usage_errors(capsys, command, flag):
    code, out, err = run(capsys, *command, flag)
    assert code == EXIT_USAGE
    assert out == "" and "usage error" in err


def test_eval_csv_format_is_a_usage_error(capsys):
    # A one-point CSV row comes from sweep.
    code, out, err = run(capsys, "eval", "--eta", "1", "--mu", "2", "--x", "3",
                         "--y", "4", "--format", "csv")
    assert code == EXIT_USAGE
    assert out == "" and "usage error" in err


def test_eval_ladder_x_zero_matches_the_series(capsys):
    values = {}
    for method in ("series", "ladder"):
        code, out, err = run(capsys, "eval", "--eta", "1", "--mu", "1",
                             "--x", "0", "--y", "1", "--method", method,
                             "--format", "json")
        assert code == EXIT_OK and err == ""
        values[method] = json.loads(out)["value"]
    assert values["ladder"] == pytest.approx(values["series"], rel=1e-13,
                                             abs=0.0)


def test_eval_quadrature_x_overflow_is_domain_error(capsys):
    code, out, err = run(capsys, "eval", "--eta", "1", "--mu", "2",
                         "--x", "1e300", "--y", "1", "--method", "quadrature")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("domain error: quadrature cannot take x = 1e+300")


def test_eval_quadrature_huge_x_is_a_named_convergence_failure(capsys):
    code, out, err = run(capsys, "eval", "--eta", "1", "--mu", "2",
                         "--x", "1e150", "--y", "1", "--method", "quadrature")
    assert code == EXIT_NO_CONVERGENCE
    assert out == ""
    assert err.startswith(
        "convergence failure: quadrature cannot take eta = 1.0, mu = 2.0, "
        "x = 1e+150, y = 1.0: rounding leaves its window")


def test_eval_quadrature_past_its_rounding_floor_is_a_convergence_failure(
        capsys):
    # At x = 0 the rounding floor of the node logs passes 1 from mu ~
    # 3.6e13; this point once printed 71.78 (the value is 1) as converged.
    code, out, err = run(capsys, "eval", "--eta", "0", "--mu",
                         "3.1622776601683795e15", "--x", "0", "--y", "0",
                         "--method", "quadrature")
    assert code == EXIT_NO_CONVERGENCE
    assert out == ""
    assert err.startswith(
        "convergence failure: quadrature cannot take eta = 0.0, "
        "mu = 3162277660168379.5, x = 0.0, y = 0.0: the rounding floor ")


def test_eval_homogeneous_at_eta_zero_matches_series(capsys):
    # The homogeneous table recurs row 0 as well.
    values = {}
    for method in ("homogeneous", "series"):
        code, out, _ = run(capsys, "eval", "--eta", "0", "--mu", "5.5",
                           "--x", "2", "--y", "3", "--method", method,
                           "--format", "json")
        assert code == EXIT_OK
        values[method] = json.loads(out)["value"]
    assert values["homogeneous"] == pytest.approx(values["series"], rel=1e-14,
                                                  abs=0.0)


@pytest.mark.parametrize("method", ["ladder", "homogeneous"])
@pytest.mark.parametrize("command,entries", [
    (["eval", "--eta", "1", "--mu", "1e9", "--method"], 2 * 10**9),
    (["sweep", "--eta", "2000", "--mu", "500", "--methods"], 2001 * 500),
    (["eval", "--eta", "0", "--mu", "1e6", "--method"], None),
], ids=["eval-columns", "sweep-rows", "at-the-limit"])
def test_recurrence_tables_past_the_entry_limit_are_refused(
        capsys, monkeypatch, command, entries, method):
    # The table builders refuse a query over 10^6 entries by its count
    # before they build anything; one at the limit reaches the building.  A
    # sweep prints its header, leaves the refused row out and counts it.
    def build(*args):
        raise DomainError("building reached")

    monkeypatch.setattr(recurrence, "_ratio_sweep", build)
    code, out, err = run(capsys, *command, method, "--x", "1", "--y", "1")
    assert code == EXIT_USAGE
    if entries is None:
        assert err == "domain error: building reached\n"
    else:
        what = "ladder" if method == "ladder" else "homogeneous table"
        counted = ("1 evaluations were refused; the first: "
                   if command[0] == "sweep" else "")
        assert err == (f"domain error: {counted}{what} needs (eta + 1) * "
                       f"n_cols = {entries} entries, over the limit of "
                       f"{recurrence.MAX_TABLE_ENTRIES}\n")


@pytest.mark.parametrize("text", ["1:2:3:4", "a:b"])
def test_malformed_range_is_a_usage_error(capsys, text):
    code, out, err = run(capsys, "sweep", "--x", text)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"usage error: bad range {text!r}")


@pytest.mark.parametrize("axis", [("--mu", "0"), ("--x", "-1")])
def test_sweep_axis_outside_the_domain_prints_nothing(capsys, axis):
    # Every point of the grid is checked before the CSV header.
    code, out, err = run(capsys, "sweep", *axis, "--steps", "2")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("domain error: ")


@pytest.mark.parametrize("argv,last_y,err", [
    (("--eta", "1", "--mu", "1", "--x", "1", "--y", "3.8:12.4:10",
      "--steps", "1"), 12.4, ""),
    (("--y", "0:inf", "--steps", "2"), None,
     "domain error: y must be finite, got inf\n"),
    (("--x=-1e308:1e308", "--steps", "3"), None,
     "domain error: x must be >= 0, got -1e+308\n"),
], ids=["rounding", "infinite-hi", "overflowing-width"])
def test_grid_axes_end_exactly_at_lo_and_hi(capsys, argv, last_y, err):
    # An end formed as lo + (steps - 1) (hi - lo) / (steps - 1) rounded to
    # 12.400000000000002, and was nan where hi - lo is inf (0 * inf) or
    # overflows, which named nan and not the bad end.
    code, out, got = run(capsys, "sweep", *argv)
    assert got == err
    if last_y is None:
        assert (code, out) == (EXIT_USAGE, "")
    else:
        assert code == EXIT_OK
        assert float(parse_csv(out)[-1]["y"]) == last_y


@pytest.mark.parametrize("argv,methods,refusal", [
    (("--eta", "1", "--mu", "0.5:2", "--x", "1", "--y", "1", "--steps", "2",
      "--methods", "series,quadrature"),
     ["series", "series", "quadrature"],
     "quadrature oracle needs mu >= 1 (Bessel order mu-1 >= 0), got 0.5"),
    (("--eta", "1:1e6:2", "--mu", "1", "--x", "1", "--y", "1", "--steps",
      "1", "--methods", "series,ladder"),
     ["series", "ladder", "series"],
     "ladder needs (eta + 1) * n_cols = 1000001 entries, over the limit of "
     "1000000"),
    (("--eta", "0:1:3", "--mu", "2", "--x", "1", "--y", "1",
      "--methods", "series,ladder"),
     ["series", "ladder", "series", "series", "ladder"],
     "ladder requires integer eta, got 0.5"),
], ids=["quadrature-below-mu-one", "ladder-past-its-entry-limit",
        "ladder-at-a-real-eta"])
def test_sweep_counts_evaluations_a_route_refuses(capsys, argv, methods,
                                                  refusal):
    # The refused row is left out and the sweep goes on to the end of the
    # grid; it stopped at the refusal, and lost every later row.  A real eta
    # in a recurrence sweep stopped it before its first row.
    code, out, err = run(capsys, "sweep", *argv)
    assert code == EXIT_USAGE
    assert [r["method"] for r in parse_csv(out)] == methods
    assert err == ("domain error: 1 evaluations were refused; the first: "
                   f"{refusal}\n")


def test_sweep_reports_refusals_after_non_convergence(capsys, monkeypatch):
    # Both lines are printed; the refusal's exit code wins.
    monkeypatch.setattr(nuttall, "_MAX_TERMS", 4)
    code, out, err = run(capsys, "sweep", "--eta", "2", "--mu", "0.5",
                         "--x", "15", "--y", "3",
                         "--methods", "series,quadrature")
    assert code == EXIT_USAGE
    assert [r["method"] for r in parse_csv(out)] == ["series"]
    assert err.splitlines() == [
        "warning: 1 evaluations did not converge",
        "domain error: 1 evaluations were refused; the first: quadrature "
        "oracle needs mu >= 1 (Bessel order mu-1 >= 0), got 0.5"]


def _first_refusal(check):
    """The message of the DomainError that ``check()`` raises, or None."""
    try:
        check()
    except DomainError as exc:
        return str(exc)
    return None


def test_grid_check_refuses_the_point_the_whole_grid_would():
    # The check before a sweep's header raises on the first point, in
    # product order, that building every query would have raised on.
    rng = random.Random(7)
    refused = (-1.0, 0.0, math.inf, math.nan)
    for _ in range(500):
        axes = [[rng.choice(refused) if rng.random() < 0.15 else
                 rng.uniform(0.5, 5.0) for _ in range(rng.randint(1, 3))]
                for _ in range(4)]
        whole = _first_refusal(
            lambda: [MomentQuery(*p) for p in itertools.product(*axes)])
        assert _first_refusal(lambda: grid._check_grid(axes)) == whole, axes


def _grid_peak_bytes(monkeypatch, command):
    """Peak traced bytes of ``command`` on a 12^4-point grid, with its
    routes stubbed out and its output thrown away, after a one-point run
    has made the allocations that any first run makes."""
    monkeypatch.setattr(grid, "evaluate",
                        lambda q, method: Evaluation(1.0, method, 1, 0.0,
                                                     True))
    monkeypatch.setattr(recurrence, "consistency_deviation", lambda q: 0.0)
    with open(os.devnull, "w") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        main([command, "--steps", "1"])
        tracemalloc.start()
        try:
            code = main([command, "--eta", "1:12", "--mu", "1:12", "--x",
                         "1:12", "--y", "1:12", "--steps", "12"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == EXIT_OK
    return peak


@pytest.mark.parametrize("command", ["sweep", "selftest"])
def test_grid_commands_keep_no_list_of_points(monkeypatch, command):
    # A list of the 20,736 points peaked at about 1.9 MB (sweep) and 1.7 MB
    # (selftest) on CPython 3.11; taken one at a time, at under 0.1 MB.
    assert _grid_peak_bytes(monkeypatch, command) < 300_000


def test_eval_recurrence_needs_integer_eta(capsys):
    code, _, err = run(capsys, "eval", "--eta", "1.5", "--mu", "2",
                       "--x", "1", "--y", "1", "--method", "homogeneous")
    assert code == EXIT_USAGE
    assert "integer" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "eval", "--eta", "1")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "bogus-subcommand")
    assert code == EXIT_USAGE


def test_table1_rows_and_golden_entry(capsys):
    code, out, _ = run(capsys, "table", "1")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert len(rows) == 9
    assert list(rows[0]) == ["eta", "mu", "x", "y", "value"]
    row5 = rows[4]
    assert (float(row5["eta"]), float(row5["mu"])) == (5.0, 10.0)
    assert float(row5["value"]) == pytest.approx(419098.1927146542, rel=5e-14, abs=0.0)


def test_table1_stall_exit_code(capsys, monkeypatch):
    # A golden row whose series does not converge fails the whole table:
    # nothing is printed.  ``grid`` imports the series where it runs it.
    series = nuttall.nuttall_q_series

    def stalled(q):
        return series(q)._replace(converged=False)

    monkeypatch.setattr(nuttall, "nuttall_q_series", stalled)
    code, out, err = run(capsys, "table", "1")
    assert code == EXIT_NO_CONVERGENCE
    assert out == ""
    assert err.startswith("convergence failure: table 1 series stalled at ")


def test_table2_stall_exit_code(capsys, monkeypatch):
    # A stalled series at eta = 2 fails table 2 as table 1 fails: its value,
    # even one close to the table's, is not printed as an error.
    series = nuttall.nuttall_q_series

    def stalled(q):
        out = series(q)
        if q.eta != 2:
            return out
        return out._replace(value=out.value * (1.0 + 1e-9), converged=False)

    monkeypatch.setattr(nuttall, "nuttall_q_series", stalled)
    code, out, err = run(capsys, "table", "2")
    assert code == EXIT_NO_CONVERGENCE
    assert out == ""
    assert err.startswith("convergence failure: series did not converge at "
                          "eta=2, mu=10.0, ")


def test_table1_json_carries_the_csv_values(capsys):
    code, out, _ = run(capsys, "table", "1", "--format", "json")
    assert code == EXIT_OK
    records = json.loads(out)
    _, csv_out, _ = run(capsys, "table", "1")
    rows = parse_csv(csv_out)
    assert len(records) == len(rows) == 9
    for record, row in zip(records, rows):
        assert sorted(record) == ["eta", "mu", "value", "x", "y"]
        assert all(record[k] == float(row[k]) for k in record)
        assert all(math.isfinite(v) for v in record.values())


def test_table2_errors_within_bound(capsys):
    code, out, _ = run(capsys, "table", "2")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert [int(r["N"]) for r in rows] == [10, 20, 30, 40, 50, 60]
    for r in rows:
        assert float(r["rel_error"]) <= 1e-13
    row30 = next(r for r in rows if r["N"] == "30")
    assert float(row30["rel_error"]) <= 1e-13
    code, out, _ = run(capsys, "table", "2", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == [{"N": int(r["N"]),
                                "rel_error": float(r["rel_error"])}
                               for r in rows]


def test_table_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "table", "1")
    _, out2, _ = run(capsys, "table", "1")
    assert out1 == out2
    _, out1, _ = run(capsys, "table", "2", "--format", "json")
    _, out2, _ = run(capsys, "table", "2", "--format", "json")
    assert out1 == out2


def _sweep_every_method(capsys, *axes):
    """The CSV of a sweep by all four methods over a grid of two points per
    axis: it exits 0, and at every point each method agrees with the
    series."""
    code, out, _ = run(capsys, "sweep", *axes,
                       "--methods", "series,ladder,homogeneous,quadrature")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert len(rows) == 2 * 2 * 2 * 2 * 4
    by_point = {}
    for r in rows:
        key = (r["eta"], r["mu"], r["x"], r["y"])
        by_point.setdefault(key, {})[r["method"]] = float(r["value"])
    for key, vals in by_point.items():
        ref = vals["series"]
        for method, v in vals.items():
            assert v == pytest.approx(ref, rel=1e-10, abs=0.0), (key, method)
    return out


def test_sweep_csv_columns_and_agreement(capsys):
    out = _sweep_every_method(capsys, "--eta", "2:4:2", "--mu", "3:9:2",
                              "--x", "1:5:2", "--y", "2:6:2")
    assert out.splitlines()[0] == "eta,mu,x,y,method,value,est_error,terms"


def test_sweep_default_grid_takes_every_method(capsys):
    _sweep_every_method(capsys, "--steps", "2")


def test_sweep_is_deterministic(capsys):
    args = ("sweep", "--eta", "1:3:2", "--mu", "2", "--x", "1", "--y", "1:2:2")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_sweep_rejects_non_integer_eta_for_recurrences(capsys):
    code, _, err = run(capsys, "sweep", "--eta", "1:2:3", "--mu", "2",
                       "--x", "1", "--y", "1", "--methods", "ladder")
    assert code == EXIT_USAGE
    assert "integer" in err


def test_sweep_rejects_an_unknown_method(capsys):
    code, out, err = run(capsys, "sweep", "--steps", "1", "--methods", "foo")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "domain error: unknown method 'foo'\n"


def test_sweep_counts_evaluations_that_did_not_converge(capsys, monkeypatch):
    # The series stops unconverged and its row is printed; the ladder's
    # series seed raises ConvergenceError and its row is left out.
    monkeypatch.setattr(nuttall, "_MAX_TERMS", 4)
    code, out, err = run(capsys, "sweep", "--eta", "2", "--mu", "2",
                         "--x", "15", "--y", "3", "--methods", "series,ladder")
    assert code == EXIT_NO_CONVERGENCE
    assert [r["method"] for r in parse_csv(out)] == ["series"]
    assert err == "warning: 2 evaluations did not converge\n"


@pytest.mark.parametrize("argv", [
    ("selftest", "--steps", "0"), ("selftest", "--eta", "5:1"),
    ("sweep", "--steps", "0"), ("sweep", "--x", "5:1:2"),
], ids=" ".join)
def test_grid_rejects_an_empty_or_reversed_range(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize("command", ["sweep", "selftest"])
def test_steps_below_one_names_the_option(capsys, command):
    # Not a bad range on a default axis that the command line never named.
    code, out, err = run(capsys, command, "--steps", "0")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "usage error: --steps must be >= 1, got 0\n"
    # A steps count given on an axis keeps its bad-range message.
    code, out, err = run(capsys, command, "--eta", "1:49:0")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == ("usage error: bad range '1:49:0': steps must be >= 1, "
                   "got 0\n")


ETA_GRIDS = [
    (("--eta", "0:0.4:2", "--mu", "3", "--x", "1", "--y", "1"), True),
    (("--eta", "0", "--mu", "3", "--x", "1", "--y", "1"), False),
    (("--eta", "1:2:3", "--mu", "3", "--x", "1", "--y", "1"), False),
    (("--steps", "6"), False),
    (("--eta", "0:49", "--x", "0:20", "--steps", "6"), False),
]


@pytest.mark.parametrize("argv,refused", ETA_GRIDS,
                         ids=[" ".join(argv) for argv, _ in ETA_GRIDS])
def test_selftest_rejects_an_eta_grid_of_non_integers_or_zero(capsys, argv,
                                                              refused):
    # The grid is checked as given, not rounded: only an eta in (0, 1),
    # where the identity would need Q_{eta-1}, is refused, before anything
    # is printed.  eta = 0 and real eta >= 1, such as the 10.6 of --steps 6,
    # pass.
    code, out, err = run(capsys, "selftest", *argv)
    if refused:
        assert code == EXIT_USAGE
        assert out == ""
        assert "eta = 0 or eta >= 1" in err
    else:
        assert code == EXIT_OK
        assert "result PASS" in out


def test_selftest_argmax_prints_an_integral_eta_as_an_int(capsys):
    for eta, shown in (("2", 2), ("2.5", 2.5)):
        code, out, _ = run(capsys, "selftest", "--eta", eta, "--mu", "3",
                           "--x", "0", "--y", "1", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["argmax"]["eta"] == shown
        assert f'"eta": {eta}' in out


def test_recurrences_take_a_subnormal_bessel_argument(capsys):
    # At z = 2e-310, 2(nu+2)/z overflows in the ratio's continued fraction;
    # both tables give the series' value.
    code, out, err = run(capsys, "eval", "--eta", "1", "--mu", "2",
                         "--x", "1e-310", "--y", "1e-310", "--method", "ladder")
    assert (code, out.splitlines()[0], err) == (EXIT_OK, "value 2", "")
    code, out, err = run(capsys, "sweep", "--eta", "1", "--mu", "3",
                         "--x", "1e-310", "--y", "1e-310",
                         "--methods", "series,ladder,homogeneous")
    assert code == EXIT_OK and err == ""
    rows = parse_csv(out)
    assert [(r["method"], r["value"]) for r in rows] == [
        ("series", "3"), ("ladder", "3"), ("homogeneous", "3")]


def test_sweep_takes_x_zero_with_every_method(capsys):
    code, out, err = run(capsys, "sweep", "--eta", "1", "--mu", "2",
                         "--x", "0:1:2", "--y", "1",
                         "--methods", "series,ladder,homogeneous")
    assert code == EXIT_OK and err == ""
    rows = parse_csv(out)
    assert [(r["x"], r["method"]) for r in rows] == [
        (x, m) for x in ("0", "1") for m in ("series", "ladder", "homogeneous")]
    for x in ("0", "1"):
        values = [float(r["value"]) for r in rows if r["x"] == x]
        for v in values[1:]:
            assert v == pytest.approx(values[0], rel=1e-13, abs=0.0)


def test_selftest_degenerate_single_point(capsys):
    code, out, _ = run(capsys, "selftest", "--eta", "1", "--mu", "1",
                       "--x", "1", "--y", "1", "--steps", "1")
    assert code == EXIT_OK
    assert "points 1" in out
    assert "result PASS" in out


def test_selftest_walks_its_grid_as_sweep_does(capsys):
    # An axis of repeated values is walked as given: four points, as
    # the same axes give four rows of a sweep.
    axes = ("--eta", "3:3:4", "--mu", "2", "--x", "1", "--y", "1")
    code, out, _ = run(capsys, "selftest", *axes, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["points"] == 4
    code, out, _ = run(capsys, "sweep", *axes, "--methods", "series")
    assert code == EXIT_OK
    assert len(parse_csv(out)) == 4


def test_selftest_json_region_pass(capsys):
    code, out, _ = run(capsys, "selftest", "--steps", "3", "--format", "json")
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["result"] == "PASS"
    assert record["points"] == 3**4
    assert record["convergence_failures"] == 0
    assert record["max_deviation"] <= 1e-12


def test_selftest_x_zero_region_passes(capsys):
    # x = 0 points run the consistency identity, with T_mu at its limit.
    for steps in ("3", "5"):
        code, out, _ = run(capsys, "selftest", "--x", "0:20", "--steps",
                           steps, "--format", "json")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["result"] == "PASS"
        assert record["convergence_failures"] == 0
        assert record["max_deviation"] <= 1e-12


def test_selftest_routes_x_zero_to_series_check(capsys):
    # x = 0 grid points must not raise a domain error.
    code, out, _ = run(capsys, "selftest", "--eta", "2", "--mu", "1:3:2",
                       "--x", "0:1:2", "--y", "1", "--steps", "1")
    assert code == EXIT_OK
    assert "result PASS" in out


def test_selftest_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(grid, "SELFTEST_THRESHOLD", 1e-20)
    code, out, _ = run(capsys, "selftest", "--eta", "1", "--mu", "1",
                       "--x", "1", "--y", "1", "--steps", "1")
    assert code == EXIT_SELFTEST_FAIL
    assert "result FAIL" in out


@pytest.mark.parametrize("eta,x,y", [
    (200, 0, 1),    # both sides of the identity overflow: inf/inf
    (1, 0, 2000),   # the consistency ratio's denominator underflows to 0
    (1, 1, 2000),   # the consistency ratio's denominator underflows to 0
])
def test_selftest_fails_a_point_it_cannot_check(capsys, eta, x, y):
    argv = ["selftest", "--eta", str(eta), "--mu", "1", "--x", str(x),
            "--y", str(y)]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_SELFTEST_FAIL
    assert "max_deviation inf" in out
    assert f"argmax eta={eta} mu=1 x={x} y={y}" in out
    assert "result FAIL" in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    record = json.loads(out)
    assert code == EXIT_SELFTEST_FAIL and record["result"] == "FAIL"
    assert record["max_deviation"] == math.inf
    assert record["argmax"] == {"eta": eta, "mu": 1.0, "x": x, "y": y}


def test_selftest_convergence_failure_exit_code(capsys, monkeypatch):
    # No point converged, so there is no deviation to report: null in JSON
    # and no line of text, as for argmax.
    monkeypatch.setattr(nuttall, "_MAX_TERMS", 4)
    argv = ("selftest", "--eta", "2", "--mu", "2", "--x", "15", "--y", "3",
            "--steps", "1")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_NO_CONVERGENCE
    record = json.loads(out)
    assert record["points"] == record["convergence_failures"] == 1
    assert record["argmax"] is None and record["max_deviation"] is None
    assert record["result"] == "FAIL"
    code, text, _ = run(capsys, *argv)
    assert code == EXIT_NO_CONVERGENCE
    assert [line.split()[0] for line in text.splitlines()] == [
        "points", "convergence_failures", "threshold", "result"]


def test_numbers_printed_with_17_significant_digits(capsys):
    _, out, _ = run(capsys, "table", "1")
    value = out.strip().splitlines()[4].split(",")[4]
    # .17g round-trips exactly
    assert float(value) == float(format(float(value), ".17g"))
    assert value == format(float(value), ".17g")


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [
    ["eval", "--eta", "1", "--mu", "8", "--x", "5e-324", "--y", "1",
     "--method", "ladder"],
    ["sweep", "--steps", "2"],
])
def test_closed_stdout_exits_without_a_traceback(argv, buffered):
    # The pipe's read end is closed before the CLI starts, so its first
    # write (unbuffered) or its flush (buffered) meets a broken pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(nuttallq.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run([sys.executable, "-m", "nuttallq", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == EXIT_BROKEN_PIPE


def _fresh_python(code, *args):
    """stdout of ``code`` in a fresh interpreter that finds this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(nuttallq.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # Together they cost about 14% of a cold start, and no record needs them.
    code = ("import sys; before = set(sys.modules); import nuttallq.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    added = set(_fresh_python(code).split())
    assert "nuttallq.cli" in added
    assert not added & {"dataclasses", "inspect"}


# Runs ``python -m nuttallq`` on the given arguments, as ``-m`` does, then
# prints its exit code and the loaded modules on a last line.
_COLD_CLI = """
import runpy, sys
sys.argv = ["nuttallq", *sys.argv[1:]]
try:
    runpy.run_module("nuttallq", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, *sorted(sys.modules))
"""


def _cold_start(*argv):
    """(printed output, loaded modules) of a cold ``nuttallq`` run."""
    out = _fresh_python(_COLD_CLI, *argv)
    printed, _, last = out.rstrip("\n").rpartition("\n")
    code, *modules = last.split()
    assert code == "0", out
    return printed + "\n", set(modules)


_EVAL = ("eval", "--eta", "4", "--mu", "12.5", "--x", "7", "--y", "9")


def _cold_eval(*argv):
    """(printed output, loaded modules) of a cold ``nuttallq eval``."""
    return _cold_start(*_EVAL, *argv)


# The modules that a cold start loads only where its command runs them.  A
# start compiles every module it loads from source where bytecode is not
# written, so a route it does not run only costs it time.
ON_DEMAND = {"json", "nuttallq.bessel", "nuttallq.grid",
             "nuttallq.incgamma", "nuttallq.nuttall", "nuttallq.quadrature",
             "nuttallq.recurrence"}
_SERIES = {"nuttallq.incgamma", "nuttallq.nuttall"}
_RECURRENCES = _SERIES | {"nuttallq.bessel", "nuttallq.recurrence"}
_GRID = _SERIES | {"nuttallq.grid"}
# Each command's arguments and the modules of ON_DEMAND it loads: a series
# eval loads the series (``nuttall`` and ``incgamma``), a quadrature eval
# ``bessel`` and ``quadrature`` alone, a recurrence eval the series and
# ``bessel`` too, and the grid commands ``grid`` and the routes they run.
COLD_STARTS = {
    "eval-series": (_EVAL, _SERIES),
    "eval-series-json": (_EVAL + ("--format", "json"), _SERIES | {"json"}),
    "eval-ladder": (_EVAL + ("--method", "ladder"), _RECURRENCES),
    "eval-homogeneous": (_EVAL + ("--method", "homogeneous"), _RECURRENCES),
    "eval-quadrature": (_EVAL + ("--method", "quadrature"),
                        {"nuttallq.bessel", "nuttallq.quadrature"}),
    "table-1": (("table", "1"), _GRID),
    "table-2": (("table", "2"), _GRID | _RECURRENCES),
    "sweep": (("sweep", "--steps", "1"), _GRID),
    "sweep-quadrature": (("sweep", "--steps", "1", "--methods", "quadrature"),
                         {"nuttallq.grid", "nuttallq.bessel",
                          "nuttallq.quadrature"}),
    "sweep-recurrences": (("sweep", "--steps", "2", "--methods",
                           "series,ladder,homogeneous"),
                          _GRID | _RECURRENCES),
    "selftest": (("selftest", "--steps", "2"), _GRID | _RECURRENCES),
}


@pytest.mark.parametrize("command", sorted(COLD_STARTS))
def test_cold_start_loads_only_the_route_it_runs(command):
    argv, loads = COLD_STARTS[command]
    _, modules = _cold_start(*argv)
    assert "nuttallq.cli" in modules
    assert modules & ON_DEMAND == loads
    # No record needs dataclasses; with inspect it took about 14% of a start.
    # fractions and decimal come only with the first use of Debye's
    # expansion (``bessel._debye_polynomials``), about 3 ms.
    assert not modules & {"dataclasses", "inspect", "fractions", "decimal"}


def test_cold_quadrature_json_eval_loads_both_and_prints_the_same():
    printed, modules = _cold_eval("--method", "quadrature", "--format", "json")
    assert {"nuttallq.quadrature", "json"} <= modules
    assert printed == (
        '{"converged": true, "est_error": 4.369782481493754e-14, '
        '"eta": 4.0, "method": "quadrature", "mu": 12.5, '
        f'"terms": {pass_points(2)}, '
        '"value": 212594.85644679944, "x": 7.0, "y": 9.0}\n')


def test_package_loads_quadrature_on_first_use():
    code = ("import sys, nuttallq; "
            "print('nuttallq.quadrature' in sys.modules); "
            "from nuttallq import (QuadratureOutcome, QuadratureSpec, "
            "moment_by_quadrature, tanh_rule_integrate, truncation_bounds); "
            "from nuttallq import quadrature as qm; "
            "print(QuadratureOutcome is qm.QuadratureOutcome, "
            "QuadratureSpec is qm.QuadratureSpec, "
            "moment_by_quadrature is qm.moment_by_quadrature, "
            "tanh_rule_integrate is qm.tanh_rule_integrate, "
            "truncation_bounds is qm.truncation_bounds)")
    assert _fresh_python(code).split() == ["False"] + ["True"] * 5


def test_package_loads_the_series_on_first_use():
    code = ("import sys, nuttallq; "
            "print('nuttallq.nuttall' in sys.modules, "
            "'nuttallq.incgamma' in sys.modules); "
            "from nuttallq import (SeriesOutcome, log_q_increment, marcum_q, "
            "nuttall_q_series); "
            "from nuttallq import incgamma, nuttall; "
            "print(SeriesOutcome is nuttall.SeriesOutcome, "
            "marcum_q is nuttall.marcum_q, "
            "nuttall_q_series is nuttall.nuttall_q_series, "
            "log_q_increment is incgamma.log_q_increment, "
            "nuttallq.MomentQuery is nuttall.MomentQuery)")
    assert _fresh_python(code).split() == ["False"] * 2 + ["True"] * 5


def test_package_dir_and_missing_names():
    assert set(nuttallq.__all__) <= set(dir(nuttallq))
    with pytest.raises(AttributeError, match="no_such_name"):
        nuttallq.no_such_name


# The names ``nuttallq`` serves from ``recurrence`` and ``bessel``, and the
# two builders that moved from ``nuttall`` to ``recurrence`` and that the
# benchmark's workloads still call through ``nuttall``.
_PACKAGE_LAZY = {"recurrence": ("RecurrenceTable", "consistency_deviation",
                                "homogeneous_table", "nuttall_q_homogeneous",
                                "nuttall_q_ladder"),
                 "bessel": ("bessel_i_scaled", "bessel_ratio")}
_MOVED_FROM_NUTTALL = ("nuttall_q_homogeneous", "nuttall_q_ladder")


def test_package_loads_recurrences_and_bessel_on_first_use():
    code = f"""
import importlib, sys, nuttallq
print("nuttallq.recurrence" in sys.modules, "nuttallq.bessel" in sys.modules)
for module, names in {_PACKAGE_LAZY!r}.items():
    mod = importlib.import_module("nuttallq." + module)
    print(*(getattr(nuttallq, n) is getattr(mod, n) for n in names))
"""
    n_names = sum(map(len, _PACKAGE_LAZY.values()))
    assert _fresh_python(code).split() == ["False"] * 2 + ["True"] * n_names


def test_moved_names_resolve_from_nuttall_and_stay_bound():
    # Listed in dir() before any use, bound in the module on first access,
    # and the very objects of ``recurrence``.
    code = """
import sys
from nuttallq import nuttall
names = sys.argv[1:]
print("nuttallq.recurrence" in sys.modules, set(names) <= set(dir(nuttall)),
      any(n in vars(nuttall) for n in names))
got = [getattr(nuttall, n) for n in names]
from nuttallq import recurrence
print(all(g is getattr(recurrence, n) is vars(nuttall)[n]
          for g, n in zip(got, names)))
"""
    out = _fresh_python(code, *_MOVED_FROM_NUTTALL)
    assert out.split() == ["False", "True", "False", "True"]
    with pytest.raises(AttributeError, match="no_such_name"):
        nuttall.no_such_name
