"""Tests for the command-line interface: formats, exit codes, determinism."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nuttallq
from nuttallq import (DomainError, MomentQuery, homogeneous_table,
                      tanh_rule_integrate)
from nuttallq import cli, nuttall
from nuttallq.cli import (EXIT_BROKEN_PIPE, EXIT_NO_CONVERGENCE, EXIT_OK,
                          EXIT_SELFTEST_FAIL, EXIT_USAGE, main)


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
    assert "converge" in err


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
        "convergence failure: quadrature cannot take x = 1e+150")


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
    # before they build anything; one at the limit reaches the building.
    def build(*args):
        raise DomainError("building reached")

    monkeypatch.setattr(nuttall, "_ratio_sweep", build)
    code, out, err = run(capsys, *command, method, "--x", "1", "--y", "1")
    assert code == EXIT_USAGE
    if entries is None:
        assert err == "domain error: building reached\n"
    else:
        what = "ladder" if method == "ladder" else "homogeneous table"
        assert err == (f"domain error: {what} needs (eta + 1) * n_cols = "
                       f"{entries} entries, over the limit of "
                       f"{nuttall.MAX_TABLE_ENTRIES}\n")


@pytest.mark.parametrize("text", ["1:2:3:4", "a:b"])
def test_malformed_range_is_a_usage_error(capsys, text):
    code, out, err = run(capsys, "sweep", "--x", text)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"usage error: bad range {text!r}")


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


def test_table2_errors_within_bound(capsys):
    code, out, _ = run(capsys, "table", "2")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert [int(r["N"]) for r in rows] == [10, 20, 30, 40, 50, 60]
    for r in rows:
        assert float(r["rel_error"]) <= 1e-13
    row30 = next(r for r in rows if r["N"] == "30")
    assert float(row30["rel_error"]) <= 1e-13


def test_table_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "table", "1")
    _, out2, _ = run(capsys, "table", "1")
    assert out1 == out2
    _, out1, _ = run(capsys, "table", "2", "--format", "json")
    _, out2, _ = run(capsys, "table", "2", "--format", "json")
    assert out1 == out2


def test_sweep_csv_columns_and_agreement(capsys):
    code, out, _ = run(capsys, "sweep", "--eta", "2:4:2", "--mu", "3:9:2",
                       "--x", "1:5:2", "--y", "2:6:2",
                       "--methods", "series,ladder,homogeneous,quadrature")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert out.splitlines()[0] == "eta,mu,x,y,method,value,est_error,terms"
    assert len(rows) == 2 * 2 * 2 * 2 * 4
    by_point = {}
    for r in rows:
        key = (r["eta"], r["mu"], r["x"], r["y"])
        by_point.setdefault(key, {})[r["method"]] = float(r["value"])
    for key, vals in by_point.items():
        ref = vals["series"]
        for method, v in vals.items():
            assert v == pytest.approx(ref, rel=1e-10, abs=0.0), (key, method)


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
    code, out, _ = run(capsys, "selftest", "--x", "0:20", "--steps", "5",
                       "--format", "json")
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
    import nuttallq.cli as cli_mod
    monkeypatch.setattr(cli_mod, "SELFTEST_THRESHOLD", 1e-20)
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
    monkeypatch.setattr(nuttall, "_MAX_TERMS", 4)
    code, out, _ = run(capsys, "selftest", "--eta", "2", "--mu", "2",
                       "--x", "15", "--y", "3", "--steps", "1",
                       "--format", "json")
    assert code == EXIT_NO_CONVERGENCE
    record = json.loads(out)
    assert record["points"] == record["convergence_failures"] == 1
    assert record["argmax"] is None
    assert record["result"] == "FAIL"


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


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # Together they cost about 14% of a cold start, and no record needs them.
    code = ("import sys; before = set(sys.modules); import nuttallq.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(Path(nuttallq.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "nuttallq.cli" in added
    assert not added & {"dataclasses", "inspect"}
