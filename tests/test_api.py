"""The public API is what the evaluators use, and ``evaluate`` is the one
entry point that takes a route by name."""

import ast
import math
from pathlib import Path

import pytest

import nuttallq
from nuttallq import (DomainError, Evaluation, MomentQuery, evaluate,
                      homogeneous_table, nuttall_q_ladder, nuttall_q_series,
                      tanh_rule_integrate)

from oracles import EDGE_POINTS
from test_cli import COLD_STARTS, ON_DEMAND, _fresh_python

# The benchmark's workloads call these four through their modules, and no
# function of the package calls them by name: ``evaluate`` reaches
# ``nuttall_q_ladder`` as a value, not by a call to it.
CALLED_FROM_OUTSIDE = {"marcum_q", "moment_by_quadrature",
                       "nuttall_q_homogeneous", "nuttall_q_ladder"}


def _called_by_another_function():
    """Names that some function of the package calls, other than itself."""
    names = set()
    for path in Path(nuttallq.__file__).parent.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    callee = node.func
                    name = getattr(callee, "id", getattr(callee, "attr", None))
                    if name != func.name:
                        names.add(name)
    return names


def test_every_public_name_is_a_record_an_error_or_used():
    called = _called_by_another_function()
    unused = []
    for name in nuttallq.__all__:
        obj = getattr(nuttallq, name)
        if isinstance(obj, type) and (issubclass(obj, Exception)
                                      or hasattr(obj, "_fields")):
            continue
        if name not in called and name not in CALLED_FROM_OUTSIDE:
            unused.append(name)
    assert unused == []


# The CLI's smoke point, and the edge points that the recurrences take.
EVALUATE_POINTS = [(4.0, 12.5, 7.0, 9.0)] + [
    p[:4] for p in EDGE_POINTS if float(p[0]).is_integer()]


def _last_table_entry(build, q):
    """Q_{eta,mu} as the last entry of the table that ``build`` makes from
    mu_start = mu - (n_cols - 1)."""
    n_cols = max(1, math.ceil(q.mu - 1e-12))
    table = build(q.eta, q.mu - (n_cols - 1), n_cols, q.x, q.y)
    return table.entry(table.eta_max, n_cols - 1)


@pytest.mark.parametrize("point", EVALUATE_POINTS)
def test_evaluate_gives_each_routes_own_output(point):
    q = MomentQuery(*point)
    series = nuttall_q_series(q)
    quad = tanh_rule_integrate(q)
    expected = {
        "series": (series.value, "series", series.terms_used,
                   series.est_error, series.converged),
        "quadrature": (quad.value, "quadrature", quad.nodes, quad.est_error,
                       True),
        "ladder": (_last_table_entry(nuttall_q_ladder, q), "ladder", None,
                   None, True),
        "homogeneous": (_last_table_entry(homogeneous_table, q),
                        "homogeneous", None, None, True),
    }
    assert set(expected) == set(nuttallq.query.METHODS)
    for method, want in expected.items():
        got = evaluate(q, method)
        assert type(got) is Evaluation
        assert got._fields == ("value", "method", "terms", "est_error",
                               "converged")
        assert tuple(got) == want


def test_evaluate_refuses_an_unknown_method():
    with pytest.raises(DomainError) as exc:
        evaluate(MomentQuery(4.0, 12.5, 7.0, 9.0), "bogus")
    assert str(exc.value) == "unknown method 'bogus'"


@pytest.mark.parametrize("point", [(0.5, 3.0, 1.0, 1.0),  # real eta
                                   (1.0, 1e9, 1.0, 1.0)])  # entry limit
def test_evaluate_passes_on_a_ladders_refusal(point):
    with pytest.raises(DomainError):
        evaluate(MomentQuery(*point), "ladder")


def test_evaluate_reports_a_series_that_ran_out_of_terms():
    ev = evaluate(MomentQuery(2.0, 10.0, 3000.0, 1000.0), "series")
    assert ev.method == "series" and ev.converged is False


@pytest.mark.parametrize("method,loads", [("series", False),
                                          ("ladder", False),
                                          ("homogeneous", False),
                                          ("quadrature", True)])
def test_evaluate_loads_quadrature_only_to_integrate(method, loads):
    # The library loads the modules that the CLI's eval of the route loads.
    code = ("import sys, nuttallq; "
            "nuttallq.evaluate(nuttallq.MomentQuery(4, 12.5, 7, 9), sys.argv[1]); "
            "print(*sorted(sys.modules))")
    modules = set(_fresh_python(code, method).split())
    assert modules & ON_DEMAND == COLD_STARTS[f"eval-{method}"][1]
    assert ("nuttallq.quadrature" in modules) is loads


# The package modules that a module must not import at its top level: the
# records and ``evaluate`` hold no route, the series runs without the Bessel
# kernel and the other routes, quadrature and the Bessel kernel without the
# series and the recurrences, and the CLI loads a route, and the grid
# commands, only where a command runs them.
_ROUTES = {"bessel", "incgamma", "nuttall", "quadrature", "recurrence"}
NOT_AT_TOP_LEVEL = {
    "__init__": _ROUTES,
    "query": _ROUTES,
    "nuttall": {"bessel", "recurrence", "quadrature"},
    "bessel": {"incgamma", "nuttall", "recurrence", "quadrature"},
    "quadrature": {"incgamma", "nuttall", "recurrence"},
    "cli": _ROUTES | {"grid"},
    "grid": {"bessel", "incgamma", "nuttall", "recurrence", "quadrature"},
}


def _top_level_imports(module):
    """The package modules that ``module`` imports outside any function or
    class body."""
    path = Path(nuttallq.__file__).parent / f"{module}.py"
    found = set()
    todo = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(a.name for a in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [a.name for a in node.names])
            found.update(n.split(".")[1] for n in names
                         if n.startswith("nuttallq."))
        todo.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("module", sorted(NOT_AT_TOP_LEVEL))
def test_routes_load_only_what_they_run(module):
    assert not _top_level_imports(module) & NOT_AT_TOP_LEVEL[module]


def test_top_level_import_walk_finds_what_is_there():
    # It finds the imports a module makes at its top level, and none that a
    # function makes (``evaluate`` imports each route in its branch, and
    # ``nuttall.__getattr__`` imports ``recurrence``).
    assert _top_level_imports("cli") >= {"errors", "query"}
    assert _top_level_imports("query") == {"errors"}
    assert "recurrence" not in _top_level_imports("nuttall")
    assert {"bessel", "nuttall", "query"} <= _top_level_imports("recurrence")


def test_bessel_imports_incgamma_nowhere():
    # Not at the top level and not in a function either: the Bessel kernel
    # takes no code from the kernel of the series.
    path = Path(nuttallq.__file__).parent / "bessel.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.name for a in node.names)
    assert "errors" in names
    assert not [n for n in names if "incgamma" in n]


# What the series and quadrature may both reach: the query record and its
# check, the two errors, and the clipped exp.
SERIES_QUADRATURE_SHARE = {
    "query.MomentQuery", "query.MomentQuery.__new__",
    "query.MomentQuery._make", "query._require_finite",
    "errors.DomainError", "errors.ConvergenceError", "logscale.exp_clipped"}


def _package_imports(node):
    """{bound name: (module, name)} of the package's relative imports in
    ``node``; name is None where a module itself is bound."""
    bound = {}
    for imp in ast.walk(node):
        if isinstance(imp, ast.ImportFrom) and imp.level == 1:
            for alias in imp.names:
                bound[alias.asname or alias.name] = (
                    (imp.module, alias.name) if imp.module
                    else (alias.name, None))
    return bound


def _call_graph():
    """(defs, resolve): every function, class and method of the package by
    its dotted name 'module.name' or 'module.Class.method', and a function
    that resolves a name of a module to such a key through its imports."""
    defs, top = {}, {}
    for path in Path(nuttallq.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = path.stem
        top[module] = _package_imports(ast.Module(
            body=[n for n in tree.body if isinstance(n, ast.ImportFrom)],
            type_ignores=[]))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        defs[f"{module}.{node.name}.{sub.name}"] = sub

    def resolve(module, name):
        key = f"{module}.{name}"
        if key in defs:
            return key
        source, imported = top[module].get(name, (None, None))
        return resolve(source, imported) if imported else None

    return defs, resolve


def _reachable(graph, entry):
    """The dotted names that ``entry`` reaches in ``_call_graph()``: every
    package function or class that a reached body names, directly or
    through an import (in the module or in that body), and every method of
    a reached class."""
    defs, resolve = graph
    todo, seen = [entry], set()
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        node, module = defs[key], key.split(".")[0]
        local = _package_imports(node)
        if isinstance(node, ast.ClassDef):
            todo += [k for k in defs if k.startswith(key + ".")]
        for sub in ast.walk(node):
            found = None
            if isinstance(sub, ast.Name) and sub.id in local:
                source, name = local[sub.id]
                found = name and resolve(source, name)
            elif isinstance(sub, ast.Name):
                found = resolve(module, sub.id)
            elif (isinstance(sub, ast.Attribute)
                  and isinstance(sub.value, ast.Name)):
                # module.name, for a module bound by ``from . import module``
                source, name = local.get(sub.value.id, (None, None))
                found = source and name is None and resolve(source, sub.attr)
            if found:
                todo.append(found)
    return seen


def test_series_and_quadrature_share_only_the_records_errors_and_exp():
    # Their agreement checks both routes only where they share no code.
    # The message lists what each recurrence table shares with either
    # route; README's list of shared code names the same.
    graph = _call_graph()
    series = _reachable(graph, "nuttall.nuttall_q_series")
    quad = _reachable(graph, "quadrature.tanh_rule_integrate")
    assert {"incgamma.q_with_log_increment", "nuttall._times_exp"} <= series
    assert {"bessel.FixedOrderSeries.log_scaled", "quadrature._lower_cut",
            "bessel._four_term_sum"} <= quad
    tables = {entry: _reachable(graph, f"recurrence.{entry}")
              for entry in ("nuttall_q_ladder", "homogeneous_table")}
    shares = "; ".join(
        f"{entry} with the {route}: "
        f"{sorted(reached & other - SERIES_QUADRATURE_SHARE)}"
        for entry, reached in tables.items()
        for route, other in (("series", series), ("quadrature", quad)))
    assert series & quad == SERIES_QUADRATURE_SHARE, shares
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    listed = readme[readme.index("The routes share some"):
                    readme.index("The three routes,")]
    for entry, reached in tables.items():
        assert "nuttall.series_value" in reached, entry
        bessel_shares = {k.split(".")[1] for k in reached & quad
                         if k.startswith("bessel.")}
        unlisted = sorted(n for n in bessel_shares if n not in listed)
        assert bessel_shares and not unlisted, (unlisted, shares)
