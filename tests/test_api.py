"""The public API is what the evaluators use."""

import ast
from pathlib import Path

import nuttallq

# The benchmark's workloads call these three through their modules, and no
# function of the package calls them.
CALLED_FROM_OUTSIDE = {"marcum_q", "moment_by_quadrature",
                       "nuttall_q_homogeneous"}


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
