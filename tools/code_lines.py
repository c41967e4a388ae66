"""Print the package's code-only line count, per module and in total.

A code-only line is a line of ``src/nuttallq/*.py`` that is neither blank
nor a comment, and lies in no module, class or function docstring.  The
size CI reports and ``CHANGES.md`` quotes are this count.

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nuttallq"


def code_lines(text: str) -> int:
    """The code-only lines of one module's source."""
    skip = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            skip.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if i not in skip and line.strip()
               and not line.lstrip().startswith("#"))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} src/nuttallq/{path.name}")
    print(f"{total:6d} total code-only lines")


if __name__ == "__main__":
    main()
