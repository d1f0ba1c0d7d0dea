"""
Line counts of the posetmorse package: for each module of src/posetmorse
and in total, every line, and the code lines, which leave out blank lines,
comment-only lines and module, class and function docstrings (found with
ast).  ROADMAP.md tracks both totals.

Run it from any directory; it counts src/posetmorse of its own checkout:

    python tools/src_lines.py
"""

from __future__ import annotations

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "posetmorse"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based numbers of the lines that module, class and function
    docstrings span."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            out.update(range(doc.lineno, doc.end_lineno + 1))
    return out


def counts(text: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    code = sum(1 for number, line in enumerate(lines, 1)
               if line.strip() and not line.strip().startswith("#")
               and number not in docs)
    return len(lines), code


def main() -> int:
    total_lines = total_code = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = counts(path.read_text())
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total_lines:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
