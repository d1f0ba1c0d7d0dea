"""tools/src_lines.py: every line and the code lines of each module."""

from __future__ import annotations

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    text = ('"""Module\n'
            'doc."""\n'
            '\n'
            '# a comment\n'
            'class A:\n'
            '    """Doc."""\n'
            '\n'
            '    def f(self):\n'
            '        """Two\n'
            '        lines."""\n'
            '        return "not a docstring"  # trailing\n'
            '\n'
            'x = """data"""\n')
    assert src_lines.counts(text) == (13, 4)


def test_the_total_sums_the_modules(capsys):
    assert src_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    *modules, (name, lines, code) = rows
    assert name == "total" and len(modules) == len(list(src_lines.PACKAGE.glob("*.py")))
    assert int(lines) == sum(int(m[1]) for m in modules)
    assert int(code) == sum(int(m[2]) for m in modules)
