"""The README's command lines parse and its examples print what they say."""

from __future__ import annotations

import ast
import os
import pathlib
import re
import shlex

import pytest

import posetmorse.cli as cli

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text()


def _block(heading: str, fence: str) -> str:
    section = README[README.index(heading):]
    start = section.index(fence) + len(fence)
    return section[start:section.index("```", start)]


def _command_lines() -> list[tuple[list[str], str | None]]:
    out = []
    for line in _block("## Command line", "```\n").strip().splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "posetmorse"
        out.append((argv[1:], comment.strip() or None))
    return out


@pytest.fixture(autouse=True)
def no_process_pool(monkeypatch):
    # a parallel crosscheck forks its workers, as a process pool would
    def refuse(*args, **kwargs):
        raise AssertionError("a README example forked a worker process")

    monkeypatch.setattr(os, "fork", refuse)


def test_every_command_line_parses():
    parser = cli.build_parser()
    lines = _command_lines()
    assert len(lines) == 12
    for argv, _comment in lines:
        assert callable(parser.parse_args(argv).func)


def test_commented_results_are_printed(capsys):
    expected = {
        ("homotopy", "1", "213546"): "sphere(2)",
        ("bijection", "map", "abbab"): "165243",
        ("bijection", "unmap", "15234"): "abaa",
    }
    for argv, comment in _command_lines():
        if tuple(argv) in expected:
            assert comment == expected[tuple(argv)]
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == comment + "\n"


def _table_flags() -> dict[str, set[str]]:
    """The "Subcommand | Flags" table of the command-line section; a row
    "`bijection map`, `unmap`" names "bijection map" and "bijection unmap"."""
    section = README[README.index("## Command line"):README.index("## Library")]
    rows = section[section.index("| Subcommand | Flags |"):].split("\n\n")[0]
    got = {}
    for row in rows.splitlines()[2:]:
        names_cell, flags_cell = row.strip("|").split("|")
        first, *rest = re.findall(r"`([^`]+)`", names_cell)
        prefix = first.rpartition(" ")[0]
        for name in [first] + [f"{prefix} {n}".strip() for n in rest]:
            got[name] = set(re.findall(r"`([^`]+)`", flags_cell))
    return got


def _parser_flags(parser, name="") -> dict[str, set[str]]:
    """The shared flags each leaf subcommand under the parser takes."""
    got = {}
    for action in parser._actions:
        if isinstance(action.choices, dict):  # a subcommand group
            for child, sub in action.choices.items():
                got |= _parser_flags(sub, f"{name} {child}".strip())
    return got or {name: {flag for a in parser._actions
                          for flag in a.option_strings if flag in cli._FLAGS}}


def test_flags_table_matches_the_parser():
    table = _table_flags()
    assert len(table) == 10
    assert table == _parser_flags(cli.build_parser())


def test_library_block_runs():
    code = _block("## Library", "```python\n")
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    checked = 0
    for line in code.splitlines():
        expr, _, comment = line.partition("#")
        try:
            want = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert eval(expr, namespace) == want, line
        checked += 1
    assert checked == 7
