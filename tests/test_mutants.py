"""tools/mutants.py: the catalogue cannot rot."""

from __future__ import annotations

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).parent.parent / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_each_mutant_s_old_text_occurs_exactly_once_in_its_file():
    entries = mutants.load()
    assert entries and mutants.misplaced(entries) == []
