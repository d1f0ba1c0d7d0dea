"""Run the usage examples embedded in module docstrings."""

from __future__ import annotations

import doctest

import pytest

import posetmorse.bijection
import posetmorse.closed_form
import posetmorse.crosscheck
import posetmorse.morse
import posetmorse.perms
import posetmorse.words

MODULES = [
    posetmorse.bijection,
    posetmorse.closed_form,
    posetmorse.crosscheck,
    posetmorse.morse,
    posetmorse.perms,
    posetmorse.words,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
