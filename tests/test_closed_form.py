"""Closed-form Mobius recursions against the brute-force oracle."""

from __future__ import annotations

import itertools

import pytest

from posetmorse.closed_form import mobius_factor, mobius_pattern
from posetmorse.posets import (FactorPoset, IncomparableError, PatternPoset,
                               interval_structure, mobius_bruteforce)


def test_pattern_point_values():
    assert mobius_pattern((1,), (1,)) == 1
    assert mobius_pattern((1,), (1, 2)) == -1
    assert mobius_pattern((1, 2), (1, 2, 3)) == -1
    assert mobius_pattern((1,), (2, 1, 3)) == 1
    assert mobius_pattern((1, 2), (1, 2, 3, 4)) == 0
    assert mobius_pattern((1, 2, 3), (2, 1, 3, 5, 4)) == 1
    assert mobius_pattern((1,), (2, 1, 3, 5, 4, 6)) == 1


def test_factor_point_values():
    assert mobius_factor((), ()) == 1
    assert mobius_factor((), ("a",)) == -1
    assert mobius_factor(("b",), tuple("abb")) == 1
    assert mobius_factor(("b",), tuple("aabb")) == 0
    assert mobius_factor(("a",), tuple("aaa")) == 0
    assert mobius_factor(("a",), tuple("aba")) == 1
    assert mobius_factor((), tuple("aab")) == 0


def test_incomparable_raises():
    with pytest.raises(IncomparableError):
        mobius_pattern((1, 2), (2, 1))
    with pytest.raises(IncomparableError):
        mobius_factor(("a",), ("b", "b"))


def test_pattern_matches_bruteforce_exhaustively():
    p = PatternPoset()
    for n in range(1, 6):
        for top in itertools.permutations(range(1, n + 1)):
            for bottom in sorted(p.down_set(top)):
                assert mobius_pattern(bottom, top) == mobius_bruteforce(
                    p, interval_structure(p, bottom, top))


def test_factor_matches_bruteforce_exhaustively():
    f = FactorPoset()
    for n in range(0, 6):
        for top in itertools.product(("a", "b"), repeat=n):
            for bottom in sorted(f.down_set(top), key=len):
                assert mobius_factor(bottom, top) == mobius_bruteforce(
                    f, interval_structure(f, bottom, top))


def test_values_stay_in_range():
    p = PatternPoset()
    for n in range(1, 6):
        for top in itertools.permutations(range(1, n + 1)):
            for bottom in sorted(p.down_set(top)):
                assert mobius_pattern(bottom, top) in (-1, 0, 1)


def test_both_posets_agree_through_the_bijection():
    # word_to_perm is an order isomorphism from factor order on {a,b}* onto
    # the {213,231}-avoiders, so mu must agree on every image interval.
    from posetmorse.bijection import word_to_perm
    from posetmorse.words import _factor_set

    pairs = 0
    for n in range(0, 8):
        for w in itertools.product(("a", "b"), repeat=n):
            for u in _factor_set(w):
                pairs += 1
                assert mobius_factor(u, w) == mobius_pattern(
                    word_to_perm(u), word_to_perm(w)), (u, w)
    assert pairs == 4093
