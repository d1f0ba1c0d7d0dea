"""Permutation primitives: standardization, containment, covers, affixes."""

from __future__ import annotations

import itertools

import pytest

from posetmorse.perms import (as_permutation, down_covers, exterior,
                              format_permutation, interior, is_monotone,
                              leq_consecutive, parse_permutation, standardize)


def test_standardize_values():
    assert standardize((5, 3, 4)) == (3, 1, 2)
    assert standardize((5, 3, 4, 1)) == (4, 2, 3, 1)
    assert standardize((7,)) == (1,)
    assert standardize((1, 3, 5, 4)) == (1, 2, 4, 3)
    with pytest.raises(ValueError):
        standardize(())


def test_standardize_is_idempotent():
    for n in range(1, 6):
        for p in itertools.permutations(range(1, n + 1)):
            assert standardize(p) == p


def test_standardize_rejects_duplicates():
    with pytest.raises(ValueError):
        standardize((1, 2, 2))


def test_as_permutation_validates():
    assert as_permutation([2, 1, 3]) == (2, 1, 3)
    with pytest.raises(ValueError):
        as_permutation([1, 3])
    with pytest.raises(ValueError):
        as_permutation([0, 1])


def test_is_monotone():
    assert is_monotone((1,))
    assert is_monotone((1, 2, 3))
    assert is_monotone((3, 2, 1))
    assert not is_monotone((2, 1, 3))


def test_leq_consecutive_known_pairs():
    assert leq_consecutive((1,), (2, 1, 3, 5, 4, 6))
    assert leq_consecutive((2, 1, 3), (2, 1, 3, 5, 4))
    assert leq_consecutive((1, 2), (1, 2, 3))
    # 123 occurs in 12345 only as a window, and it does
    assert leq_consecutive((1, 2, 3), (1, 2, 3, 4, 5))
    # 132 needs a non-final descent inside some window of 1234
    assert not leq_consecutive((1, 3, 2), (1, 2, 3, 4))
    assert not leq_consecutive((1, 2), (2, 1))
    # classical containment without a consecutive window
    assert not leq_consecutive((1, 2, 3), (1, 4, 2, 5, 3))


def test_leq_consecutive_is_reflexive_and_length_gated():
    for n in range(1, 5):
        for p in itertools.permutations(range(1, n + 1)):
            assert leq_consecutive(p, p)
    assert not leq_consecutive((1, 2, 3), (2, 1))


def test_down_covers_shape():
    assert down_covers((2, 1, 3)) == [((2, 1), 3), ((1, 2), 1)]
    # monotone permutations have a single cover, taken on the suffix side
    assert down_covers((1, 2, 3)) == [((1, 2), 1)]
    assert down_covers((2, 1)) == [((1,), 1)]
    with pytest.raises(ValueError):
        down_covers((1,))


def test_affix_interior_exterior():
    tau = (2, 1, 3, 5, 4, 6)
    assert interior(tau) == (1, 2, 4, 3)
    assert exterior(tau) == (2, 1, 3)
    assert exterior((1, 2, 3)) == (1, 2)
    assert exterior((2, 1)) == (1,)
    with pytest.raises(ValueError):
        interior((1, 2))
    with pytest.raises(ValueError):
        exterior((1,))


def test_exterior_is_longest_common_affix_pattern():
    for n in range(2, 6):
        for p in itertools.permutations(range(1, n + 1)):
            x = exterior(p)
            k = len(x)
            assert standardize(p[:k]) == x == standardize(p[n - k:])
            for longer in range(k + 1, n):
                assert standardize(p[:longer]) != standardize(p[n - longer:])


def test_format_and_parse_round_trip():
    assert format_permutation((2, 1, 3, 5, 4, 6)) == "213546"
    assert parse_permutation("213546") == (2, 1, 3, 5, 4, 6)
    long = tuple(range(1, 11))
    assert format_permutation(long) == "1,2,3,4,5,6,7,8,9,10"
    assert parse_permutation("1,2,3,4,5,6,7,8,9,10") == long
    with pytest.raises(ValueError):
        parse_permutation("badinput")
    with pytest.raises(ValueError):
        parse_permutation("122")
