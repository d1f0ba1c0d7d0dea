"""Permutation primitives: standardization, containment, covers, affixes."""

from __future__ import annotations

import itertools
import random

import pytest

import posetmorse.perms as perms
from posetmorse.perms import (as_permutation, down_covers, exterior,
                              format_permutation, interior, is_monotone,
                              leq_consecutive, parse_permutation, standardize)
from posetmorse.posets import PatternPoset


def all_windows(tau):
    """The definition of the down-set: every contiguous window of tau, of
    every width, standardized."""
    n = len(tau)
    return frozenset(standardize(tau[lo:lo + width])
                     for width in range(1, n + 1) for lo in range(n - width + 1))


# every permutation of length <= 7, then two seeded ones at each length 12 to 40
SMALL = [p for n in range(1, 8) for p in itertools.permutations(range(1, n + 1))]
_rng = random.Random(1240)
LONG = [tuple(_rng.sample(range(1, n + 1), n)) for n in range(12, 41) for _ in range(2)]


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


def test_the_down_set_is_every_window_pattern():
    for tau in SMALL + LONG:
        assert perms._window_patterns(tau) == all_windows(tau)


def test_a_cold_down_set_standardizes_each_new_permutation_at_most_twice(monkeypatch):
    calls = []

    def counting(seq):
        calls.append(seq)
        return standardize(seq)

    perms._window_patterns.cache_clear()
    monkeypatch.setattr(perms, "standardize", counting)
    for tau in LONG[-2:]:
        down = perms._window_patterns(tau)
        assert down == all_windows(tau)
    new = perms._window_patterns.cache_info().misses
    assert new == len(all_windows(LONG[-2]) | all_windows(LONG[-1]))
    assert len(calls) <= 2 * new


def test_the_order_relation_reads_no_cover_rule(monkeypatch):
    # brute force, the Euler column and the chain count read leq and the
    # down-set; the Morse route reads the cover rule, so a wrong cover rule
    # shows as a disagreement only while the order relation ignores it
    def cover_rule(*args):
        raise AssertionError("the order relation read the cover rule")

    perms._window_patterns.cache_clear()
    monkeypatch.setattr(perms, "down_covers", cover_rule)
    monkeypatch.setattr(perms, "is_monotone", cover_rule)
    poset = PatternPoset(max_top=None)
    for top in LONG[::10]:
        assert poset.down_set(top) == all_windows(top)
    for tau in itertools.permutations(range(1, 6)):
        for sigma in itertools.permutations(range(1, 4)):
            assert poset.leq(sigma, tau) == (sigma in all_windows(tau))


def test_down_covers_shape():
    assert down_covers((2, 1, 3)) == (((2, 1), 3), ((1, 2), 1))
    # monotone permutations have a single cover, taken on the suffix side
    assert down_covers((1, 2, 3)) == (((1, 2), 1),)
    assert down_covers((2, 1)) == (((1,), 1),)
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


def exterior_by_affixes(tau):
    """The definition of the exterior: the longest proper prefix whose
    standard form is that of the suffix of its length."""
    for k in range(len(tau) - 1, 0, -1):
        p = standardize(tau[:k])
        if p == standardize(tau[-k:]):
            return p
    raise AssertionError("unreachable: length-one affixes always agree")


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, pytest.param(9, marks=pytest.mark.slow)])
def test_exterior_equals_the_affix_oracle_on_every_permutation(n):
    for p in itertools.permutations(range(1, n + 1)):
        assert exterior.__wrapped__(p) == exterior_by_affixes(p), p


def test_exterior_equals_the_affix_oracle_on_long_tops():
    # monotone tops have the longest borders, seeded ones mostly short
    rng = random.Random(6060)
    tops = [t for n in range(2, 61)
            for t in (tuple(range(1, n + 1)), tuple(range(n, 0, -1)),
                      tuple(rng.sample(range(1, n + 1), n)))]
    for tau in tops + LONG:
        assert exterior.__wrapped__(tau) == exterior_by_affixes(tau), tau


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
