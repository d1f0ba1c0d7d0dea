"""Word primitives for factor order: factors, flats, borders, covers."""

from __future__ import annotations

import itertools
import random

import pytest

from posetmorse import words
from posetmorse.words import (as_word, down_covers_word, format_word,
                              inner_word, is_factor, is_flat, outer_word,
                              parse_word)


def w(text):
    return tuple(text)


def all_slices(top):
    """The definition of the down-set: every factor of top, of every
    width, the empty word included."""
    n = len(top)
    return frozenset(top[lo:lo + width] for width in range(n + 1) for lo in range(n - width + 1))


# every word over {a,b} of length <= 8, then two seeded ones over {a,b,c} at each length 12 to 16
SMALL = [u for n in range(9) for u in itertools.product("ab", repeat=n)]
_rng = random.Random(1241)
LONG = [tuple(_rng.choices("abc", k=n)) for n in range(12, 17) for _ in range(2)]


def test_is_factor_basics():
    assert is_factor(w("ab"), w("aabb"))
    assert is_factor(w("abb"), w("bbabb"))
    assert not is_factor(w("aa"), w("abab"))
    assert is_factor((), w("ab"))
    assert is_factor((), ())
    assert not is_factor(w("ab"), w("a"))
    assert is_factor(w("ab"), w("ab"))


def test_is_factor_matches_naive_scan():
    alphabet = ("a", "b")
    for n in range(0, 6):
        for top in itertools.product(alphabet, repeat=n):
            for m in range(0, n + 1):
                for u in itertools.product(alphabet, repeat=m):
                    naive = any(top[i:i + m] == u for i in range(n - m + 1))
                    assert is_factor(u, top) == naive


def test_is_flat():
    assert is_flat(w("a"))
    assert is_flat(w("aaa"))
    assert not is_flat(w("aab"))
    with pytest.raises(ValueError):
        is_flat(())


def test_inner_and_outer_word():
    assert inner_word(w("aabb")) == w("ab")
    assert inner_word(w("ab")) == ()
    with pytest.raises(ValueError):
        inner_word(w("a"))
    assert outer_word(w("aba")) == w("a")
    assert outer_word(w("aabb")) == ()
    assert outer_word(w("aa")) == w("a")
    assert outer_word(w("abab")) == w("ab")
    assert outer_word(w("abbabb")) == w("abb")
    with pytest.raises(ValueError):
        outer_word(())


def test_outer_word_is_longest_proper_border():
    for n in range(1, 7):
        for word in itertools.product("ab", repeat=n):
            border = outer_word(word)
            k = len(border)
            assert k < n
            assert word[:k] == border == word[n - k:]
            for longer in range(k + 1, n):
                assert word[:longer] != word[n - longer:]


def test_down_covers_word():
    assert down_covers_word(w("aab")) == ((w("aa"), 3), (w("ab"), 1))
    # flat words lose their first letter only
    assert down_covers_word(w("aaa")) == ((w("aa"), 1),)
    assert down_covers_word(w("b")) == (((), 1),)
    with pytest.raises(ValueError):
        down_covers_word(())


def test_as_word_validates_alphabet():
    assert as_word("aba", ("a", "b")) == w("aba")
    with pytest.raises(ValueError):
        as_word("abc", ("a", "b"))


def test_format_and_parse_word():
    assert format_word(w("aba")) == "aba"
    assert format_word(()) == ""
    assert parse_word("aba", ("a", "b")) == w("aba")
    for empty in ("", "eps", "ε"):
        assert parse_word(empty, ("a", "b")) == ()
    with pytest.raises(ValueError):
        parse_word("abc", ("a", "b"))


def test_a_letter_or_a_word_over_the_alphabet_comes_before_eps():
    assert parse_word("ab", ("ab", "cd")) == ("ab",)
    assert parse_word("bb", ("a", "bb")) == ("bb",)
    assert parse_word("eps", ("e", "p", "s")) == w("eps")
    assert parse_word("eps", ("eps",)) == ("eps",)
    assert parse_word("ε", ("ε",)) == ("ε",)
    assert parse_word("eps", ("ab", "cd")) == ()


def test_the_down_set_is_every_factor():
    for top in SMALL + LONG:
        assert words._factor_set(top) == all_slices(top)


def test_a_cold_down_set_builds_each_factor_once():
    for top in LONG[-2:]:
        words._factor_set.cache_clear()
        assert words._factor_set(top) == all_slices(top)
        assert words._factor_set.cache_info().misses == len(all_slices(top))
