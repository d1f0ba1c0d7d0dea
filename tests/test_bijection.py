"""The order isomorphism between {a,b}* and {213,231}-avoiding permutations."""

from __future__ import annotations

import itertools

import pytest

import posetmorse.bijection as bijection
import posetmorse.cli as cli
from posetmorse.bijection import (avoids_213_231, perm_to_word,
                                  verify_isomorphism, word_to_perm)
from posetmorse.perms import leq_consecutive, standardize
from posetmorse.words import is_factor


def test_word_to_perm_values():
    assert word_to_perm(tuple("abbab")) == (1, 6, 5, 2, 4, 3)
    assert word_to_perm(tuple("babab")) == (6, 1, 5, 2, 4, 3)
    assert word_to_perm(()) == (1,)
    assert word_to_perm(("a",)) == (1, 2)
    assert word_to_perm(("b",)) == (2, 1)
    with pytest.raises(ValueError):
        word_to_perm(("c",))


def test_perm_to_word_values():
    assert perm_to_word((1, 2, 3, 4, 5)) == tuple("aaaa")
    assert perm_to_word((1, 5, 2, 3, 4)) == tuple("abaa")
    assert perm_to_word((1,)) == ()
    with pytest.raises(ValueError, match="position 1"):
        perm_to_word((2, 1, 3))


def test_round_trip_both_ways():
    for n in range(0, 8):
        for w in itertools.product("ab", repeat=n):
            assert perm_to_word(word_to_perm(w)) == w


def test_avoids_213_231_matches_naive_containment():
    def contains_classically(p, pat):
        return any(
            standardize(sub) == pat
            for sub in itertools.combinations(p, len(pat)))

    for n in range(1, 7):
        for p in itertools.permutations(range(1, n + 1)):
            naive = not (contains_classically(p, (2, 1, 3))
                         or contains_classically(p, (2, 3, 1)))
            assert avoids_213_231(p) == naive


def test_avoider_counts_are_powers_of_two():
    for m in range(1, 8):
        count = sum(
            1 for p in itertools.permutations(range(1, m + 1))
            if avoids_213_231(p))
        assert count == 2 ** (m - 1)


def test_image_is_exactly_the_avoider_set():
    for m in range(1, 7):
        image = {word_to_perm(w) for w in itertools.product("ab", repeat=m - 1)}
        avoiders = {
            p for p in itertools.permutations(range(1, m + 1))
            if avoids_213_231(p)}
        assert image == avoiders


def test_order_isomorphism_explicitly():
    words = [w for n in range(0, 6) for w in itertools.product("ab", repeat=n)]
    for u in words:
        for w in words:
            assert is_factor(u, w) == leq_consecutive(
                word_to_perm(u), word_to_perm(w))


def test_verify_isomorphism_report():
    report = verify_isomorphism(5)
    assert report.ok
    assert report.max_length == 5
    assert report.words_checked == 31
    assert report.order_violations == 0
    assert report.roundtrip_failures == 0
    assert report.image_mismatches == 0
    assert report.avoider_counts[5] == (16, 16)
    with pytest.raises(ValueError):
        verify_isomorphism(1)
    with pytest.raises(ValueError):
        verify_isomorphism(9)


def test_verify_isomorphism_counts_each_kind_of_failure(monkeypatch, capsys):
    # a map that swaps the images of ab and ba breaks the order and the
    # round trip but keeps each length's image set; an inverse that
    # returns the empty word breaks the round trip and, through
    # avoids_213_231, makes every permutation an avoider
    swapped = {("a", "b"): word_to_perm(("b", "a")), ("b", "a"): word_to_perm(("a", "b"))}
    monkeypatch.setattr(bijection, "word_to_perm", lambda w: swapped.get(w) or word_to_perm(w))
    report = verify_isomorphism(4)
    assert report.order_violations > 0 and report.roundtrip_failures == 2
    assert report.image_mismatches == 0 and not report.ok

    monkeypatch.undo()
    monkeypatch.setattr(bijection, "perm_to_word", lambda p: ())
    report = verify_isomorphism(4)
    assert report.order_violations == 0 and report.roundtrip_failures == 14
    assert report.image_mismatches == 2 and not report.ok
    assert report.avoider_counts[4] == (24, 8)

    code = cli.main(["bijection", "verify", "--max-length", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.endswith("failed: 0 order violations, 14 round-trip failures, "
                        "2 image mismatches\n")
