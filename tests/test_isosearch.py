"""Interval structure extraction and the backtracking isomorphism matcher."""

from __future__ import annotations

import hashlib

import pytest

import posetmorse.isosearch as isosearch
from posetmorse.isosearch import (_canonical_words, certificate, colours,
                                  find_isomorphism, iso_search_json,
                                  iso_search_text, run_iso_search)
from posetmorse.posets import (FactorPoset, IntervalStructure, PatternPoset,
                               interval_structure)
from posetmorse.render import dump_json


def match(a, b):
    """As run_iso_search pairs two structures: the matcher on their
    colours where their certificates are equal, else None."""
    la, lb = colours(a), colours(b)
    return find_isomorphism(a, la, b, lb) if certificate(la) == certificate(lb) else None


def test_interval_structure_sizes():
    p = PatternPoset()
    s = interval_structure(p, (1, 2, 3), (2, 1, 3, 5, 4))
    assert s.size == 4
    f = FactorPoset()
    t = interval_structure(f, (), tuple("aab"))
    assert t.size == 6


def test_diamonds_match():
    p = PatternPoset()
    f = FactorPoset()
    diamond = interval_structure(p, (1, 2, 3), (2, 1, 3, 5, 4))
    word_diamond = interval_structure(f, ("a",), tuple("aba"))
    assert certificate(colours(diamond)) == certificate(colours(word_diamond))
    image = match(diamond, word_diamond)
    assert image is not None
    assert sorted(image) == [0, 1, 2, 3]


def test_chains_of_equal_length_match():
    p = PatternPoset()
    f = FactorPoset()
    a = interval_structure(p, (1,), (1, 2, 3))
    b = interval_structure(f, (), tuple("aa"))
    assert match(a, b) is not None


def test_non_isomorphic_intervals_do_not_match():
    f = FactorPoset()
    four_chain = interval_structure(f, (), tuple("aaa"))
    diamond = interval_structure(f, (), tuple("ab"))
    assert four_chain.size == diamond.size == 4
    assert match(four_chain, diamond) is None
    small = interval_structure(f, (), ("a",))
    assert match(four_chain, small) is None


def test_certificates_compare_across_structures():
    # refinement splits every element of both apart; colours numbered per
    # structure gave the two the same certificate
    p = PatternPoset()
    f = FactorPoset()
    four_ranks = interval_structure(p, (1,), (1, 2, 4, 3))
    six_chain = interval_structure(f, (), tuple("aaaaa"))
    assert four_ranks.size == six_chain.size == 6
    assert certificate(colours(four_ranks)) != certificate(colours(six_chain))
    assert match(four_ranks, six_chain) is None


def test_found_map_preserves_order_both_ways():
    p = PatternPoset()
    f = FactorPoset()
    a = interval_structure(p, (1,), (2, 1, 3))
    b = interval_structure(f, (), tuple("ab"))
    image = match(a, b)
    assert image is not None
    for i in range(a.size):
        for j in range(a.size):
            assert (j in a.ups[i]) == (image[j] in b.ups[image[i]])


def test_the_matcher_checks_below_as_well_as_above():
    # with colours that tell no element apart, a two-chain and a two-element
    # antichain agree on what lies above each element matched first
    chain = IntervalStructure(("x", "y"), (frozenset({1}), frozenset()))
    antichain = IntervalStructure(("x", "y"), (frozenset(), frozenset()))
    assert find_isomorphism(chain, [0, 0], antichain, [0, 0]) is None
    assert find_isomorphism(antichain, [0, 0], chain, [0, 0]) is None


def test_canonical_words_skip_relabelings():
    words = list(_canonical_words(("a", "b"), 3))
    assert ("a",) in words
    assert ("b",) not in words
    assert ("a", "a", "b") in words
    assert ("b", "b", "a") not in words


def _stirling2(n, k):
    """The number of partitions of an n-set into k blocks."""
    if n == 0 or k == 0:
        return int(n == k)
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


@pytest.mark.parametrize("letters", ["a", "ab", "abc", "abcd"])
def test_canonical_words_are_counted_by_set_partitions(letters):
    # a canonical word of length n is a set partition of its positions into
    # at most k blocks, the blocks named by first appearance
    k, cap = len(letters), 7
    by_length = [0] * (cap + 1)
    for w in _canonical_words(tuple(letters), cap):
        by_length[len(w)] += 1
    assert by_length == [1] + [sum(_stirling2(n, j) for j in range(1, k + 1))
                               for n in range(1, cap + 1)]
    if k == 2:
        assert by_length[1:] == [2 ** (n - 1) for n in range(1, cap + 1)]
    if k == 3:
        assert by_length[1:] == [(3 ** (n - 1) + 1) // 2 for n in range(1, cap + 1)]


def test_run_iso_search_small():
    report = run_iso_search(3, 3)
    assert len(report.entries) == 27
    assert report.matched == 27
    by_pair = {(e.bottom, e.top): e for e in report.entries}
    entry = by_pair[("1", "213")]
    assert entry.matched
    assert entry.word_top in ("ab", "aa")


def test_the_matcher_has_the_final_word_and_the_first_confirmed_match_is_kept(monkeypatch):
    # no two intervals searched share a certificate without being
    # isomorphic, so only a stand-in matcher shows what a rejection does
    asked = []

    def matcher(verdict):
        return lambda *args: asked.append(args) or verdict

    monkeypatch.setattr(isosearch, "find_isomorphism", matcher(None))
    report = run_iso_search(3, 3)
    assert report.matched == 0
    assert {(e.word_bottom, e.word_top) for e in report.entries} == {(None, None)}
    assert len(asked) > len(report.entries)
    asked.clear()
    monkeypatch.setattr(isosearch, "find_isomorphism", matcher([]))
    assert run_iso_search(3, 3).matched == len(asked) == 27


def test_the_catalogue_at_pattern_cap_5_and_word_cap_7_is_pinned():
    # every entry, and the first isomorphic word interval of each, as the
    # command prints them with --format json
    report = run_iso_search(5, 7)
    assert (len(report.entries), report.matched) == (1211, 1191)
    assert hashlib.sha256(dump_json(iso_search_json(report)).encode()).hexdigest() == (
        "05436f4ac09f7e05a1b341f42e81afcecb6dfd310fd9ab194759e04423404be9")


def test_iso_search_text_names_the_unmatched_intervals():
    text = iso_search_text(run_iso_search(2, 0))
    assert text.splitlines() == [
        "isomorphism search: pattern tops to 2, word tops to 0 over {a,b}",
        "intervals: 5, matched: 3",
        "  [1, 1]  ~  [eps, eps]",
        "  [1, 12]  unmatched",
        "  [12, 12]  ~  [eps, eps]",
        "  [1, 21]  unmatched",
        "  [21, 21]  ~  [eps, eps]",
    ]
