"""Interval structure extraction and the backtracking isomorphism matcher."""

from __future__ import annotations

from posetmorse.isosearch import (_canonical_words, certificate,
                                  find_isomorphism, run_iso_search)
from posetmorse.posets import FactorPoset, PatternPoset, interval_structure


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
    assert certificate(diamond) == certificate(word_diamond)
    image = find_isomorphism(diamond, word_diamond)
    assert image is not None
    assert sorted(image) == [0, 1, 2, 3]


def test_chains_of_equal_length_match():
    p = PatternPoset()
    f = FactorPoset()
    a = interval_structure(p, (1,), (1, 2, 3))
    b = interval_structure(f, (), tuple("aa"))
    assert find_isomorphism(a, b) is not None


def test_non_isomorphic_intervals_do_not_match():
    f = FactorPoset()
    four_chain = interval_structure(f, (), tuple("aaa"))
    diamond = interval_structure(f, (), tuple("ab"))
    assert four_chain.size == diamond.size == 4
    assert find_isomorphism(four_chain, diamond) is None
    small = interval_structure(f, (), ("a",))
    assert find_isomorphism(four_chain, small) is None


def test_found_map_preserves_order_both_ways():
    p = PatternPoset()
    f = FactorPoset()
    a = interval_structure(p, (1,), (2, 1, 3))
    b = interval_structure(f, (), tuple("ab"))
    image = find_isomorphism(a, b)
    assert image is not None
    for i in range(a.size):
        for j in range(a.size):
            assert (j in a.ups[i]) == (image[j] in b.ups[image[i]])


def test_canonical_words_skip_relabelings():
    words = list(_canonical_words(("a", "b"), 3))
    assert ("a",) in words
    assert ("b",) not in words
    assert ("a", "a", "b") in words
    assert ("b", "b", "a") not in words


def test_run_iso_search_small():
    report = run_iso_search(3, 3)
    assert len(report.entries) == 27
    assert report.matched == 27
    by_pair = {(e.bottom, e.top): e for e in report.entries}
    entry = by_pair[("1", "213")]
    assert entry.matched
    assert entry.word_top in ("ab", "aa")
