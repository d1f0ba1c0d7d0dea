"""Maximal chain enumeration, labels, step classes, poset-lex order."""

from __future__ import annotations

import itertools
import random

import pytest

import posetmorse.chains as chains_module
from posetmorse import render
from posetmorse.chains import (MaximalChain, StepClass, classify_steps,
                               is_poset_lex, maximal_chains, walk_chains)
from posetmorse.crosscheck import naive_chain_count
from posetmorse.posets import (FactorPoset, IncomparableError, PatternPoset,
                               interval_structure)

TABLE_IDS = [
    (1, 2, 3, 4, 5),
    (1, 2, 3, 6, 4),
    (1, 2, 6, 3, 4),
    (1, 2, 6, 5, 3),
    (1, 6, 2, 3, 4),
    (1, 6, 2, 5, 3),
    (1, 6, 5, 2, 3),
    (6, 1, 2, 3, 4),
    (6, 1, 2, 5, 3),
    (6, 1, 5, 2, 3),
    (6, 5, 1, 2, 3),
    (6, 5, 4, 1, 2),
    (6, 5, 4, 3, 1),
]


def sorted_chains(poset, bottom, top) -> list[MaximalChain]:
    """The oracle for walk_chains: every cover path from the top that
    reaches the bottom's rank at the bottom itself, taken in the order
    poset.down_covers lists them, then sorted by label sequence."""
    target = poset.rank(bottom)
    found = []
    elems, windows, labels = [top], [(0, poset.rank(top))], []

    def descend():
        lo, hi = windows[-1]
        if hi - lo == target:
            if elems[-1] == bottom:
                found.append(MaximalChain(tuple(elems), tuple(windows), tuple(labels)))
            return
        for child, pos in poset.down_covers(elems[-1]):
            elems.append(child)
            windows.append((lo + 1, hi) if pos == 1 else (lo, hi - 1))
            labels.append(lo + pos)
            descend()
            elems.pop()
            windows.pop()
            labels.pop()

    descend()
    found.sort(key=lambda c: c.labels)
    return found


def assert_walk_matches_the_oracle(poset, top, bottoms) -> dict:
    """One walk for all of bottoms lists each bottom's chains as the sorted
    oracle does, and the MSIs it carries down a path are a function of the
    path: the spans of a chain that end before rank d are the same for
    every chain, under any bottom, through the same first d + 1 elements.
    Each chain's spans lie in its interior and rise in both ends.
    Returns the walk."""
    walk = walk_chains(poset, top, bottoms)
    assert list(walk) == list(bottoms)
    carried = {}
    for bottom in bottoms:
        chains, msis = walk[bottom]
        assert chains == sorted_chains(poset, bottom, top)
        assert len(msis) == len(chains)
        for chain, spans in zip(chains, msis):
            assert all(1 <= i <= j < chain.steps for i, j in spans)
            assert all(a < c and b < d for (a, b), (c, d) in zip(spans, spans[1:]))
            for d in range(len(chain.elements)):
                head = tuple(s for s in spans if s[1] < d)
                assert carried.setdefault(chain.elements[:d + 1], head) == head
    return walk


def test_thirteen_chains_of_the_reference_interval():
    chains = maximal_chains(PatternPoset(), (1,), (2, 1, 3, 5, 4, 6))
    assert [c.labels for c in chains] == TABLE_IDS
    assert render.bracketed_id(chains[0].labels) == "1-2-3-4-5"
    assert render.bracketed_id(chains[-1].labels) == "6-5-4-3-1"


def test_chain_elements_and_windows():
    chains = maximal_chains(PatternPoset(), (1,), (2, 1, 3, 5, 4, 6))
    first = chains[0]
    assert first.elements[0] == (2, 1, 3, 5, 4, 6)
    assert first.elements[-1] == (1,)
    assert first.steps == 5
    assert list(first.open_indices()) == [1, 2, 3, 4]
    assert first.elements == (
        (2, 1, 3, 5, 4, 6), (1, 2, 4, 3, 5), (1, 3, 2, 4), (2, 1, 3),
        (1, 2), (1,))
    assert first.windows == ((0, 6), (1, 6), (2, 6), (3, 6), (4, 6), (5, 6))
    last = chains[-1]
    assert last.elements == (
        (2, 1, 3, 5, 4, 6), (2, 1, 3, 5, 4), (2, 1, 3, 4), (2, 1, 3),
        (2, 1), (1,))


def test_chain_listing_reads_the_order_relation_once(monkeypatch):
    # only the entry check compares; the walk follows the cover rule alone
    calls = []
    real = PatternPoset.leq
    monkeypatch.setattr(PatternPoset, "leq",
                        lambda self, x, y: calls.append((x, y)) or real(self, x, y))
    chains = maximal_chains(PatternPoset(), (1,), (2, 1, 3, 5, 4, 6))
    assert len(chains) == 13
    assert calls == [((1,), (2, 1, 3, 5, 4, 6))]


def test_diamond_interval_chain_ids():
    chains = maximal_chains(PatternPoset(), (1, 2, 3), (2, 1, 3, 5, 4))
    assert [c.labels for c in chains] == [(1, 5), (5, 1)]


def test_word_chain_ids():
    chains = maximal_chains(FactorPoset(), (), tuple("aab"))
    assert [c.labels for c in chains] == [(1, 2, 3), (1, 3, 2), (3, 1, 2)]
    elements = [c.elements for c in chains]
    assert (tuple("aab"), tuple("aa"), ("a",), ()) in elements


def test_single_point_interval():
    chains = maximal_chains(PatternPoset(), (2, 1), (2, 1))
    assert len(chains) == 1
    assert chains[0].labels == ()
    assert chains[0].elements == ((2, 1),)


def test_incomparable_raises():
    with pytest.raises(IncomparableError):
        maximal_chains(PatternPoset(), (1, 2), (2, 1))


def test_a_one_bottom_walk_builds_only_that_bottom_s_chains(monkeypatch):
    built = []

    def counting(elements, windows, labels):
        built.append(elements[-1])
        return MaximalChain(elements, windows, labels)

    monkeypatch.setattr(chains_module, "MaximalChain", counting)
    p, top = PatternPoset(), (2, 1, 3, 5, 4, 6)
    for bottom in ((1,), (1, 2), (1, 2, 3), (2, 1, 3)):
        built.clear()
        chains = maximal_chains(p, bottom, top)
        assert chains == sorted_chains(p, bottom, top)
        assert built == [bottom] * len(chains)
        built.clear()
        walk = walk_chains(p, top, [bottom])
        assert list(walk) == [bottom] and walk[bottom][0] == chains
        assert built == [bottom] * len(chains)
    built.clear()
    assert walk_chains(p, top, []) == {} and built == []


def test_chain_count_matches_naive_descent():
    p = PatternPoset()
    for n in range(1, 6):
        for top in itertools.permutations(range(1, n + 1)):
            for bottom in sorted(p.down_set(top)):
                chains = maximal_chains(p, bottom, top)
                interval = interval_structure(p, bottom, top)
                assert len(chains) == naive_chain_count(p, interval)[0]
                assert len({c.labels for c in chains}) == len(chains)


def test_classify_steps_on_the_last_chain():
    chains = maximal_chains(PatternPoset(), (1,), (2, 1, 3, 5, 4, 6))
    classes = classify_steps(chains[-1])
    assert classes == (StepClass.WEAK_DESCENT, StepClass.WEAK_DESCENT,
                       StepClass.WEAK_DESCENT, StepClass.STRONG_DESCENT)
    assert classify_steps(chains[0]) == (
        StepClass.ASCENT, StepClass.ASCENT, StepClass.ASCENT,
        StepClass.ASCENT)


def test_is_poset_lex_accepts_the_generated_order():
    chains = maximal_chains(PatternPoset(), (1,), (2, 1, 3, 5, 4, 6))
    assert is_poset_lex(chains)
    wchains = maximal_chains(FactorPoset(), (), tuple("abab"))
    assert is_poset_lex(wchains)


def test_is_poset_lex_rejects_bad_shuffles():
    chains = maximal_chains(PatternPoset(), (1,), (2, 1, 3, 5, 4, 6))
    # a chain starting with 6 placed inside the block starting with 1
    shuffled = [chains[0], chains[7]] + chains[1:7] + chains[8:]
    assert not is_poset_lex(shuffled)
    assert not is_poset_lex([chains[0], chains[0]])


def test_strictly_rising_label_sequences_are_poset_lex():
    # in a sorted list of distinct equal-length tuples, the tuples sharing
    # any prefix stand together: check_interval's strict-rise gate implies
    # its duplicate, sort and poset-lex checks
    rng = random.Random(2005)
    for _ in range(3000):
        steps, letters = rng.randint(0, 6), rng.randint(1, 4)
        ids = sorted({tuple(rng.randint(1, letters) for _ in range(steps))
                      for _ in range(rng.randint(1, 20))})
        # only the labels are read
        assert is_poset_lex([MaximalChain((), (), labels) for labels in ids])
    p = PatternPoset()
    listings = 0
    for n in range(1, 7):
        for top in itertools.permutations(range(1, n + 1)):
            for chains, _ in walk_chains(p, top, p.down_set(top)).values():
                ids = [c.labels for c in chains]
                assert all(a < b for a, b in zip(ids, ids[1:]))
                assert is_poset_lex(chains)
                listings += 1
    assert listings == 10087  # every interval of the size-6 sweep


def _is_poset_lex_by_pairs(order):
    """The definition, pair by pair: the reference for is_poset_lex."""
    chains_list = list(order)
    if len(chains_list) <= 1:
        return True
    prefix_span = {}
    for pos, chain in enumerate(chains_list):
        for t in range(1, len(chain.labels) + 1):
            span = prefix_span.setdefault(chain.labels[:t], [pos, pos])
            span[0] = min(span[0], pos)
            span[1] = max(span[1], pos)
    for p in range(len(chains_list)):
        a = chains_list[p].labels
        for q in range(p + 1, len(chains_list)):
            b = chains_list[q].labels
            t = next((i for i in range(min(len(a), len(b))) if a[i] != b[i]), None)
            if t is None:
                return False
            if prefix_span[a[:t + 1]][1] > prefix_span[b[:t + 1]][0]:
                return False
    return True


def test_is_poset_lex_matches_the_pairwise_definition():
    # every ordering of every chain list of at most six chains (pattern and
    # factor tops of length <= 5), and every list with one chain repeated
    p, f = PatternPoset(), FactorPoset()
    tops = [(p, top) for n in range(1, 6)
            for top in itertools.permutations(range(1, n + 1))]
    tops += [(f, top) for n in range(6) for top in itertools.product("ab", repeat=n)]
    lists = {}
    for poset, top in tops:
        for bottom in poset.down_set(top):
            chains = maximal_chains(poset, bottom, top)
            if len(chains) <= 6:
                lists.setdefault(tuple(c.labels for c in chains), chains)
    assert len(lists) > 1
    for chains in lists.values():
        for order in itertools.permutations(chains):
            assert is_poset_lex(order) == _is_poset_lex_by_pairs(order)
        for chain in chains:
            for at in range(len(chains) + 1):
                order = chains[:at] + [chain] + chains[at:]
                assert not is_poset_lex(order)
                assert not _is_poset_lex_by_pairs(order)
    gap0 = maximal_chains(p, (2, 1), (2, 1))
    assert not is_poset_lex(gap0 + gap0)
