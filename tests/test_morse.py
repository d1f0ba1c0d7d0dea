"""Skipped intervals, the disjoint family construction, critical chains."""

from __future__ import annotations

import itertools
import random

import pytest

import posetmorse.cli as cli
import posetmorse.crosscheck as crosscheck
import posetmorse.morse as morse
from posetmorse import render
from posetmorse.chains import maximal_chains, node_table, walk
from posetmorse.morse import (MorseFold, disjoint_family, homotopy_type,
                              minimal_skipped_intervals, mobius_morse,
                              morse_report, skipped_intervals)
from posetmorse.posets import (FactorPoset, PatternPoset, interval_structure,
                               mobius_bruteforce)
from test_chains import sorted_chains

# per-chain minimal skipped intervals of [1, 213546], in chain id order
TABLE_MSIS = [
    [],
    [(4, 4)],
    [(3, 3)],
    [(3, 3), (4, 4)],
    [(2, 2)],
    [(2, 2), (4, 4)],
    [(3, 3)],
    [(1, 1)],
    [(1, 1), (4, 4)],
    [(1, 1), (3, 3)],
    [(2, 2)],
    [(1, 2), (3, 3)],
    [(1, 2), (2, 3), (4, 4)],
]


def test_reference_interval_msis():
    report = morse_report(PatternPoset(), (1,), (2, 1, 3, 5, 4, 6))
    assert [list(d.msis) for d in report.chains] == TABLE_MSIS


def test_reference_interval_family_differs_only_on_last_chain():
    report = morse_report(PatternPoset(), (1,), (2, 1, 3, 5, 4, 6))
    for d in report.chains[:-1]:
        assert d.family == d.msis
    last = report.chains[-1]
    assert list(last.family) == [(1, 2), (3, 3), (4, 4)]
    assert last.critical
    assert last.dim == 2
    assert sum(1 for d in report.chains if d.critical) == 1
    assert report.mobius == 1
    assert report.homotopy == "sphere(2)"


def test_skipped_intervals_direct():
    chains = maximal_chains(PatternPoset(), (1,), (2, 1, 3, 5, 4, 6))
    last = chains[-1]
    skipped = skipped_intervals(last, chains[:-1])
    assert (1, 2) in skipped
    assert (1, 1) not in skipped
    assert minimal_skipped_intervals(last, chains[:-1]) == [
        (1, 2), (2, 3), (4, 4)]
    # the first chain has no earlier chain, hence nothing skipped
    assert skipped_intervals(chains[0], []) == []


def test_disjoint_family_construction():
    assert disjoint_family([]) == []
    assert disjoint_family([(2, 2)]) == [(2, 2)]
    assert disjoint_family([(1, 1), (3, 3)]) == [(1, 1), (3, 3)]
    assert disjoint_family([(1, 2), (2, 3), (4, 4)]) == [
        (1, 2), (3, 3), (4, 4)]
    # an interval thrown out as non-minimal never comes back
    assert disjoint_family([(1, 2), (2, 3), (3, 4), (5, 5)]) == [
        (1, 2), (3, 3), (5, 5)]
    assert disjoint_family([(1, 3), (2, 5)]) == [(1, 3), (4, 5)]


def test_reference_interval_critical_chain():
    report = morse_report(PatternPoset(), (1,), (2, 1, 3, 5, 4, 6))
    assert report.chains[-1].critical and report.chains[-1].dim == 2
    assert not report.chains[0].critical and report.chains[0].dim is None


def _containment_minimal(spans):
    return [s for s in spans
            if not any(t != s and s[0] <= t[0] and t[1] <= s[1] for t in spans)]


def msis_fast(poset, chain) -> list:
    """The fast law of the poset's kind on one chain."""
    return morse._msis_fast(chain, poset.jump)


def fold_of(poset, top, bottoms) -> MorseFold:
    """A MorseFold whose node table reaches down to the lowest of bottoms."""
    return MorseFold(poset, top, node_table(poset, min(bottoms, key=poset.rank), top))


def fold_listing(poset, top, bottoms) -> dict:
    """Maps each of bottoms to its chains of [b, top] and the MSIs
    MorseFold found for them, from one walk for all of bottoms, as
    top_routes makes it for every element under the top."""
    fold = fold_of(poset, top, bottoms)
    path, found = fold.path, {b: ([], []) for b in bottoms}
    by_node = {path.index[b]: found[b] for b in bottoms if b in path.index}

    def visit(d) -> None:
        fold.visit(d)
        at = by_node.get(path.nodes[d])
        if at is not None:
            at[0].append(path.chain(d))
            at[1].append(fold.msis[d])

    walk(path, visit)
    return found


def assert_walk_msis_match_the_oracle(poset, top, bottoms) -> None:
    """One walk for all of bottoms lists each bottom's chains as the sorted
    oracle does, with each chain's difference-block MSIs against the
    earlier chains, as does each bottom's listed report.  The MSIs the
    fold carries down a path are a function of the path: the spans of a
    chain that end before rank d are the same for every chain, under any
    bottom, through the same first d + 1 elements.  Each chain's spans lie
    in its interior and rise in both ends."""
    carried = {}
    for bottom, (chains, msis) in fold_listing(poset, top, bottoms).items():
        assert chains == sorted_chains(poset, bottom, top)
        want = [minimal_skipped_intervals(c, chains[:k]) for k, c in enumerate(chains)]
        assert [list(m) for m in msis] == want
        for chain, spans in zip(chains, msis):
            assert all(1 <= i <= j < chain.steps for i, j in spans)
            assert all(a < c and b < d for (a, b), (c, d) in zip(spans, spans[1:]))
            for d in range(len(chain.elements)):
                head = tuple(s for s in spans if s[1] < d)
                assert carried.setdefault(chain.elements[:d + 1], head) == head
        listed = morse_report(poset, bottom, top).chains
        assert [list(d.msis) for d in listed] == want


def test_msis_fast_pattern_matches_bruteforce():
    # the difference-block route against the definition on every chain, the
    # MSIs of one fold walk per top and the fast law of the poset's kind
    # against both
    p, f = PatternPoset(), FactorPoset()
    tops = [(p, top) for n in range(2, 6)
            for top in itertools.permutations(range(1, n + 1))]
    tops += [(f, top) for n in range(6) for top in itertools.product("ab", repeat=n)]
    for poset, top in tops:
        bottoms = sorted(poset.down_set(top))
        listing = fold_listing(poset, top, bottoms)
        for bottom in bottoms:
            chains, walked = listing[bottom]
            for k, chain in enumerate(chains):
                msis = minimal_skipped_intervals(chain, chains[:k])
                brute = _containment_minimal(skipped_intervals(chain, chains[:k]))
                assert msis == brute
                assert list(walked[k]) == msis
                assert msis_fast(poset, chain) == msis


def test_a_chain_listing_does_no_morse_work(monkeypatch, capsys):
    # the walk only walks: MorseFold finds the MSIs, with one bisection per
    # walk node at depth >= 2, and a listing runs no fold; the Morse route
    # alone walks only the nodes the prune leaves, fewer than every chain
    calls = []
    real = morse.bisect_right
    monkeypatch.setattr(morse, "bisect_right", lambda *a: calls.append(a) or real(*a))
    p, bottom, top = PatternPoset(), (1,), (2, 1, 3, 5, 4, 6)
    assert len(maximal_chains(p, bottom, top)) == 13
    assert cli.main(["chains", "1", "213546"]) == 0
    assert "6-5-4-3-1" in capsys.readouterr().out
    assert calls == []
    full, pruned = fold_walk(p, top, (bottom,), pruned=False), fold_walk(p, top, (bottom,))
    calls.clear()
    assert morse.morse_summary(p, bottom, top).mobius == 1
    assert len(calls) == sum(len(n) >= 2 for n in pruned[1]) < sum(len(n) >= 2 for n in full[1])


def fold_walk(poset, top, bottoms, pruned=True):
    """Each bottom's critical dimensions from one fold walk, pruned or
    full, and the MSIs and disjoint family of every node it visited, by
    the node's label path."""
    fold = fold_of(poset, top, bottoms)
    visit, nodes = fold.pruning_visit if pruned else fold.visit, {}
    labels, msis, family = fold.path.labels, fold.msis, fold.family

    def record(d):
        dead = visit(d)
        nodes[tuple(labels[:d])] = msis[d], family[d]
        return dead

    walk(fold.path, record)
    return {b: tuple(fold.tallies[fold.path.index[b]]) for b in bottoms}, nodes


def test_the_pruned_fold_equals_the_full_fold():
    # with every element as a bottom, on every top of the acceptance ranges
    # (factor order over {a,b} one size further) and on seeded larger tops:
    # each bottom's critical dims, and at every node the pruned walk visits
    # the full walk's MSIs and family, so a dead subtree leaves every later
    # bisection as the whole subtree would
    acceptance = [(poset, top) for poset, max_size in (
        (PatternPoset(), 6), (FactorPoset(), 7), (FactorPoset(("a", "b", "c")), 5))
        for n in range(poset.min_rank, max_size + 1) for top in poset.elements_of_rank(n)]
    assert sum(len(poset.down_set(top)) for poset, top in acceptance) == 10087 + 4093 + 4075
    rng = random.Random(2305)
    seeded = [(PatternPoset(), tuple(rng.sample(range(1, 10), 9))) for _ in range(20)]
    seeded += [(FactorPoset(), tuple(rng.choices("ab", k=10))) for _ in range(20)]
    for poset, top in acceptance + seeded:
        bottoms = sorted(poset.down_set(top))
        (dims, nodes), (full_dims, full_nodes) = (fold_walk(poset, top, bottoms),
                                                  fold_walk(poset, top, bottoms, False))
        assert dims == full_dims
        assert {path: full_nodes[path] for path in nodes} == nodes


def test_the_routes_prune_the_large_interval_walk(monkeypatch):
    # [1, tau] with |tau| = 12, the benchmark's seed-1 large-interval draw:
    # the routes visit at most 200 of the full walk's 2,743 nodes
    p, bottom = PatternPoset(max_top=None), (1,)
    top = p.parse("10,7,2,12,1,5,6,4,8,11,9,3")
    full, every = fold_walk(p, top, (bottom,), pruned=False)
    pruned, kept = fold_walk(p, top, (bottom,))
    assert full == pruned and len(every) == 2743 and len(kept) <= 200
    calls = []
    real = morse.bisect_right
    monkeypatch.setattr(morse, "bisect_right", lambda *a: calls.append(a) or real(*a))
    nodes = sum(len(n) >= 2 for n in kept)
    assert crosscheck.evaluate(p, bottom, top).report.mobius == 0 and len(calls) == nodes
    calls.clear()
    assert morse.morse_summary(p, bottom, top).mobius == 0 and len(calls) == nodes


def test_walk_msis_of_no_chain_and_of_one_step_chains():
    p = PatternPoset()
    # a bottom the walk never reaches has no chain and no MSIs
    assert fold_listing(p, (1, 2), [(2, 1)]) == {(2, 1): ([], [])}
    assert [d.msis for d in morse_report(p, (1,), (1, 2)).chains] == [()]
    assert [d.msis for d in morse_report(p, (2, 1), (2, 1)).chains] == [()]


@pytest.mark.parametrize("poset, bottom, top", [
    (FactorPoset(), (), tuple("aab")), (PatternPoset(), (1,), (1, 2, 4, 3))],
    ids=["factor-aab", "pattern-1243"])
def test_a_span_is_skipped_only_by_a_visit_under_its_start(poset, bottom, top):
    # The third chain, labels 3-1-2 (4-1-2 on 1243), reaches the bottom at
    # index 3 after both earlier chains did, but neither passes through its
    # element at index 1, so (2, 2) is not skipped: a visit counts only
    # inside the subtree of the node before the span's start.
    listed = morse_report(poset, bottom, top).chains
    chains = [d.chain for d in listed]
    assert [c.labels[0] for c in chains] == [1, 1, len(top)]
    assert [list(d.msis) for d in listed] == [[], [(2, 2)], [(1, 1)]]
    assert [minimal_skipped_intervals(c, chains[:k])
            for k, c in enumerate(chains)] == [[], [(2, 2)], [(1, 1)]]


def test_walk_msis_match_the_oracle_on_seeded_length_ten_tops():
    # one [1, tau] and one [eps, w] past the exhaustive range, every chain
    rng = random.Random(2357)
    tau = tuple(rng.sample(range(1, 11), 10))
    w = tuple(rng.choice("ab") for _ in range(10))
    for poset, bottom, top, count in ((PatternPoset(max_top=None), (1,), tau, 234),
                                      (FactorPoset(max_top=None), (), w, 300)):
        listed = morse_report(poset, bottom, top).chains
        chains = [d.chain for d in listed]
        assert len(chains) == count
        assert [list(d.msis) for d in listed] == [
            minimal_skipped_intervals(c, chains[:k]) for k, c in enumerate(chains)]


@pytest.mark.parametrize("poset, max_size", [
    (PatternPoset(), 6), (FactorPoset(), 6), (FactorPoset(("a", "b", "c")), 5)],
    ids=["pattern-6", "factor-ab-6", "factor-abc-5"])
def test_walk_msis_match_the_oracle_on_the_acceptance_sweeps(poset, max_size):
    # one walk per top, every bottom against the sorted listing and the
    # difference blocks
    intervals = 0
    for n in range(poset.min_rank, max_size + 1):
        for top in poset.elements_of_rank(n):
            bottoms = sorted(poset.down_set(top))
            assert_walk_msis_match_the_oracle(poset, top, bottoms)
            intervals += len(bottoms)
    assert intervals == {"pattern": 10087, "factor:a,b": 1537,
                         "factor:a,b,c": 4075}[poset.tag]


def _disjoint_family_reference(msis):
    """
    The iterative construction: repeatedly subtract everything already
    chosen from each interval still in play, permanently throw out the
    results that are empty or properly contain another result, and keep
    the earliest survivor, which must stay contiguous.
    """
    remaining = sorted(msis)
    chosen = []
    covered = set()
    while remaining:
        reduced = [
            (iv, set(range(iv[0], iv[1] + 1)) - covered) for iv in remaining
        ]
        survivors = [
            (iv, pts) for iv, pts in reduced
            if pts and not any(other < pts for _, other in reduced if other)
        ]
        if not survivors:
            break
        pts = survivors[0][1]
        lo, hi = min(pts), max(pts)
        assert len(pts) == hi - lo + 1
        chosen.append((lo, hi))
        covered |= pts
        remaining = [jv for jv, _ in survivors[1:]]
    return chosen


def _containment_free_families(m):
    """Every family of intervals inside [1, m] in which no member contains
    another, listed by increasing start (and so by increasing end)."""
    def extend(family):
        yield family
        a0, b0 = family[-1] if family else (0, 0)
        for a in range(a0 + 1, m + 1):
            for b in range(max(a, b0 + 1), m + 1):
                yield from extend(family + [(a, b)])
    return extend([])


def test_disjoint_family_matches_the_iterative_construction():
    count = 0
    for family in _containment_free_families(8):
        assert disjoint_family(family[::-1]) == _disjoint_family_reference(family)
        count += 1
    assert count == 4862  # the Catalan number C_9


def test_mobius_morse_point_values():
    p = PatternPoset()
    assert mobius_morse(p, (1,), (2, 1, 3, 5, 4, 6)) == 1
    assert mobius_morse(p, (1, 2, 3), (2, 1, 3, 5, 4)) == 1
    assert mobius_morse(p, (1, 2), (1, 2, 3, 4)) == 0
    assert mobius_morse(p, (1,), (1, 2)) == -1
    assert mobius_morse(p, (2, 1), (2, 1)) == 1
    f = FactorPoset()
    assert mobius_morse(f, ("b",), tuple("abb")) == 1
    assert mobius_morse(f, ("b",), tuple("aabb")) == 0
    assert mobius_morse(f, ("a",), tuple("aaa")) == 0
    assert mobius_morse(f, (), tuple("aab")) == 0


def test_overlapping_msis_on_words():
    # the all-suffix chain of [eps, abbabb] has chained overlapping MSIs;
    # its family must not cover index 4, keeping the interval contractible
    f = FactorPoset()
    top = tuple("abbabb")
    report = morse_report(f, (), top)
    last = report.chains[-1]
    assert last.chain.labels == (6, 5, 4, 3, 2, 1)
    assert list(last.msis) == [(1, 2), (2, 3), (3, 4), (5, 5)]
    assert list(last.family) == [(1, 2), (3, 3), (5, 5)]
    assert not last.critical
    assert report.mobius == 0
    assert mobius_bruteforce(f, interval_structure(f, (), top))[0] == 0
    assert mobius_morse(f, ("a",), top) == mobius_bruteforce(
        f, interval_structure(f, ("a",), top))[0]


def test_homotopy_types():
    p = PatternPoset()
    assert homotopy_type(p, (1,), (2, 1, 3, 5, 4, 6)) == "sphere(2)"
    assert homotopy_type(p, (1, 2, 3), (2, 1, 3, 5, 4)) == "sphere(0)"
    assert homotopy_type(p, (1, 2), (1, 2, 3, 4)) == "contractible"
    f = FactorPoset()
    assert homotopy_type(f, ("a",), tuple("aba")) == "sphere(0)"
    with pytest.raises(ValueError):
        homotopy_type(p, (1,), (1, 2))
    with pytest.raises(ValueError):
        homotopy_type(p, (1,), (1,))


def test_degenerate_intervals():
    p = PatternPoset()
    report = morse_report(p, (2, 1), (2, 1))
    assert report.mobius == 1
    assert report.rank_gap == 0
    assert report.homotopy is None
    report = morse_report(p, (1,), (1, 2))
    assert report.mobius == -1
    assert report.homotopy is None


@pytest.mark.parametrize("gap, dims, text", [
    (0, (), None), (1, (-1,), None), (2, (), "contractible"), (4, (2,), "sphere(2)"),
    (5, (3, 1), "cells[1,3]"), (5, (1, 1, 3), "cells[1,1,3]")])
def test_the_homotopy_type_is_its_text(gap, dims, text):
    # None below rank gap two; the dims of several critical chains sorted
    report = morse.MorseReport((1,), (1,), gap, dims)
    assert report.homotopy == text
    if text is None:
        with pytest.raises(ValueError, match="degenerate interval: rank gap below two"):
            report.homotopy_type()
    else:
        assert report.homotopy_type() == text


def test_a_single_element_has_no_critical_chain():
    # a critical (-1)-cell would carry sign -1 against mu = 1
    p = PatternPoset()
    for n in range(1, 5):
        for top in p.elements_of_rank(n):
            for x in p.down_set(top):
                report = morse_report(p, x, x)
                assert report.mobius == 1 and report.critical_count == 0
                assert [d.critical for d in report.chains] == [False]
                obj = render.morse_report_json(p, report)
                assert obj["critical_count"] == 0 and obj["mobius"] == 1
                assert obj["chains"][0]["critical_dim"] is None
