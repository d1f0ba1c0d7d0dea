"""Skipped intervals, the disjoint family construction, critical chains."""

from __future__ import annotations

import itertools

import pytest

from posetmorse.chains import maximal_chains
from posetmorse.morse import (disjoint_family, homotopy_type,
                              minimal_skipped_intervals, mobius_morse,
                              morse_report, msis_fast_pattern,
                              skipped_intervals)
from posetmorse.posets import (FactorPoset, PatternPoset, interval_structure,
                               mobius_bruteforce)

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
    assert str(report.homotopy) == "sphere(2)"


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


def test_msis_fast_pattern_matches_bruteforce():
    p = PatternPoset()
    for n in range(2, 6):
        for top in itertools.permutations(range(1, n + 1)):
            for bottom in sorted(p.down_set(top)):
                chains = maximal_chains(p, bottom, top)
                for k, chain in enumerate(chains):
                    brute = minimal_skipped_intervals(chain, chains[:k])
                    assert msis_fast_pattern(chain) == brute


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
    assert mobius_bruteforce(f, interval_structure(f, (), top)) == 0
    assert mobius_morse(f, ("a",), top) == mobius_bruteforce(
        f, interval_structure(f, ("a",), top))


def test_homotopy_types():
    p = PatternPoset()
    assert str(homotopy_type(p, (1,), (2, 1, 3, 5, 4, 6))) == "sphere(2)"
    assert str(homotopy_type(p, (1, 2, 3), (2, 1, 3, 5, 4))) == "sphere(0)"
    assert str(homotopy_type(p, (1, 2), (1, 2, 3, 4))) == "contractible"
    f = FactorPoset()
    assert str(homotopy_type(f, ("a",), tuple("aba"))) == "sphere(0)"
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
