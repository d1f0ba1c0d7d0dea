"""Worker bounds of the crosscheck harness, and seeded intervals beyond
the exhaustive sweeps through every check."""

from __future__ import annotations

import dataclasses
import os
import random
import signal

import pytest

import posetmorse.chains as chains
import posetmorse.cli as cli
import posetmorse.closed_form as closed_form
import posetmorse.crosscheck as crosscheck
import posetmorse.morse as morse
import posetmorse.perms as perms
from posetmorse.chains import StepClass
from posetmorse.posets import (FactorPoset, IncomparableError, PatternPoset,
                               SizeLimitError, euler_characteristic,
                               interval_structure)
from test_morse import assert_walk_msis_match_the_oracle
from test_posets import assert_columns_match_the_oracles, euler_by_walk


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, the worker
    initializer and the mapped chunks, and runs the chunks in this process,
    so no real pool is ever started."""

    sizes: list[int] = []
    initializers: list[tuple] = []
    mapped: list[list] = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        RecordingPool.sizes.append(max_workers)
        RecordingPool.initializers.append((initializer, initargs))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        RecordingPool.mapped.append(items)
        return map(fn, items)


@pytest.fixture
def pool(monkeypatch):
    RecordingPool.sizes = []
    RecordingPool.initializers = []
    RecordingPool.mapped = []
    monkeypatch.setattr(crosscheck, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    return RecordingPool


def test_jobs_are_clamped_to_the_cpu_count(pool):
    report = crosscheck.run_crosscheck(PatternPoset(), 4, jobs=1000)
    assert pool.sizes == [3]
    assert report.ok and report.total == 167


def test_jobs_none_means_one_per_cpu(pool):
    crosscheck.run_crosscheck(PatternPoset(), 3, jobs=None)
    assert pool.sizes == [3]


def test_jobs_within_the_cpu_count_are_kept(pool):
    crosscheck.run_crosscheck(PatternPoset(), 3, jobs=2)
    assert pool.sizes == [2]


def test_pool_workers_ignore_sigint(pool):
    # an interrupt is handled by the parent alone, which stops the workers
    crosscheck.run_crosscheck(PatternPoset(), 3, jobs=2)
    assert pool.initializers == [(signal.signal, (signal.SIGINT, signal.SIG_IGN))]


def test_a_parallel_sweep_maps_runs_of_consecutive_tops_in_order(pool):
    poset = PatternPoset()
    crosscheck.run_crosscheck(poset, 5, jobs=2)
    (items,) = pool.mapped
    chunks = [tops for _, tops in items]
    tops = [e for n in range(1, 6) for e in poset.elements_of_rank(n)]
    assert [top for chunk in chunks for top in chunk] == tops
    assert len(chunks) > pool.sizes[0] == 2


def test_a_parallel_sweep_reports_as_a_serial_one(pool, monkeypatch):
    # a chain count one too high puts a mismatch on every interval
    real = crosscheck.naive_chain_count
    monkeypatch.setattr(crosscheck, "naive_chain_count", lambda poset, interval:
                        tuple(c + 1 for c in real(poset, interval)))
    serial = crosscheck.run_crosscheck(PatternPoset(), 5, jobs=1)
    parallel = crosscheck.run_crosscheck(PatternPoset(), 5, jobs=2)
    assert all(any(p.startswith("chains: found") for p in r.problems)
               for r in serial.records)
    assert parallel.records == serial.records
    assert parallel.mismatches == serial.mismatches


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_are_rejected(pool, jobs):
    with pytest.raises(ValueError):
        crosscheck.run_crosscheck(PatternPoset(), 3, jobs=jobs)
    assert pool.sizes == []


def _draw(rng, poset, n):
    """A random top of length n: a permutation, or a word over {a,b}."""
    if poset.kind == "pattern":
        return tuple(rng.sample(range(1, n + 1), n))
    return tuple(rng.choice("ab") for _ in range(n))


def _first_nonzero(poset, bottom, rng, n):
    """The first drawn top of length n over bottom whose closed-form Mobius
    value is nonzero, so that the interval has a critical chain."""
    while True:
        top = _draw(rng, poset, n)
        if poset.mobius_closed_form(bottom, top) != 0:
            return poset, bottom, top


def _seeded_intervals():
    """Six [1, tau] with |tau| = 8..10 and six [eps, w] with w in {a,b}^8..10,
    then, at each length 11 to 14, the first [1, tau] and the first [eps, w]
    with a critical chain, drawn from a second generator.  The length-14
    pair is marked slow."""
    rng = random.Random(1107)
    lengths = (8, 8, 9, 9, 10, 10)
    pattern, factor = PatternPoset(max_top=None), FactorPoset(max_top=None)
    out = [(pattern, (1,), _draw(rng, pattern, n)) for n in lengths]
    out += [(factor, (), _draw(rng, factor, n)) for n in lengths]
    rng = random.Random(2011)
    for n in (11, 12, 13, 14):
        out.append(_first_nonzero(pattern, (1,), rng, n))
        out.append(_first_nonzero(factor, (), rng, n))
    return [pytest.param(poset, bottom, top,
                         id=f"{poset.kind}-{poset.format(top)}",
                         marks=[pytest.mark.slow] if len(top) == 14 else [])
            for poset, bottom, top in out]


SEEDED = _seeded_intervals()


@pytest.mark.parametrize("poset, bottom, top", SEEDED)
def test_seeded_interval_passes_every_check(poset, bottom, top):
    routes = crosscheck.evaluate(poset, bottom, top)
    assert crosscheck.check_interval(poset, bottom, top, routes).problems == ()


@pytest.mark.parametrize("poset, bottom, top", SEEDED)
def test_seeded_keyed_msis_match_the_oracle(poset, bottom, top):
    assert_walk_msis_match_the_oracle(poset, top, [bottom])


@pytest.mark.parametrize("poset, bottom, top", SEEDED)
def test_seeded_euler_characteristic_matches_the_chain_walk(poset, bottom, top):
    interval = interval_structure(poset, bottom, top)
    assert euler_characteristic(poset, interval)[0] == euler_by_walk(poset, interval)


@pytest.mark.parametrize("poset, bottom, top", SEEDED)
def test_seeded_top_columns_match_the_forward_oracles(poset, bottom, top):
    assert_columns_match_the_oracles(poset, top, [bottom])


@pytest.mark.parametrize("seed, count", [
    (909, 4), pytest.param(9090, 150, marks=pytest.mark.slow)])
def test_seeded_length_nine_tops_pass_with_every_bottom(seed, count):
    # the sweep's own path: one top's columns and one Morse walk serve
    # every bottom under it
    rng = random.Random(seed)
    poset = PatternPoset()
    tops = [_draw(rng, poset, 9) for _ in range(count)]
    records = crosscheck._interval_records(poset, tops)
    assert len(records) == sum(len(poset.down_set(top)) for top in tops)
    assert [(r.bottom, r.top, r.problems) for r in records if r.problems] == []


def test_keyed_msis_match_the_oracle_on_every_bottom_of_seeded_tops():
    # the four length-9 tops above and seeded {a,b} words of length 9 and
    # 10, every bottom's walk against the pairwise MSIs
    rng = random.Random(909)
    pattern = PatternPoset()
    tops = [(pattern, _draw(rng, pattern, 9)) for _ in range(4)]
    rng = random.Random(910)
    factor = FactorPoset()
    tops += [(factor, _draw(rng, factor, n)) for n in (9, 9, 10, 10)]
    for poset, top in tops:
        assert_walk_msis_match_the_oracle(poset, top, sorted(poset.down_set(top)))


def test_a_sweep_walks_each_top_once(monkeypatch):
    walks = []
    real = morse.walk_chains

    def counting(poset, top, bottoms):
        walks.append((top, tuple(bottoms)))
        return real(poset, top, bottoms)

    monkeypatch.setattr(morse, "walk_chains", counting)
    poset = PatternPoset()
    report = crosscheck.run_crosscheck(poset, 4)
    assert report.ok and report.total == 167
    assert len(walks) == len({top for top, _ in walks}) == 1 + 2 + 6 + 24
    assert all(set(bottoms) == poset.down_set(top) for top, bottoms in walks)


def test_top_routes_of_every_bottom_equal_the_one_bottom_case():
    # every b under every pattern and {a,b} top of length <= 5
    for poset in (PatternPoset(), FactorPoset(("a", "b"))):
        for n in range(poset.min_rank, 6):
            for top in poset.elements_of_rank(n):
                routes = crosscheck.top_routes(poset, top)
                assert set(routes) == poset.down_set(top)
                for b, r in routes.items():
                    assert r == crosscheck.evaluate(poset, b, top)


@pytest.mark.parametrize("route", [
    (crosscheck, "evaluate"), (morse, "morse_report"), (chains, "maximal_chains")],
    ids=["evaluate", "morse_report", "maximal_chains"])
@pytest.mark.parametrize("poset, bottom, top, error, message", [
    (PatternPoset(), (1, 2), (2, 1), IncomparableError, "'12' is not below '21'"),
    (FactorPoset(), tuple("aa"), tuple("ab"), IncomparableError,
     "'aa' is not below 'ab'"),
    # 21 is not below 12...10 either, but the guardrail comes first
    (PatternPoset(), (2, 1), tuple(range(1, 11)), SizeLimitError,
     "top of length 10 exceeds the pattern limit 9"),
], ids=["pattern", "factor", "oversize"])
def test_an_incomparable_pair_is_rejected_before_any_route_runs(
        monkeypatch, route, poset, bottom, top, error, message):
    def unreached(*args, **kwargs):
        raise AssertionError("a route ran")

    for module, name in ((crosscheck, "interval_structure"),
                         (crosscheck, "morse_reports"), (morse, "walk_chains"),
                         (chains, "walk_chains"), (closed_form, "mobius_pattern"),
                         (closed_form, "mobius_factor")):
        monkeypatch.setattr(module, name, unreached)
    module, name = route
    with pytest.raises(error, match=message):
        getattr(module, name)(poset, bottom, top)


@pytest.fixture
def monotone_132(monkeypatch):
    """Treat 132 as monotone, a wrong cover rule.  The memoized permutation
    operators are cleared before the patch, so that it reaches the cover
    rule, and again after it is undone, so that no patched value outlives
    the test."""
    memos = (perms.down_covers, perms.interior, perms.exterior, morse._jump_pattern)
    for memo in memos:
        memo.cache_clear()
    real = perms.is_monotone
    monkeypatch.setattr(perms, "is_monotone",
                        lambda p: tuple(p) == (1, 3, 2) or real(p))
    yield
    monkeypatch.undo()
    for memo in memos:
        memo.cache_clear()


def test_each_chain_is_classified_once_and_the_last_chain_s_classes_are_checked(
        monkeypatch):
    # every step called a strong descent: the strictly decreasing last
    # chain 6-5-4-3-1 then breaks the descent structure, read from the
    # classes the per-chain loop already made
    calls = []

    def strong(chain):
        calls.append(chain.labels)
        return (StepClass.STRONG_DESCENT,) * (chain.steps - 1)

    monkeypatch.setattr(crosscheck, "classify_steps", strong)
    poset, bottom, top = PatternPoset(), (1,), (2, 1, 3, 5, 4, 6)
    routes = crosscheck.evaluate(poset, bottom, top)
    problems = crosscheck.check_interval(poset, bottom, top, routes).problems
    assert len(calls) == len(set(calls)) == 13
    assert any(p.startswith("descent-structure:") for p in problems)


def test_chain_count_catches_a_wrong_cover_rule(monotone_132):
    # treating 132 as monotone drops its cover 12 from the chain listing;
    # the count over the order relation still sees both chains
    poset, bottom, top = PatternPoset(), (1,), (1, 3, 2)
    routes = crosscheck.evaluate(poset, bottom, top)
    problems = crosscheck.check_interval(poset, bottom, top, routes).problems
    assert "chains: found 1, naive descent gives 2" in problems


def test_a_cover_rule_that_lists_no_chain_is_reported(monotone_132):
    # treating 132 as monotone leaves [12, 132] without a chain
    poset, bottom, top = PatternPoset(), (1, 2), (1, 3, 2)
    routes = crosscheck.evaluate(poset, bottom, top)
    problems = crosscheck.check_interval(poset, bottom, top, routes).problems
    assert "chains: found 0, naive descent gives 1" in problems


@pytest.mark.slow
@pytest.mark.parametrize("poset, bottom, n", [
    (PatternPoset(max_top=None), (1,), 16), (FactorPoset(max_top=None), (), 15)],
    ids=["pattern-16", "factor-15"])
def test_largest_single_intervals_agree_on_every_route(poset, bottom, n):
    # exit 0: the closed form, the Morse route, brute force and the Euler
    # characteristic agree on a [1, tau] with |tau| = 16 or an [eps, w] with
    # |w| = 15 that has a critical chain
    _, _, top = _first_nonzero(poset, bottom, random.Random(1516), n)
    argv = ["mobius", poset.format(bottom), poset.format(top),
            "--poset", poset.kind, "--force"]
    assert cli.main(argv) == 0


@pytest.mark.slow
def test_length_seven_pattern_sweep():
    report = crosscheck.run_crosscheck(PatternPoset(), 7, jobs=None)
    assert report.total == 94675 and report.mismatches == []
    assert report.mu_histogram == {-1: 13764, 0: 67146, 1: 13765}


@pytest.mark.parametrize("poset, bottom, top", [
    (PatternPoset(), (1,), (2, 1, 3, 5, 4, 6)),
    (FactorPoset(), (), tuple("abba")),
])
def test_a_bad_chain_listing_is_worded_line_by_line(poset, bottom, top):
    # a listing that fails the strict-rise gate gets the lines that apply of
    # duplicate, sort, chain count and poset-lex, in that order, and then the
    # critical line when the critical chain no longer comes last
    routes = crosscheck.evaluate(poset, bottom, top)
    good = list(routes.report.chains)
    n, half = len(good), len(good) // 2

    def problems(listing):
        report = dataclasses.replace(routes.report, chains=tuple(listing))
        return crosscheck.check_interval(
            poset, bottom, top, dataclasses.replace(routes, report=report)).problems

    duplicate = "chains: duplicate label sequences"
    unsorted = "chains: not sorted by label sequence"
    count = f"chains: found {n + 1}, naive descent gives {n}"
    lex = "poset-lex: chain order violates the divergence property"
    last = "critical: the critical chain is not the lexicographically last"
    assert problems(good) == ()
    assert problems(good[:1] + good) == (duplicate, count, lex)
    assert problems(good + good[:1]) == (duplicate, unsorted, count, lex, last)
    # reversed, every prefix still stands together
    assert problems(good[::-1]) == (unsorted, last)
    # a chain from the second half inside the first chain's prefix block
    assert problems(good[:1] + good[half:half + 1] + good[1:half] + good[half + 1:]) == (
        unsorted, lex)
