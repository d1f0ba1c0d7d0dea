"""Worker bounds of the crosscheck harness, and seeded intervals beyond
the exhaustive sweeps through every check."""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import os
import pickle
import random
import signal
import time

import pytest

import posetmorse.chains as chains
import posetmorse.cli as cli
import posetmorse.closed_form as closed_form
import posetmorse.crosscheck as crosscheck
import posetmorse.morse as morse
import posetmorse.perms as perms
import posetmorse.words as words
from posetmorse.posets import (FactorPoset, IncomparableError, IntervalStructure,
                               PatternPoset, SizeLimitError, euler_characteristic,
                               interval_elements, interval_structure)
from test_morse import assert_walk_msis_match_the_oracle, msis_fast
from test_posets import assert_columns_match_the_oracles, euler_by_walk


@pytest.fixture
def forks(monkeypatch):
    """Three CPUs, and the pid of each worker a sweep forks, in fork order.
    The workers are real: each runs its runs and exits in os._exit."""
    real, pids = os.fork, []

    def recording_fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    return pids


def test_jobs_are_clamped_to_the_cpu_count(forks):
    report = crosscheck.run_crosscheck(PatternPoset(), 4, jobs=1000)
    assert len(forks) == 3
    assert report.ok and report.total == 167


def test_jobs_none_means_one_per_cpu(forks):
    crosscheck.run_crosscheck(PatternPoset(), 3, jobs=None)
    assert len(forks) == 3


def test_jobs_within_the_cpu_count_are_kept(forks):
    crosscheck.run_crosscheck(PatternPoset(), 3, jobs=2)
    assert len(forks) == 2


def test_without_fork_a_sweep_runs_serially(forks, monkeypatch):
    # where os.fork is missing the CPU count reads as one
    monkeypatch.delattr(os, "fork")
    report = crosscheck.run_crosscheck(PatternPoset(), 4, jobs=None)
    assert forks == [] and report.ok and report.total == 167


def test_pool_workers_ignore_sigint(forks, monkeypatch):
    # an interrupt is handled by the parent alone, which stops the workers.
    # Each run reports its worker's SIGINT handler and blocked signals
    monkeypatch.setattr(crosscheck, "_worker", lambda args: [
        ("", "", signal.getsignal(signal.SIGINT),
         tuple(signal.pthread_sigmask(signal.SIG_BLOCK, ())))])
    handler = signal.getsignal(signal.SIGINT)
    blocked = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    report = crosscheck.run_crosscheck(PatternPoset(), 3, jobs=2)
    assert {r.mu_brute for r in report.records} == {signal.SIG_IGN}
    assert all(signal.SIGINT not in r.problems for r in report.records)
    # the parent's handler and mask are as they were
    assert signal.getsignal(signal.SIGINT) == handler
    assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == blocked


def test_a_parallel_sweep_maps_runs_of_consecutive_tops_in_order(forks, monkeypatch):
    # each run comes back as one record of its worker's pid and its tops:
    # run k was computed by worker k % jobs, and the runs cover the tops in order
    monkeypatch.setattr(crosscheck, "_worker",
                        lambda args: [(os.getpid(), args[1], 0, ())])
    poset = PatternPoset()
    report = crosscheck.run_crosscheck(poset, 5, jobs=2)
    runs = [(r.bottom, r.top) for r in report.records]
    tops = [e for n in range(1, 6) for e in poset.elements_of_rank(n)]
    assert [top for _, chunk in runs for top in chunk] == tops
    assert [pid for pid, _ in runs] == [forks[k % 2] for k in range(len(runs))]
    assert len(runs) > len(forks) == 2


def test_a_parallel_sweep_reports_as_a_serial_one(forks, monkeypatch):
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


def test_a_real_pool_returns_named_records(monkeypatch):
    # workers ship plain tuples, and the parent rebuilds each record
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = crosscheck.run_crosscheck(PatternPoset(), 4, jobs=1)
    parallel = crosscheck.run_crosscheck(PatternPoset(), 4, jobs=2)
    assert all(type(r) is crosscheck.IntervalRecord for r in parallel.records)
    assert ((parallel.records, parallel.mu_histogram, parallel.mismatches)
            == (serial.records, serial.mu_histogram, serial.mismatches))


@pytest.mark.parametrize("run", [
    crosscheck._worker((poset, list(poset.elements_of_rank(4))))
    for poset in (PatternPoset(), FactorPoset(("a", "b")))] + [
    ValueError("a run's exception")], ids=["pattern", "factor", "exception"])
def test_every_proper_prefix_of_a_pickled_run_fails_to_load(run):
    # the parent's only sign that a worker died mid-run: its pipe ends
    # before the run is whole, and pickle.load raises
    data = pickle.dumps(run)
    for n in range(len(data)):
        with pytest.raises((EOFError, pickle.UnpicklingError)):
            pickle.load(io.BufferedReader(io.BytesIO(data[:n])))
    assert repr(pickle.load(io.BufferedReader(io.BytesIO(data)))) == repr(run)


def test_a_worker_killed_mid_run_ends_the_sweep_when_its_run_comes_up(
        forks, monkeypatch, tmp_path):
    # worker 1's first run is larger than its pipe holds, and worker 0
    # kills it while it waits on the full pipe; the parent, once it has
    # folded run 0, reads run 1 cut short, which pickle.load cannot finish
    marker = tmp_path / "pid"
    real = crosscheck._worker

    def paced(args):
        first = args[1][0]
        if first == (2, 1):  # run 1, from worker 1
            (tmp_path / "tmp").write_text(str(os.getpid()))
            os.replace(tmp_path / "tmp", marker)
            return [("1" * (1 << 17), "", 0, ())]
        if first == (1,):  # run 0, from worker 0
            for _ in range(3000):
                if marker.exists():
                    time.sleep(0.5)  # worker 1 is blocked on its full pipe
                    os.kill(int(marker.read_text()), signal.SIGKILL)
                    break
                time.sleep(0.01)
        return real(args)

    monkeypatch.setattr(crosscheck, "_worker", paced)
    with pytest.raises(crosscheck.WorkerDied) as died:
        crosscheck.run_crosscheck(PatternPoset(), 3, jobs=2)
    assert str(died.value) == f"crosscheck worker {forks[1]} was killed by SIGKILL"


@pytest.mark.slow
def test_a_parallel_sweep_whose_runs_fill_a_pipe_reports_as_a_serial_one(monkeypatch):
    # each run of the length-7 sweep pickles to more than a pipe holds
    # (64 KiB), so a worker that runs ahead waits on the parent
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = crosscheck.run_crosscheck(PatternPoset(), 7, jobs=1)
    parallel = crosscheck.run_crosscheck(PatternPoset(), 7, jobs=2)
    assert ((parallel.records, parallel.mu_histogram, parallel.mismatches)
            == (serial.records, serial.mu_histogram, serial.mismatches))
    tops = [r.top for r in serial.records]  # cut into runs as the sweep cuts them
    order = list(dict.fromkeys(tops))
    size = -(-len(order) // 8)
    starts = [tops.index(top) for top in order[::size]] + [len(tops)]
    assert min(len(pickle.dumps([tuple(r) for r in serial.records[i:j]]))
               for i, j in zip(starts, starts[1:])) > 1 << 16


def test_a_record_holds_only_what_the_sweep_reports():
    # a route value that agrees equals mu_brute, and one that disagrees is
    # named in its own problem line
    fields = list(crosscheck.IntervalRecord._fields)
    assert fields == ["bottom", "top", "mu_brute", "problems"]


@pytest.mark.parametrize("record, fields", [
    (chains.MaximalChain, ("elements", "windows", "labels")),
    (morse.ChainMorseData, ("chain", "msis", "family", "critical", "dim")),
    (morse.MorseReport, ("bottom", "top", "rank_gap", "critical_dims", "chains")),
    (IntervalStructure, ("elements", "ups")),
    (crosscheck.Routes, ("closed", "report", "brute", "euler")),
    (crosscheck.IntervalRecord, ("bottom", "top", "mu_brute", "problems")),
    (crosscheck.CrosscheckReport, ("poset_tag", "max_size", "total", "mu_histogram",
                                   "mismatches", "records")),
    (crosscheck.TopRoutes, ("top", "bottoms", "gaps", "closed", "brute", "euler", "dims",
                            "laws"))])
def test_each_record_is_a_named_tuple_of_its_fields(record, fields):
    # fields in order: _replace and _asdict read them, and a record is
    # never handed to json whole, where it would serialise as a list
    assert record._fields == fields


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_are_rejected(forks, jobs):
    with pytest.raises(ValueError):
        crosscheck.run_crosscheck(PatternPoset(), 3, jobs=jobs)
    assert forks == []


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


def _first_nonzero_above_the_minimum(poset, rng, n):
    """The first drawn top of length n under which some b has rank at
    least two, rank gap at least three and a nonzero closed-form Mobius
    value, with b drawn from every such bottom in the top's down-set: a
    random bottom almost always gives 0.  The values are read as the
    top's closed-form column, one pass down its exterior chain."""
    while True:
        top = _draw(rng, poset, n)
        candidates = sorted(b for b in poset.down_set(top) if 2 <= poset.rank(b) <= n - 3)
        bottoms = [b for b, mu in zip(candidates, poset.closed_form_column(top, candidates))
                   if mu]
        if bottoms:
            return poset, rng.choice(bottoms), top


def _seeded_intervals():
    """Six [1, tau] with |tau| = 8..10 and six [eps, w] with w in {a,b}^8..10,
    then, at each length 11 to 14, the first [1, tau] and the first [eps, w]
    with a critical chain, drawn from a second generator, and at each
    length 11 to 13 the first [b, tau] and [b, w] with rank(b) >= 2, rank
    gap >= 3 and a critical chain, drawn from a third.  The length-14 pair
    is marked slow."""
    rng = random.Random(1107)
    lengths = (8, 8, 9, 9, 10, 10)
    pattern, factor = PatternPoset(max_top=None), FactorPoset(max_top=None)
    out = [(pattern, (1,), _draw(rng, pattern, n)) for n in lengths]
    out += [(factor, (), _draw(rng, factor, n)) for n in lengths]
    rng = random.Random(2011)
    for n in (11, 12, 13, 14):
        out.append(_first_nonzero(pattern, (1,), rng, n))
        out.append(_first_nonzero(factor, (), rng, n))
    rng = random.Random(2005)
    for n in (11, 12, 13):
        out.append(_first_nonzero_above_the_minimum(pattern, rng, n))
        out.append(_first_nonzero_above_the_minimum(factor, rng, n))
    return [_interval_param(poset, bottom, top,
                            marks=[pytest.mark.slow] if len(top) == 14 else [])
            for poset, bottom, top in out]


def _interval_param(poset, bottom, top, marks=()):
    return pytest.param(poset, bottom, top, marks=marks,
                        id=f"{poset.kind}-{poset.format(top)}" if bottom == poset.minimum
                        else f"{poset.kind}-{poset.format(bottom)}-{poset.format(top)}")


def record_of(poset, bottom, top) -> crosscheck.IntervalRecord:
    """The sweep's record of [bottom, top], read off its top's route columns."""
    routes = crosscheck.top_routes(poset, top)
    return crosscheck.check_interval(poset, routes, routes.bottoms.index(bottom))


def laws_of(poset, bottom, top) -> tuple[str, ...]:
    """The chain laws' lines of [bottom, top], from its top's whole walk."""
    routes = crosscheck.top_routes(poset, top)
    return routes.laws[routes.bottoms.index(bottom)]


SEEDED = _seeded_intervals()


@pytest.mark.parametrize("poset, bottom, top", SEEDED)
def test_seeded_interval_passes_every_check(poset, bottom, top):
    assert record_of(poset, bottom, top).problems == ()


@pytest.mark.parametrize("poset, bottom, top", SEEDED)
def test_seeded_walk_msis_match_the_oracle(poset, bottom, top):
    assert_walk_msis_match_the_oracle(poset, top, [bottom])


@pytest.mark.parametrize("poset, bottom, top", SEEDED)
def test_seeded_euler_characteristic_matches_the_chain_walk(poset, bottom, top):
    interval = interval_structure(poset, bottom, top)
    assert euler_characteristic(poset, interval)[0] == euler_by_walk(poset, interval)


@pytest.mark.parametrize("poset, bottom, top", SEEDED)
def test_seeded_top_columns_match_the_forward_oracles(poset, bottom, top):
    assert_columns_match_the_oracles(poset, top, [bottom])


def _seeded_above_the_minimum(lengths):
    """At each of lengths, the first [b, tau] and then the first [b, w]
    with rank(b) >= 2, rank gap >= 3 and a critical chain, from one
    generator."""
    rng = random.Random(2030)
    pattern, factor = PatternPoset(max_top=None), FactorPoset(max_top=None)
    return [_first_nonzero_above_the_minimum(poset, rng, n)
            for n in lengths for poset in (pattern, factor)]


LARGE_LENGTHS = (14, 16, 18, 20, 24)


def test_the_draws_above_the_minimum_are_pinned():
    # the intervals the per-bottom closed form drew, by digest: reading
    # each top's column instead must draw the same ones
    drawn = [(poset.kind, bottom, top)
             for poset, bottom, top in _seeded_above_the_minimum(LARGE_LENGTHS)]
    assert hashlib.sha256(repr(drawn).encode()).hexdigest() == (
        "4099836296302ca83afcc10cdc975fa3791ecd658a37cdbb14da08a68acb5c12")


def assert_the_routes_find_a_sphere(poset, bottom, top):
    """Every route agrees on a nonzero Mobius value mu, and the pruned
    Morse walk finds a sphere(d) with (-1)^d = mu."""
    routes = crosscheck.evaluate(poset, bottom, top)
    report = routes.report
    assert routes.problems() == [] and report.mobius != 0
    d = report.critical_dims[0]
    assert report.homotopy == f"sphere({d})" and (-1) ** d == report.mobius


@pytest.mark.parametrize("poset, bottom, top", [
    _interval_param(*interval) for interval in _seeded_above_the_minimum(LARGE_LENGTHS)])
def test_large_seeded_intervals_above_the_minimum_agree_on_every_route(poset, bottom, top):
    # beyond the exhaustive range, the routes alone: SEEDED runs the full walk
    assert_the_routes_find_a_sphere(poset, bottom, top)


def assert_the_closed_form_column_matches_each_bottom(poset, top):
    """The top's closed-form column equals poset.mobius_closed_form(b, top)
    for every b under the top, taken in the sweep's order and reversed:
    the column must not depend on which bottom first reads a step of the
    top's exterior chain."""
    bottoms = sorted(poset.down_set(top), key=lambda e: (poset.rank(e), poset.format(e)))
    want = [poset.mobius_closed_form(b, top) for b in bottoms]
    assert poset.closed_form_column(top, bottoms) == want
    assert poset.closed_form_column(top, bottoms[::-1]) == want[::-1]


@pytest.mark.parametrize("poset, n", [
    (PatternPoset(), 6), (FactorPoset(("a", "b")), 6), (FactorPoset(("a", "b", "c")), 5)],
    ids=["pattern", "factor-ab", "factor-abc"])
def test_the_closed_form_column_matches_each_bottom_in_the_acceptance_ranges(poset, n):
    for top in (e for r in range(poset.min_rank, n + 1) for e in poset.elements_of_rank(r)):
        assert_the_closed_form_column_matches_each_bottom(poset, top)


@pytest.mark.parametrize("poset, top", [
    (poset, _draw(random.Random(1240 + n), poset, n))
    for n in (12, 16, 20, 24, 30, 40)
    for poset in (PatternPoset(max_top=None), FactorPoset(max_top=None))] + [
    (poset, top) for poset, _, top in _seeded_above_the_minimum(LARGE_LENGTHS)],
    ids=lambda v: v.kind if hasattr(v, "kind") else str(len(v)))
def test_the_closed_form_column_matches_each_bottom_of_seeded_tops(poset, top):
    # seeded tops of length 12 to 40, then the high-bottom draws above,
    # whose bottoms of rank at least two include one with a nonzero value
    assert_the_closed_form_column_matches_each_bottom(poset, top)


def test_a_sweep_never_runs_the_closed_form_per_interval(monkeypatch):
    def unreached(*args):
        raise AssertionError("the closed form ran per interval")

    monkeypatch.setattr(closed_form, "mobius_pattern", unreached)
    assert crosscheck.run_crosscheck(PatternPoset(), 5).ok


def test_a_sweep_reads_the_closed_form_once_per_top(monkeypatch):
    # one pass down each top's exterior chain serves every bottom under it
    columns = []
    real = closed_form.pattern_column
    monkeypatch.setattr(closed_form, "pattern_column",
                        lambda top, bottoms: columns.append(top) or real(top, bottoms))
    assert crosscheck.run_crosscheck(PatternPoset(), 5).ok
    assert len(columns) == len(set(columns)) == 1 + 2 + 6 + 24 + 120


@pytest.mark.slow
def test_the_next_seeded_pair_agrees_on_every_route_at_length_thirty():
    # drawn here, not at collection: the draw alone takes about half a second
    for interval in _seeded_above_the_minimum(LARGE_LENGTHS + (30,))[-2:]:
        assert len(interval[2]) == 30
        assert_the_routes_find_a_sphere(*interval)


@pytest.mark.slow
def test_the_seeded_pair_after_that_agrees_on_every_route_at_length_forty():
    # the draw alone takes about three seconds
    for interval in _seeded_above_the_minimum(LARGE_LENGTHS + (30, 40))[-2:]:
        assert len(interval[2]) == 40
        assert_the_routes_find_a_sphere(*interval)


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


def test_walk_msis_match_the_oracle_on_every_bottom_of_seeded_tops():
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
    real = crosscheck.walk

    def counting(path, visit):
        walks.append((path.table[path.nodes[0]], path.table))
        return real(path, visit)

    monkeypatch.setattr(crosscheck, "walk", counting)
    poset = PatternPoset()
    report = crosscheck.run_crosscheck(poset, 4)
    assert report.ok and report.total == 167
    assert len(walks) == len({top for top, _ in walks}) == 1 + 2 + 6 + 24
    assert all(set(table) == poset.down_set(top) for top, table in walks)


def test_a_top_s_covers_and_jumps_are_read_once_per_element(monkeypatch):
    # the walk reads covers from its node table, not from the cover rule
    # at every node, and the chain laws read the fast law's jump from a
    # list by node: top_routes asks the rule once per element above the
    # floor (28 internal nodes walk 11 such elements) and the jump at most
    # once per element, and the pruned walk asks the rule at most once per
    # element of its own table
    covers, jumps = [], []
    real_covers, real_jump = PatternPoset.down_covers, PatternPoset.jump
    monkeypatch.setattr(PatternPoset, "down_covers",
                        lambda self, e: covers.append(e) or real_covers(self, e))
    monkeypatch.setattr(PatternPoset, "jump",
                        staticmethod(lambda e: jumps.append(e) or real_jump(e)))
    p, top = PatternPoset(), (2, 1, 3, 5, 4, 6)
    routes = crosscheck.top_routes(p, top)
    assert sorted(covers) == sorted(e for e in routes.bottoms if len(e) > 1)
    assert len(covers) == 11
    assert len(jumps) == len(set(jumps)) <= len(routes.bottoms)
    p = PatternPoset(max_top=None)
    top = p.parse("10,7,2,12,1,5,6,4,8,11,9,3")
    for bottom in ((1,), (1, 2), perms.standardize(top[3:9])):
        covers.clear()
        assert morse.morse_summary(p, bottom, top).rank_gap == 12 - len(bottom)
        table = chains.node_table(p, bottom, top)
        assert len(covers) == len(set(covers)) and set(covers) <= set(table)


def test_a_serial_sweep_checks_each_interval_through_check_interval(monkeypatch):
    # the hook the tracer roots each interval at, and the guard tests patch
    calls = []
    real = crosscheck.check_interval

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(crosscheck, "check_interval", counting)
    report = crosscheck.run_crosscheck(PatternPoset(), 4)
    assert report.ok and len(calls) == report.total == 167


def assert_the_fold_matches_the_definitions(poset, top) -> int:
    """At every node of one walk for every bottom under the top, the
    folded fast-law spans, disjoint family, criticality and dimension
    equal the definitions on the chain the node ends: the fast law of the
    poset's kind, disjoint_family of the MSIs the fold found, and the
    set-cover rule.  Returns the number of nodes."""
    bottoms = sorted(poset.down_set(top))
    fold = morse.MorseFold(poset, top, bottoms)
    laws = crosscheck.LawFold(poset, fold, [0] * len(bottoms))  # counts unread
    path, nodes = fold.path, []

    def visit(d):
        laws.visit(d)
        chain = path.chain(d)
        msis = list(fold.msis[d])
        family = morse.disjoint_family(msis)
        if msis:
            critical = ({k for a, b in family for k in range(a, b + 1)}
                        == set(range(1, chain.steps)))
        else:  # critical when the interior is empty; [x, x] has none
            gap = poset.rank(top) - poset.rank(chain.elements[-1])
            critical = gap > 0 and chain.steps < 2
        data = fold.chain_data(d)
        assert sorted(laws.fast[d]) == msis_fast(poset, chain)
        assert (list(data.family), data.critical, data.dim) == (
            family, critical, len(family) - 1 if critical else None)
        nodes.append(d)

    chains.walk(path, visit)
    return len(nodes)


def test_the_fold_matches_the_definitions_at_every_node_up_to_length_six():
    nodes = {}
    for poset in (PatternPoset(), FactorPoset(("a", "b"))):
        for n in range(poset.min_rank, 7):
            for top in poset.elements_of_rank(n):
                count = assert_the_fold_matches_the_definitions(poset, top)
                nodes[poset.tag] = nodes.get(poset.tag, 0) + count
    # every node ends one chain of the size-6 sweep
    assert nodes["pattern"] == 31803


def test_the_fold_matches_the_definitions_on_seeded_long_tops():
    # the seeded tops of length 9 and 10 above, and those whose every
    # bottom's MSIs are checked against the oracle
    tops = [(poset, top) for poset, _, top in (p.values for p in SEEDED)
            if len(top) in (9, 10)]
    rng = random.Random(909)
    tops += [(PatternPoset(), _draw(rng, PatternPoset(), 9)) for _ in range(4)]
    rng = random.Random(910)
    tops += [(FactorPoset(), _draw(rng, FactorPoset(), n)) for n in (9, 9, 10, 10)]
    assert len(tops) == 16
    for poset, top in tops:
        assert assert_the_fold_matches_the_definitions(poset, top) > 0


def test_a_sweep_builds_no_chain_object(monkeypatch):
    # the sweep folds every chain down the walk; chain objects are built
    # only for the commands that print chains
    def unbuilt(*args):
        raise AssertionError("a chain object was built")

    monkeypatch.setattr(chains, "MaximalChain", unbuilt)
    monkeypatch.setattr(morse, "ChainMorseData", unbuilt)
    report = crosscheck.run_crosscheck(PatternPoset(), 4)
    assert report.ok and report.total == 167


def test_a_sweep_builds_no_route_record_per_interval(monkeypatch):
    # each interval's record is read straight off its top's route columns;
    # a Routes, with its MorseReport, is built only for evaluate's interval
    def unbuilt(*args):
        raise AssertionError("a route record was built")

    for module, name in ((crosscheck, "Routes"), (crosscheck, "MorseReport"),
                         (morse, "MorseReport")):
        monkeypatch.setattr(module, name, unbuilt)
    report = crosscheck.run_crosscheck(PatternPoset(), 4)
    assert report.ok and report.total == 167


def test_top_routes_of_every_bottom_equal_the_one_bottom_case():
    # every b under every pattern and {a,b} top of length <= 5: the top's
    # columns at b, and the route lines of b's record, are evaluate's
    for poset in (PatternPoset(), FactorPoset(("a", "b"))):
        for n in range(poset.min_rank, 6):
            for top in poset.elements_of_rank(n):
                routes = crosscheck.top_routes(poset, top)
                assert sorted(routes.bottoms) == sorted(poset.down_set(top))
                for i, b in enumerate(routes.bottoms):
                    one = crosscheck.evaluate(poset, b, top)
                    report = one.report
                    assert routes.laws[i] == ()
                    assert ((routes.gaps[i], routes.brute[i], routes.euler[i],
                             tuple(routes.dims[i]))
                            == (report.rank_gap, one.brute, one.euler, report.critical_dims))
                    record = crosscheck.check_interval(poset, routes, i)
                    assert record == (poset.format(b), poset.format(top), one.brute,
                                      tuple(one.problems()))


def test_evaluate_reads_the_structure_of_its_own_interval(monkeypatch):
    # a high bottom: brute force and Euler run on [b, tau] alone, the bottom
    # first, not on the down-set of tau
    poset, seen = PatternPoset(max_top=None), []
    top = poset.parse("10,7,2,12,1,5,6,4,8,11,9,3")
    bottom = perms.standardize(top[3:9])
    for name in ("mobius_bruteforce", "euler_characteristic"):
        real = getattr(crosscheck, name)
        monkeypatch.setattr(crosscheck, name,
                            lambda p, interval, real=real: seen.append(interval) or real(p, interval))
    routes = crosscheck.evaluate(poset, bottom, top)
    size = len(interval_elements(poset, bottom, top))
    assert [(s.elements[0], s.size) for s in seen] == [(bottom, size)] * 2
    assert size < len(poset.down_set(top)) and routes.problems() == []


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

    for module, name in ((crosscheck, "interval_structure"), (crosscheck, "walk"),
                         (morse, "walk"), (chains, "walk"),
                         (closed_form, "mobius_pattern"), (closed_form, "mobius_factor")):
        monkeypatch.setattr(module, name, unreached)
    module, name = route
    with pytest.raises(error, match=message):
        getattr(module, name)(poset, bottom, top)


@contextlib.contextmanager
def wrong_rule(monkeypatch, module, name, wrong):
    """Replace module.name, a rule of the posets, by wrong(the real one).
    The memoized operators that read a rule are cleared before the patch,
    so that it reaches them, and again after it is undone, so that no
    patched value outlives the test."""
    memos = (perms.down_covers, perms.interior, perms.exterior,
             morse._jump_pattern, morse._jump_factor)
    for memo in memos:
        memo.cache_clear()
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    try:
        yield
    finally:
        monkeypatch.undo()
        for memo in memos:
            memo.cache_clear()


def _132_monotone(real):
    return lambda p: tuple(p) == (1, 3, 2) or real(p)


@pytest.fixture
def monotone_132(monkeypatch):
    """Treat 132 as monotone, a wrong cover rule."""
    with wrong_rule(monkeypatch, perms, "is_monotone", _132_monotone):
        yield


# The mismatch lines of run_crosscheck(PatternPoset(), n) under monotone_132:
# the number of lines of each kind and the sha256 of the lines joined by
# newlines.
WRONG_COVER_RULE = {
    4: ({"chains": 18, "critical": 3, "msi-fast": 8, "mu-disagreement": 14},
        "82c60390975e28aa34a0ddb48a7a092c912b2b8ebe2929b99602c3e43cb6cd6f"),
    5: ({"chains": 132, "critical": 11, "msi-fast": 88, "mu-disagreement": 54},
        "1fef873ae5bc5d9efd794779af9bdbc7ced07fb4cf8e98533d7edd64d0ee3c30"),
}


@pytest.mark.parametrize("n", [4, 5])
def test_a_wrong_cover_rule_gets_the_same_lines_in_the_same_order(monotone_132, n):
    lines = crosscheck.run_crosscheck(PatternPoset(), n).mismatches
    kinds = collections.Counter(line.split("] ", 1)[1].split(":", 1)[0]
                                for line in lines)
    want_kinds, want_sha256 = WRONG_COVER_RULE[n]
    assert len(lines) == sum(want_kinds.values()) == {4: 43, 5: 285}[n]
    assert dict(kinds) == want_kinds
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == want_sha256


def test_the_text_report_lists_fifty_mismatches_and_counts_the_rest(monotone_132):
    report = crosscheck.run_crosscheck(PatternPoset(), 5)
    lines = crosscheck.crosscheck_text(report).splitlines()
    assert lines[3] == "mismatches: 285"
    assert lines[4:] == [f"  {m}" for m in report.mismatches[:50]] + ["  ... and 235 more"]


def _drop_last_in_the_middle(real):
    """A length-4 drop-last cover reported at position 3, a middle letter."""
    return lambda tau: tuple((c, 3 if len(tau) == 4 and pos == 4 else pos)
                             for c, pos in real(tau))


def test_the_walk_reads_only_whether_a_cover_drops_the_first_letter(monkeypatch):
    # a drop-last cover reported at a middle position is still a drop-last:
    # the sweep's records equal those of the correct rule
    want = crosscheck.run_crosscheck(PatternPoset(), 5).records
    with wrong_rule(monkeypatch, perms, "down_covers", _drop_last_in_the_middle):
        assert crosscheck.run_crosscheck(PatternPoset(), 5).records == want


@pytest.mark.parametrize("poset, n, wrong", [
    (PatternPoset(), 6, None), (FactorPoset(("a", "b")), 7, None),
    (PatternPoset(), 6, _drop_last_in_the_middle)],
    ids=["pattern", "factor-ab", "pattern-drop-last-in-the-middle"])
def test_each_walk_label_is_the_letter_its_window_drops(monkeypatch, poset, n, wrong):
    # a step from window (lo, hi) to (lo + 1, hi) is labelled lo + 1, one to
    # (lo, hi - 1) is labelled hi, and every label after a first-letter drop
    # is larger, whatever position the cover rule reports
    steps = []

    def visit(d) -> None:
        if d:
            (lo, hi), after = path.windows[d - 1], path.windows[d]
            first = after == (lo + 1, hi)
            assert first or after == (lo, hi - 1)
            assert path.labels[d - 1] == (lo + 1 if first else hi)
            assert all(path.labels[d - 1] > path.labels[k]
                       for k in range(d - 1) if path.windows[k + 1][0] > path.windows[k][0])
            steps.append(first)

    with (wrong_rule(monkeypatch, perms, "down_covers", wrong) if wrong
          else contextlib.nullcontext()):
        for top in (e for r in range(poset.min_rank, n + 1) for e in poset.elements_of_rank(r)):
            path = chains.Path(poset, top, chains.node_table(poset, poset.minimum, top))
            chains.walk(path, visit)
    assert True in steps and False in steps


def _reversed(real):
    return lambda e: real(e)[::-1]


def _jump_without_interior_test(real):
    return lambda rho, leq, outer, inner: real(rho, lambda x, y: False, outer, inner)


# Wrong rules and the intervals the sweep flags under each: how many, and
# the sha256 of their sorted [bottom, top] texts as JSON.  A check that
# only repeats another's verdict can be dropped without moving a pin.
AB, ABC = FactorPoset(("a", "b")), FactorPoset(("a", "b", "c"))


@pytest.mark.parametrize("module, name, wrong, poset, n, flagged, sha256", [
    (perms, "is_monotone", _132_monotone, PatternPoset(), 5, 132,
     "0bb5c63bf04becee9a3a192310a9ee60b7f542f467810b18f8aeb5e1d4f09e9e"),
    (perms, "down_covers", _reversed, PatternPoset(), 5, 526,
     "c26f0bad232f618fb6bfc9b4b4f0bb41a9dca8e5b7b5684380f3b8696b140a6d"),
    (words, "down_covers_word", _reversed, AB, 6, 776,
     "77773ac09ff63853bbadd17c4f4dafb3428f9449f56c94e776e8a0e6b95cd36b"),
    (words, "down_covers_word", _reversed, ABC, 4, 366,
     "c32af0ac229e1928751c2958cba305abce86b27cd9bf50e75f3612a8861acf82"),
    (morse, "_exterior_jump", _jump_without_interior_test, PatternPoset(), 5, 140,
     "73aa94321fad57541b31bb32b09cc7ad672e668bc976e6917c230315d0a47bae"),
    (morse, "_exterior_jump", _jump_without_interior_test, AB, 6, 182,
     "f95eb7f1d50fd092a02c31f8b44323eca1b8cbdfdb4d474ed7a3ae892ae7efa7"),
    (morse, "_exterior_jump", _jump_without_interior_test, ABC, 4, 90,
     "7976d5b3297e26feeaea848ae24cbe76c475fb4edc05bae39729a10ef8145328"),
], ids=["monotone-132", "pattern-covers-reversed",
        "word-covers-reversed-ab", "word-covers-reversed-abc",
        "jump-without-interior-pattern", "jump-without-interior-ab",
        "jump-without-interior-abc"])
def test_a_wrong_rule_flags_the_same_intervals(monkeypatch, module, name, wrong,
                                              poset, n, flagged, sha256):
    with wrong_rule(monkeypatch, module, name, wrong):
        report = crosscheck.run_crosscheck(poset, n)
    bad = [r for r in report.records if r.problems]
    intervals = sorted([r.bottom, r.top] for r in bad)
    assert len(intervals) == flagged
    assert hashlib.sha256(json.dumps(intervals).encode()).hexdigest() == sha256


def test_chain_count_catches_a_wrong_cover_rule(monotone_132):
    # treating 132 as monotone drops its cover 12 from the chain listing;
    # the count over the order relation still sees both chains
    poset, bottom, top = PatternPoset(), (1,), (1, 3, 2)
    problems = record_of(poset, bottom, top).problems
    assert "chains: found 1, naive descent gives 2" in problems


def test_a_cover_rule_that_lists_no_chain_is_reported(monotone_132):
    # treating 132 as monotone leaves [12, 132] without a chain
    poset, bottom, top = PatternPoset(), (1, 2), (1, 3, 2)
    problems = record_of(poset, bottom, top).problems
    assert "chains: found 0, naive descent gives 1" in problems


@pytest.mark.parametrize("poset, bottom, n", [
    (PatternPoset(max_top=None), (1,), 16), (FactorPoset(max_top=None), (), 15),
    (PatternPoset(max_top=None), (1,), 20), (PatternPoset(max_top=None), (1,), 24),
    (FactorPoset(max_top=None), (), 20),
    pytest.param(PatternPoset(max_top=None), (1,), 30, marks=pytest.mark.slow),
    pytest.param(PatternPoset(max_top=None), (1,), 40, marks=pytest.mark.slow)],
    ids=["pattern-16", "factor-15", "pattern-20", "pattern-24", "factor-20",
         "pattern-30", "pattern-40"])
def test_largest_single_intervals_agree_on_every_route(capsys, poset, bottom, n):
    # exit 0: the closed form, the Morse route, brute force and the Euler
    # characteristic agree on a [1, tau] with |tau| = 16 to 40 or an
    # [eps, w] with |w| = 15 or 20 that has a critical chain; the Morse
    # route walks only what the prune leaves of 10^5 to 10^11 chains
    _, _, top = _first_nonzero(poset, bottom, random.Random(1516), n)
    argv = ["mobius", poset.format(bottom), poset.format(top),
            "--poset", poset.kind, "--force", "--format", "json"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["agree"] is True


def test_a_large_homotopy_type_agrees_with_the_closed_form(capsys):
    # the |tau| = 20 draw above: one critical chain, of dimension 3
    poset = PatternPoset(max_top=None)
    _, _, top = _first_nonzero(poset, (1,), random.Random(1516), 20)
    argv = ["homotopy", "1", poset.format(top), "--force", "--format", "json"]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["homotopy"], out["mobius"]) == ("sphere(3)", -1)
    assert poset.mobius_closed_form((1,), top) == -1


@pytest.mark.slow
def test_length_seven_pattern_sweep():
    report = crosscheck.run_crosscheck(PatternPoset(), 7, jobs=None)
    assert report.total == 94675 and report.mismatches == []
    assert report.mu_histogram == {-1: 13764, 0: 67146, 1: 13765}


def rise_line(poset, bottom, top) -> str | None:
    """The rise line the sweep owes [bottom, top]: the first two label
    tuples in a row of maximal_chains' listing, under the cover rule in
    force, of which the second does not exceed the first."""
    ids = [c.labels for c in chains.maximal_chains(poset, bottom, top)]
    return next((f"chains: labels {a} then {b} do not rise"
                 for a, b in zip(ids, ids[1:]) if b <= a), None)


@pytest.mark.parametrize("module, name, poset, n, flagged", [
    (perms, "down_covers", PatternPoset(), 5, 526),
    (words, "down_covers_word", AB, 6, 776),
    (words, "down_covers_word", ABC, 4, 366),
], ids=["pattern", "word-ab", "word-abc"])
def test_reversed_covers_give_each_flagged_interval_one_rise_line(
        monkeypatch, module, name, poset, n, flagged):
    # the rise line names two tuples that stand in a row in the listing,
    # the second no larger than the first
    with wrong_rule(monkeypatch, module, name, _reversed):
        report = crosscheck.run_crosscheck(poset, n)
        bad = [r for r in report.records if r.problems]
        want = [[rise_line(poset, poset.parse(r.bottom), poset.parse(r.top))] for r in bad]
    assert len(bad) == flagged
    assert [[p for p in r.problems if p.startswith("chains: labels")] for r in bad] == want


def _first_cover_twice_at(top):
    """A cover rule that lists the top's first cover again at the end."""
    return lambda real: lambda e: real(e) + real(e)[:1] if e == top else real(e)


@pytest.mark.parametrize("module, name, poset, bottom, top", [
    (perms, "down_covers", PatternPoset(), (1,), (2, 1, 3, 5, 4, 6)),
    (words, "down_covers_word", FactorPoset(), (), tuple("abba")),
], ids=["pattern", "factor"])
def test_a_cover_listed_twice_gets_the_rise_line_then_the_count_line(
        monkeypatch, module, name, poset, bottom, top):
    # the chains through the repeated cover come again, after the last one
    ids = [c.labels for c in chains.maximal_chains(poset, bottom, top)]
    n = len(ids)
    with wrong_rule(monkeypatch, module, name, _first_cover_twice_at(top)):
        laws = laws_of(poset, bottom, top)
        found = len(chains.maximal_chains(poset, bottom, top))
    assert found > n
    assert laws[:2] == (f"chains: labels {ids[-1]} then {ids[0]} do not rise",
                               f"chains: found {found}, naive descent gives {n}")


def test_a_cover_listed_twice_in_a_row_gets_the_rise_line(monkeypatch):
    # two equal label tuples in a row do not rise; the repeated chain is
    # critical both times
    poset, bottom, top = PatternPoset(), (1,), (2, 1, 3)
    twice = lambda real: lambda e: real(e)[:1] + real(e) if e == top else real(e)
    with wrong_rule(monkeypatch, perms, "down_covers", twice):
        laws = laws_of(poset, bottom, top)
    assert laws == ("chains: labels (3, 1) then (3, 1) do not rise",
                           "chains: found 3, naive descent gives 2",
                           "critical: 2 critical chains")


def test_a_critical_chain_that_does_not_come_last_is_reported(monotone_132):
    # treating 132 as monotone drops two chains of [1, 21534] and leaves its
    # one critical chain before a last chain that is not critical
    poset, bottom, top = PatternPoset(), (1,), (2, 1, 5, 3, 4)
    routes = crosscheck.top_routes(poset, top)
    i = routes.bottoms.index(bottom)
    assert len(routes.dims[i]) == 1
    assert crosscheck.check_interval(poset, routes, i).problems[-1] == (
        "critical: the critical chain is not the lexicographically last")


def test_mobius_computes_no_chain_count(capsys, monkeypatch):
    # only the chain laws read the count over the order relation
    def uncalled(*args):
        raise AssertionError("a chain count was computed")

    poset, bottom, top = PatternPoset(), (1,), (2, 1, 3, 5, 4, 6)
    with monkeypatch.context() as patch:
        patch.setattr(crosscheck, "naive_chain_count", uncalled)
        assert cli.main(["mobius", "1", "213546"]) == 0
        assert capsys.readouterr().out.endswith("mobius: 1\n")
        assert crosscheck.evaluate(poset, bottom, top).problems() == []
    with wrong_rule(monkeypatch, perms, "is_monotone", _132_monotone):
        report = crosscheck.run_crosscheck(poset, 4)
    assert any(m.split("] ", 1)[1].startswith("chains: found ") for m in report.mismatches)
