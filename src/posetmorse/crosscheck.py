"""
The exhaustive cross-check harness: every interval of a poset up to a size
cap, every Mobius route, and every structural invariant the machinery is
supposed to satisfy.

evaluate runs every Mobius route on one interval for the mobius subcommand:
the pruned Morse walk of morse.morse_summary, which checks the pair with
poset.check_pair first, as morse_report and maximal_chains do, then brute
force and the Euler characteristic on the interval's own structure, so a
high bottom pays for its interval, not for its top's down-set.  A sweep
reads per top instead.  Brute force, the Euler characteristic and, for the
chain laws, the chain count read only the order relation: top_routes
enumerates a top's down-set once for a column of each, and one full walk
from the top folds the Morse route (morse.MorseFold) and the chain laws
(LawFold) down the chains of every bottom, into a column of critical
dimensions and one of law lines.  The walk's node table is the down-set
in the order of its interval structure, so the folds keep their tallies
in lists by node that are already those columns.  The closed form walks
down the top's exterior chain, which depends on the top alone, so one
pass down it gives the closed form's column too
(poset.closed_form_column).  The sweep reads each interval's record
straight off its top's columns (check_interval), every route's value
included; only evaluate builds a Routes, with its MorseReport, and runs
the closed form on its one interval.  No route value is memoized across
calls, so a check reads only values computed in its own call.  A cache file is
only checked against the brute-force values and appended to, never read
in their place.  A parallel sweep forks its own workers (_fork_runs) and
folds their runs of consecutive tops into the report, and the cache, in
sweep order, each run read in its turn as one pickle from its worker's
pipe.

Per interval the harness runs the route checks of route_problems, as the
mobius subcommand does: the closed form, the critical-chain count and the
brute-force recursion agree (plus the reduced Euler characteristic when the
rank gap is at least two).  Then, from the chain laws the walk folded for
the interval, it verifies that the chains' label sequences rise strictly in
the order the walk lists them, that there are as many chains as the order
relation has cover paths, that the poset's fast skipped-interval law
matches the definition, and that at most one chain, the lexicographically
last one, is ever critical, which only the laws' unpruned walk sees.  No
check repeats another's verdict or checks what the code rules out by its
build: the ascent and descent laws hold wherever the fast law does, a
strictly falling chain has only weak descents before its last step (both by
where chains.walk takes its labels, see LawFold), the closed form returns
only -1, 0 or 1, and a homotopy type at odds with brute force is a
mu-disagreement.  Label sequences that rise strictly are distinct, sorted
and poset lexicographic (the chains sharing a prefix stand together), and a
duplicate, an unsorted pair or a poset-lex fault breaks the rise, so one
rise line, naming the first two sequences in a row that do not rise, stands
for all three.  The problem lines come in a fixed order: the route checks,
the rise line, the count line, each chain's fast-law line in chain order,
then the critical checks.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .chains import walk
from .morse import MorseFold, MorseReport, morse_summary, signed_count
from .posets import (IntervalStructure, MobiusCache, euler_characteristic,
                     interval_structure, mobius_bruteforce)


class WorkerDied(RuntimeError):
    """A worker of a parallel sweep died, killed from outside (the OOM
    killer, SIGKILL) or exited; the sweep cannot finish."""


def route_problems(closed: int, morse: int, brute: int, euler: int | None,
                   rank_gap: int) -> list[str]:
    """The route checks that check_interval and cli.cmd_mobius share.
    At rank gap one the open interval is empty: Euler reads -1 and
    checks nothing."""
    problems = []
    if not closed == morse == brute:
        problems.append(f"mu-disagreement: closed={closed} morse={morse} brute={brute}")
    if rank_gap >= 2 and euler != brute:
        problems.append(f"mu-euler: euler={euler} brute={brute}")
    return problems


class Routes(NamedTuple):
    """Every Mobius route on one interval, as evaluate gives it."""

    closed: int
    report: MorseReport
    brute: int
    euler: int | None

    def problems(self) -> list[str]:
        """The route checks of route_problems on this interval."""
        report = self.report
        return route_problems(self.closed, report.mobius, self.brute, self.euler,
                              report.rank_gap)


class TopRoutes(NamedTuple):
    """The routes of [b, top] for every b under the top, as columns
    aligned with bottoms: the rank gap, the closed form, brute force,
    Euler, the critical chains' dimensions (MorseFold.tallies) and the
    chain laws' lines (LawFold.laws)."""

    top: object
    bottoms: tuple
    gaps: list[int]
    closed: list[int]
    brute: tuple[int, ...]
    euler: tuple
    dims: list[list[int]]
    laws: list[tuple[str, ...]]


def top_routes(poset, top) -> TopRoutes:
    """
    The route columns of [b, top] for every element b under the top, in
    the order of its interval structure, with the chain laws folded down
    the full walk: the sweep's columns of one top.  One enumeration of the
    top's down-set gives the columns of brute force, the Euler
    characteristic and the chain count, and one pass down the top's
    exterior chain the closed form's (poset.closed_form_column).

    >>> from posetmorse.posets import PatternPoset
    >>> p, top = PatternPoset(), (2, 1, 3, 5, 4, 6)
    >>> routes = top_routes(p, top)
    >>> i = routes.bottoms.index((1,))
    >>> (routes.gaps[i], routes.closed[i], routes.brute[i], routes.euler[i],
    ...  routes.dims[i], routes.laws[i])
    (5, 1, 1, 1, [2], ())
    >>> evaluate(p, (1,), top).report.critical_dims
    (2,)
    """
    interval = interval_structure(poset, poset.minimum, top)
    elements = interval.elements
    brute = mobius_bruteforce(poset, interval)
    euler = euler_characteristic(poset, interval)
    fold = MorseFold(poset, top, elements)
    law_fold = LawFold(poset, fold, naive_chain_count(poset, interval))
    walk(fold.path, law_fold.visit)
    rank, n = poset.rank, poset.rank(top)
    return TopRoutes(top, elements, [n - rank(b) for b in elements],
                     poset.closed_form_column(top, elements), brute, euler,
                     fold.tallies, law_fold.laws())


def evaluate(poset, bottom, top) -> Routes:
    """Every route on one interval: the pruned Morse walk of
    morse_summary, which checks the pair first, then brute force and
    Euler on the structure of [bottom, top] itself."""
    report = morse_summary(poset, bottom, top)
    interval = interval_structure(poset, bottom, top)
    return Routes(poset.mobius_closed_form(bottom, top), report,
                  mobius_bruteforce(poset, interval)[0], euler_characteristic(poset, interval)[0])


class LawFold:
    """
    The chain laws of a whole top, folded down its full walk beside the
    Morse route, whose fold tallies every element under the top: visit(d)
    runs fold.visit(d), then checks the fast law on the chain the node
    ends, from the chain's own labels and elements, against the MSIs the
    fold found.  A child's chain is its parent's plus one step, so the
    parent's verdict is updated from the spans that end at the newest step
    j: the singleton (j, j) when labels j - 1 and j fall and step j deletes
    the window's first letter, and (i + 1, j) for each i in the strictly
    falling run of labels that ends at j whose jump reaches this element at
    this depth.
    The paper's lemmas on labels have no check of their own.  Under any
    cover rule, a fault in the first two comes with an msi-fast line, on
    its chain and every chain below it, and the third cannot fail:
    - no ascent lies in an MSI: where the fast law holds, a node's new MSI
      is a fast span, and every step a fast span newly covers is a descent;
    - a strong descent at j is the singleton MSI (j, j): chains.walk labels
      a step by the letter its window drops, so a step that drops the
      last letter, hi, follows one that dropped the first, lo, or the
      last, hi + 1.  A strong descent therefore drops the window's first
      letter, (j, j) is a fast span, and an MSI other than (j, j) breaks
      the fast law at the same node;
    - a strictly falling chain has only weak descents before its last
      step: every label after a first-letter drop lies in the window left
      behind, so is larger, and the labels of last-letter drops fall by
      one.
    No law reads the disjoint family: MorseFold.visit adds a member only
    with its new MSI, past the last member and inside that MSI.
    Every tally is kept by node, as the fold's are.  A chain that ends at
    node b adds to b's tally: one chain, its labels as the last, the first
    two label lists in a row that do not rise, its msi-fast line, and how
    many critical chains the fold held for b before it; a label list
    becomes a tuple only in a problem line.  The fast law's jump of each
    element is read once, into a list by node.  laws() weighs the count
    against expect[b], the chains of [table[b], top] by the order
    relation, and the fold's critical tally of b against the law that at
    most one chain, the last, is critical (Babson and Hersh).
    fast[d], by depth as on the path, holds the fast law's spans of the
    chain at depth d, by end, and the chain breaks the fast law when it
    differs from msis[d]: at depth d both gain only spans that end at
    d - 1, so the two agree exactly when every depth's new spans are that
    depth's new MSI.
    """

    def __init__(self, poset, fold: MorseFold, expect):
        path, msis, critical = fold.path, fold.msis, fold.tallies
        nodes, windows, labels, index = path.nodes, path.windows, path.labels, path.index
        morse_visit = fold.visit
        # node -> the fast law's jump of its element, to a node (-1 off the table)
        jumps = [(index.get(x, -1), k) for x, k in map(poset.jump, path.table)]
        n = len(labels)
        self.fast = fast = [()] * (n + 1)
        self.expect, self.critical = expect, critical
        # node -> [chains, last labels, first two not rising, lines, critical before]
        self.tallies = tallies = [[0, None, None, [], 0] for _ in path.table]

        def visit(d) -> None:
            node = nodes[d]
            at = tallies[node]
            at[4] = len(critical[node])
            morse_visit(d)
            if d > 1:
                j = d - 1
                spans = [(j, j)] if labels[j - 1] > labels[j] == windows[j][0] + 1 else []
                i = j - 1
                while i >= 0 and labels[i] > labels[i + 1]:  # the falling run
                    x, k = jumps[nodes[i]]
                    if k == d - i and x == node and (i + 1, j) not in spans:
                        spans.append((i + 1, j))
                    i -= 1
                fast[d] = fast[d - 1] + tuple(spans) if spans else fast[d - 1]
            ids = labels[:d]
            if at[0] and at[2] is None and ids <= at[1]:
                at[2] = at[1], ids
            at[0] += 1
            at[1] = ids
            if fast[d] != msis[d]:
                at[3].append(f"msi-fast: {sorted(fast[d])} != {list(msis[d])} "
                             f"on chain {tuple(ids)}")

        self.visit = visit

    def laws(self) -> list[tuple[str, ...]]:
        """The law lines of every element of the table once the walk is
        done, in table order: the rise line, the count line, the msi-fast
        lines in chain order, then the critical lines."""
        found = []
        for expect, dims, (count, _, fall, lines, before) in zip(
                self.expect, self.critical, self.tallies):
            head = ([f"chains: labels {tuple(fall[0])} then {tuple(fall[1])} do not rise"]
                    if fall else [])
            if count != expect:
                head.append(f"chains: found {count}, naive descent gives {expect}")
            critical = len(dims)
            if critical > 1:
                lines = lines + [f"critical: {critical} critical chains"]
            elif critical and before:
                lines = lines + ["critical: the critical chain is not the lexicographically last"]
            found.append(tuple(head + lines))
        return found


class IntervalRecord(NamedTuple):
    bottom: str
    top: str
    mu_brute: int
    problems: tuple[str, ...]


class CrosscheckReport(NamedTuple):
    poset_tag: str
    max_size: int
    total: int
    mu_histogram: dict[int, int]
    mismatches: list[str]
    records: list[IntervalRecord]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def naive_chain_count(poset, interval: IntervalStructure) -> tuple[int, ...]:
    """
    Independent chain count: cover paths from each element up to the top of
    the interval structure (x < z with ranks one apart), read from the
    order relation alone, never from the poset's cover rule.  Two covers of
    one element coincide only when it is monotone or flat, and then it has
    one, so entry i counts the chains maximal_chains lists for
    [elements[i], top].
    """
    ranks = [poset.rank(e) for e in interval.elements]
    top = interval.size - 1
    paths = [0] * top + [1]
    for x in range(top - 1, -1, -1):
        paths[x] = sum(paths[z] for z in interval.ups[x] if ranks[z] == ranks[x] + 1)
    return tuple(paths)


def check_interval(poset, routes: TopRoutes, i: int) -> IntervalRecord:
    """The record of interval i of a top's route columns, from
    top_routes(poset, top): the interval's texts, its brute-force value,
    which the histogram and the cache check read, and its problem lines,
    the route checks' then the laws'.  Every route's value, the closed
    form's included, is read off its column; no route runs here.  A
    route that disagrees with brute force is named in its
    mu-disagreement or mu-euler line, and one that agrees holds the
    brute-force value."""
    gap, brute = routes.gaps[i], routes.brute[i]
    problems = route_problems(routes.closed[i], signed_count(gap, routes.dims[i]), brute,
                              routes.euler[i], gap)
    return IntervalRecord(poset.format(routes.bottoms[i]), poset.format(routes.top), brute,
                          tuple(problems) + routes.laws[i])


def _interval_records(poset, tops) -> list[IntervalRecord]:
    """Every interval under the given tops, from one top_routes call per top."""
    return [check_interval(poset, routes, i)
            for routes in (top_routes(poset, top) for top in tops)
            for i in range(len(routes.bottoms))]


def _worker(args) -> list[tuple]:
    """One run of a worker: every interval under the given tops, as plain tuples,
    which pickle without running Python code per record, as named ones do."""
    return [tuple(r) for r in _interval_records(*args)]


def run_crosscheck(poset, max_size: int, cache: MobiusCache | None = None,
                   jobs: int | None = 1) -> CrosscheckReport:
    """
    Check every interval [bottom, top] with rank(top) <= max_size, which
    must be within the poset's size guardrail and at least its smallest
    rank: a sweep that checks no interval would pass vacuously.  The unit
    of parallel work is a run of consecutive tops, about four runs per
    worker, and the runs come back in sweep order.  At most one worker
    process runs per CPU (one CPU without os.fork); jobs=None asks for one
    per CPU.  As each run
    arrives, in sweep order, each interval's brute-force value is checked
    against the cache, and appended to it when the file holds no record; a
    held record that differs is one more problem of that interval.  A sweep
    cut short has appended the records of the runs it folded, a prefix of
    the file a whole sweep writes.
    """
    if max_size < poset.min_rank:
        raise ValueError(f"max size must be at least {poset.min_rank}, got {max_size}")
    poset.check_length(max_size)
    cpus = (os.cpu_count() or 1) if hasattr(os, "fork") else 1
    if jobs is None:
        jobs = cpus
    elif jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, cpus)
    tops = [
        e for d in range(poset.min_rank, max_size + 1)
        for e in poset.elements_of_rank(d)
    ]
    histogram: dict[int, int] = {}
    mismatches: list[str] = []
    records: list[IntervalRecord] = []

    def fold(run) -> None:
        """Check each record of a run against the cache, count it in and keep it."""
        for got in run:
            stale = cache is not None and cache.check(poset.tag, got.bottom, got.top, got.mu_brute)
            rec = got._replace(problems=got.problems + (stale,)) if stale else got
            histogram[rec.mu_brute] = histogram.get(rec.mu_brute, 0) + 1
            for problem in rec.problems:
                mismatches.append(f"[{rec.bottom}, {rec.top}] {problem}")
            records.append(rec)

    if jobs > 1 and len(tops) > 1:
        # about four runs per worker, dealt round-robin: the dearer runs of
        # the longest tops, at the end, are shared among the workers, and
        # the parent folds each run while the workers compute later ones
        size = -(-len(tops) // (4 * jobs))
        chunks = [tops[i:i + size] for i in range(0, len(tops), size)]
        _fork_runs(poset, chunks, min(jobs, len(chunks)), fold)
    else:
        fold(_interval_records(poset, tops))
    return CrosscheckReport(poset.tag, max_size, len(records), histogram, mismatches, records)


def _fork_runs(poset, chunks, jobs, fold) -> None:
    """Fold the runs in sweep order, run k from worker k % jobs of the jobs
    forked ones.  Each worker pickles its runs down its own pipe, and the
    parent loads run k from worker k % jobs's pipe in its turn, so a
    worker that dies is seen when the parent reaches that worker's next
    run: its pipe ends before the run is whole, which makes pickle.load
    raise EOFError or UnpicklingError, and that raises WorkerDied, named
    from the wait status.  An exception in a run is raised in its turn.
    However this ends, the workers are killed and reaped, so
    RUSAGE_CHILDREN counts them.  The caller holds no other thread: a fork
    copies only the calling one."""
    import pickle
    import signal

    workers = []  # by worker: its pid and the read end of its pipe
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for w in range(jobs):  # SIGINT stays blocked until the worker ignores it
            read, write = os.pipe()
            if not (pid := os.fork()):  # the worker, which never returns
                try:
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    os.close(read)  # with the parent gone, a write fails
                    out = open(write, "wb")
                    for tops in chunks[w::jobs]:
                        try:
                            data = pickle.dumps(_worker((poset, tops)))
                        except Exception as exc:
                            data = pickle.dumps(exc)
                        out.write(data)
                        out.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            workers.append((pid, open(read, "rb")))
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for k in range(len(chunks)):
            pid, pipe = workers[k % jobs]
            try:
                run = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # the pipe ended early: the worker died
                del workers[k % jobs]
                pipe.close()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise WorkerDied(f"crosscheck worker {pid} " + (
                    f"was killed by {signal.Signals(-code).name}" if code < 0
                    else f"exited with code {code}")) from None
            if isinstance(run, Exception):
                raise run
            fold(map(IntervalRecord._make, run))
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # had a fork failed


def crosscheck_json(report: CrosscheckReport) -> dict:
    return {
        "poset": report.poset_tag,
        "max_size": report.max_size,
        "intervals": report.total,
        "mu_histogram": {str(k): v for k, v in sorted(report.mu_histogram.items())},
        "mismatches": list(report.mismatches),
    }


def crosscheck_text(report: CrosscheckReport) -> str:
    lines = [
        f"crosscheck {report.poset_tag} up to size {report.max_size}",
        f"intervals checked: {report.total}",
        "mobius histogram: " + ", ".join(
            f"{k}: {v}" for k, v in sorted(report.mu_histogram.items())),
        f"mismatches: {len(report.mismatches)}",
    ]
    lines.extend(f"  {m}" for m in report.mismatches[:50])
    if len(report.mismatches) > 50:
        lines.append(f"  ... and {len(report.mismatches) - 50} more")
    return "\n".join(lines) + "\n"
