"""
The exhaustive cross-check harness: every interval of a poset up to a size
cap, every Mobius route, and every structural invariant the machinery is
supposed to satisfy.

evaluate runs every Mobius route on one interval for the mobius subcommand;
it checks its pair with poset.check_pair, as morse_report and
maximal_chains do, and is then the one-bottom case of top_routes, whose
bottoms must lie under the top.  Brute force, the Euler characteristic and,
for the chain laws, the chain count read only the order relation, so they
are computed per top and read per bottom: top_routes enumerates a top's
down-set once for a column of each, and one walk from the top folds the
Morse route (morse.MorseFold) down the chains of every bottom.  One switch,
laws on whole tops: given no bottoms, it takes all, and folds the chain
laws (LawFold) too, as the sweep asks.  No route value is memoized across
calls, so a check reads only values computed in its own call.  A cache
file is only checked against the brute-force values and appended to,
never read in their place.  A parallel sweep forks its own workers
(_fork_runs) and folds their runs of consecutive tops into the report, and
the cache, in sweep order as each arrives.

Per interval the harness runs the route checks of Routes.problems, as the
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
from .morse import MorseFold, MorseReport
from .posets import (IntervalStructure, MobiusCache, euler_characteristic,
                     interval_structure, mobius_bruteforce)


class WorkerDied(RuntimeError):
    """A worker of a parallel sweep died, killed from outside (the OOM
    killer, SIGKILL) or exited; the sweep cannot finish."""


class Routes(NamedTuple):
    """Every Mobius route on one interval, and the problem lines of the
    chain laws (LawFold.laws); one switch, laws on whole tops: None where
    top_routes was given bottoms."""

    closed: int
    report: MorseReport
    brute: int
    euler: int | None
    laws: tuple[str, ...] | None

    def problems(self) -> list[str]:
        """The route checks that check_interval and cli.cmd_mobius share.
        At rank gap one the open interval is empty: Euler reads -1 and
        checks nothing."""
        closed, morse, brute = self.closed, self.report.mobius, self.brute
        problems = []
        if not closed == morse == brute:
            problems.append(f"mu-disagreement: closed={closed} morse={morse} brute={brute}")
        if self.report.rank_gap >= 2 and self.euler != brute:
            problems.append(f"mu-euler: euler={self.euler} brute={brute}")
        return problems


def top_routes(poset, top, bottoms=None) -> dict:
    """
    The Routes of [b, top] for every b in bottoms, which must lie under the
    top.  One switch, laws on whole tops: no bottoms means every element
    under the top, with the chain laws folded down the full walk (the
    sweep); given bottoms get the routes alone, on a walk that skips the
    subtrees of dead nodes (MorseFold.pruning_visit).  One enumeration of
    the top's down-set gives the columns of brute force, the Euler
    characteristic and, with the laws, the chain count.

    >>> from posetmorse.posets import PatternPoset
    >>> p, top = PatternPoset(), (2, 1, 3, 5, 4, 6)
    >>> routes = top_routes(p, top)[(1,)]
    >>> routes.laws == () and routes._replace(laws=None) == evaluate(p, (1,), top)
    True
    """
    interval = interval_structure(poset, poset.minimum, top)
    elements = interval.elements
    brute = mobius_bruteforce(poset, interval)
    euler = euler_characteristic(poset, interval)
    fold = MorseFold(poset, top, elements if bottoms is None else bottoms)
    if bottoms is None:
        law_fold = LawFold(poset, fold, dict(zip(elements, naive_chain_count(poset, interval))))
        walk(poset, fold.path, elements, law_fold.visit)
        found = law_fold.laws()
    else:
        walk(poset, fold.path, bottoms, fold.pruning_visit)
        found = dict.fromkeys(bottoms)
    position = {e: i for i, e in enumerate(elements)}
    return {b: Routes(poset.mobius_closed_form(b, top), report, brute[i], euler[i], found[b])
            for b, report in fold.reports().items() for i in (position[b],)}


def evaluate(poset, bottom, top) -> Routes:
    """Every route on a checked pair: the one-bottom case of top_routes."""
    poset.check_pair(bottom, top)
    return top_routes(poset, top, (bottom,))[bottom]


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
    A chain that ends at b adds to b's tally: one chain, its label tuple
    as the last, the first two tuples in a row that do not rise, its
    msi-fast line, and how many critical chains the fold held for b
    before it.  laws() weighs the count against expect[b], b's chains by
    the order relation, and the fold's critical tally of b against the law
    that at most one chain, the last, is critical (Babson and Hersh).
    fast[d], by depth as on the path, holds the fast law's spans of the
    chain at depth d, by end, and the chain breaks the fast law when it
    differs from msis[d]: at depth d both gain only spans that end at
    d - 1, so the two agree exactly when every depth's new spans are that
    depth's new MSI.
    """

    def __init__(self, poset, fold: MorseFold, expect: dict):
        path, msis, critical = fold.path, fold.msis, fold.tallies
        elements, windows, labels = path.elements, path.windows, path.labels
        morse_visit, jump = fold.visit, poset.jump
        n = len(labels)
        self.fast = fast = [()] * (n + 1)
        self.expect, self.critical = expect, critical
        # bottom -> [chains, last label tuple, first two not rising, lines, critical before]
        self.tallies = tallies = {b: [0, None, None, [], 0] for b in expect}

        def visit(d) -> None:
            e = elements[d]
            at = tallies[e]
            at[4] = len(critical[e])
            morse_visit(d)
            if d > 1:
                j = d - 1
                spans = [(j, j)] if labels[j - 1] > labels[j] == windows[j][0] + 1 else []
                i = j - 1
                while i >= 0 and labels[i] > labels[i + 1]:  # the falling run
                    x, k = jump(elements[i])
                    if k == d - i and x == e and (i + 1, j) not in spans:
                        spans.append((i + 1, j))
                    i -= 1
                fast[d] = fast[d - 1] + tuple(spans) if spans else fast[d - 1]
            ids = tuple(labels[:d])
            if at[0] and at[2] is None and ids <= at[1]:
                at[2] = at[1], ids
            at[0] += 1
            at[1] = ids
            if fast[d] != msis[d]:
                at[3].append(f"msi-fast: {sorted(fast[d])} != {list(msis[d])} on chain {ids}")

        self.visit = visit

    def laws(self) -> dict:
        """The law lines of every bottom once the walk is done: the rise
        line, the count line, the msi-fast lines in chain order, then the
        critical lines."""
        found = {}
        for b, (count, _, fall, lines, before) in self.tallies.items():
            head = [f"chains: labels {fall[0]} then {fall[1]} do not rise"] if fall else []
            if count != self.expect[b]:
                head.append(f"chains: found {count}, naive descent gives {self.expect[b]}")
            critical = len(self.critical[b])
            if critical > 1:
                lines = lines + [f"critical: {critical} critical chains"]
            elif critical and before:
                lines = lines + ["critical: the critical chain is not the lexicographically last"]
            found[b] = tuple(head + lines)
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


def check_interval(poset, routes: Routes) -> IntervalRecord:
    """The record of one interval from its routes with the chain laws,
    from top_routes(poset, top) (one switch, laws on whole tops): the
    interval's texts, its brute-force value, which the histogram and the
    cache check read, and its problem lines, the route checks' then the
    laws'.  A route that disagrees with brute force is named in its
    mu-disagreement or mu-euler line, and one that agrees holds the
    brute-force value."""
    report = routes.report
    return IntervalRecord(poset.format(report.bottom), poset.format(report.top),
                          routes.brute, tuple(routes.problems()) + routes.laws)


def _interval_records(poset, tops) -> list[IntervalRecord]:
    """Every interval under the given tops, from one top_routes call per top."""
    return [check_interval(poset, routes)
            for top in tops for routes in top_routes(poset, top).values()]


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
        # about four runs per worker, so one that draws cheap tops takes another
        size = -(-len(tops) // (4 * jobs))
        chunks = [tops[i:i + size] for i in range(0, len(tops), size)]
        _fork_runs(poset, chunks, min(jobs, len(chunks)), fold)
    else:
        fold(_interval_records(poset, tops))
    return CrosscheckReport(poset.tag, max_size, len(records), histogram, mismatches, records)


def _fork_runs(poset, chunks, jobs, fold) -> None:
    """Fold the runs in sweep order, run k from worker k % jobs of the jobs
    forked ones.  Each worker pickles its runs down its own pipe, each
    after its length, and the parent reads every pipe as data comes, so a
    worker that dies is seen at once: its pipe ends before its last run,
    which raises WorkerDied, named from the wait status.  An exception in
    a run is raised in its turn.  However this ends, the workers are killed
    and reaped, so RUSAGE_CHILDREN counts them.  The caller holds no other
    thread: a fork copies only the calling one."""
    import pickle
    import select
    import signal

    workers = {}  # read end of a pipe -> [pid, bytes read, the runs still owed]
    runs = {}  # run index -> the run, read ahead of its turn
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
                        out.write(len(data).to_bytes(8, "big") + data)
                        out.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            workers[read] = [pid, bytearray(), list(range(w, len(chunks), jobs))]
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for k in range(len(chunks)):
            while k not in runs:
                waiting = [fd for fd, (_, _, owed) in workers.items() if owed]
                for fd in select.select(waiting, [], [])[0]:
                    pid, buf, owed = workers[fd]
                    data = os.read(fd, 1 << 16)
                    if not data:  # the pipe ended early: the worker died
                        del workers[fd]
                        os.close(fd)
                        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                        raise WorkerDied(f"crosscheck worker {pid} " + (
                            f"was killed by {signal.Signals(-code).name}" if code < 0
                            else f"exited with code {code}"))
                    buf += data
                    while len(buf) >= 8 + (n := int.from_bytes(buf[:8], "big")):
                        runs[owed.pop(0)] = pickle.loads(buf[8:8 + n])
                        del buf[:8 + n]
            run = runs.pop(k)
            if isinstance(run, Exception):
                raise run
            fold(map(IntervalRecord._make, run))
    finally:
        for fd, (pid, _, _) in workers.items():
            os.close(fd)
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
