"""
The exhaustive cross-check harness: every interval of a poset up to a size
cap, every Mobius route, and every structural invariant the machinery is
supposed to satisfy.

evaluate runs every Mobius route on one interval, for this harness and for
the mobius subcommand alike; it checks its pair with poset.check_pair, as
morse_report and maximal_chains do, and is then the one-bottom case of
top_routes, whose bottoms must lie under the top.  Brute force, the Euler
characteristic and the chain count read only the order relation, so they
are computed per top and read per bottom: top_routes enumerates a top's
down-set once for a column of each, and one Morse walk from the top lists
the chains of every bottom asked for (morse.morse_reports).  No route
value is memoized across calls, so a check reads only values computed in
its own call.  A cache file is only checked against the brute-force values
and appended to, never read in their place.  A parallel sweep submits runs
of consecutive tops in order and reads them in order, so its records
arrive in sweep order, as in a serial one.

Per interval the harness runs the route checks of Routes.problems, as the
mobius subcommand does: the closed form, the critical-chain count and the
brute-force recursion agree (plus the reduced Euler characteristic when
the rank gap is at least two) on a value in {-1, 0, 1}.  Then it verifies
that the chain listing is poset lexicographic with consistent labels and
as many chains as the order relation has cover paths, that the poset's
fast skipped-interval law matches the definition, the descent and ascent
laws, the disjoint-family laws, and that at most one chain, the
lexicographically last one, is ever critical, with the homotopy type
matching the Mobius value.  Label sequences that rise strictly are
distinct, sorted and poset lexicographic (the chains sharing a prefix
stand together), so the duplicate, sort and poset-lex checks run only when
the rise fails.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from .chains import StepClass, classify_steps, is_poset_lex
from .morse import MorseReport, morse_reports
from .posets import (IntervalStructure, MobiusCache, euler_characteristic,
                     interval_structure, mobius_bruteforce)


@dataclass(frozen=True)
class Routes:
    """Every Mobius route on one interval, and its number of maximal
    chains by the order relation."""

    closed: int
    report: MorseReport
    chain_count: int
    brute: int
    euler: int | None

    def problems(self) -> list[str]:
        """The route checks that check_interval and cli.cmd_mobius share.
        At rank gap one the open interval is empty: Euler reads -1 and
        checks nothing."""
        closed, morse, brute = self.closed, self.report.mobius, self.brute
        problems = []
        if closed not in (-1, 0, 1):
            problems.append(f"mu-range: closed form returned {closed}")
        if not closed == morse == brute:
            problems.append(f"mu-disagreement: closed={closed} morse={morse} brute={brute}")
        if self.report.rank_gap >= 2 and self.euler != brute:
            problems.append(f"mu-euler: euler={self.euler} brute={brute}")
        return problems


def top_routes(poset, top, bottoms=None) -> dict:
    """
    The Routes of [b, top] for every b in bottoms, which must lie under the
    top, every element under the top when bottoms is None.  One
    enumeration of the top's down-set gives the columns of brute force,
    the Euler characteristic and the chain count, and one Morse walk the
    chains of every bottom.

    >>> from posetmorse.posets import PatternPoset
    >>> p, top = PatternPoset(), (2, 1, 3, 5, 4, 6)
    >>> top_routes(p, top)[(1,)] == evaluate(p, (1,), top)
    True
    """
    interval = interval_structure(poset, poset.minimum, top)
    if bottoms is None:
        bottoms = interval.elements
    position = {e: i for i, e in enumerate(interval.elements)}
    brute = mobius_bruteforce(poset, interval)
    euler = euler_characteristic(poset, interval)
    chain_count = naive_chain_count(poset, interval)
    reports = morse_reports(poset, top, bottoms)
    return {b: Routes(poset.mobius_closed_form(b, top), reports[b],
                      chain_count[i], brute[i], euler[i])
            for b in bottoms for i in (position[b],)}


def evaluate(poset, bottom, top) -> Routes:
    """Every route on a checked pair: the one-bottom case of top_routes."""
    poset.check_pair(bottom, top)
    return top_routes(poset, top, (bottom,))[bottom]


@dataclass(frozen=True)
class IntervalRecord:
    bottom: str
    top: str
    rank_gap: int
    mu_closed: int
    mu_morse: int
    mu_brute: int
    euler: int | None
    problems: tuple[str, ...]


@dataclass
class CrosscheckReport:
    poset_tag: str
    max_size: int
    total: int = 0
    mu_histogram: dict[int, int] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    records: list[IntervalRecord] = field(default_factory=list)

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


def check_interval(poset, bottom, top, routes: Routes) -> IntervalRecord:
    """Run every invariant suite on one interval over its routes, from
    top_routes or evaluate."""
    problems = routes.problems()
    report = routes.report
    gap, mu_brute = report.rank_gap, routes.brute

    ids = [d.chain.labels for d in report.chains]
    rising = all(a < b for a, b in zip(ids, ids[1:]))  # see the module docstring
    if not rising and len(set(ids)) != len(ids):
        problems.append("chains: duplicate label sequences")
    if not rising and ids != sorted(ids):
        problems.append("chains: not sorted by label sequence")
    expect = routes.chain_count
    if len(ids) != expect:
        problems.append(f"chains: found {len(ids)}, naive descent gives {expect}")
    if not rising and not is_poset_lex([d.chain for d in report.chains]):
        problems.append("poset-lex: chain order violates the divergence property")

    classes = ()
    expected: dict = {}  # bottom window -> the labels of a chain that ends there
    for d in report.chains:
        chain, msis = d.chain, d.msis
        lo, hi = window = chain.windows[-1]
        if window not in expected:
            expected[window] = set(range(1, poset.rank(top) + 1)) - set(range(lo + 1, hi + 1))
        if set(chain.labels) != expected[window]:
            problems.append(f"labels: chain {chain.labels} does not match its window")
        classes = classify_steps(chain)
        covered = {k for a, b in msis for k in range(a, b + 1)} if msis else ()
        for idx, cls in enumerate(classes, start=1):
            if cls is StepClass.STRONG_DESCENT and (idx, idx) not in msis:
                problems.append(
                    f"descent-law: strong descent at {idx} of {chain.labels} "
                    "is not a singleton interval")
            if cls is StepClass.ASCENT and idx in covered:
                problems.append(
                    f"ascent-law: ascent at {idx} of {chain.labels} "
                    "lies in a minimal skipped interval")
        fast = poset.msis_fast(chain)
        if fast != list(msis):
            problems.append(
                f"msi-fast: {fast} != {list(msis)} on chain {chain.labels}")
        if d.family:
            seen: set[int] = set()
            for a, b in d.family:
                pts = set(range(a, b + 1))
                if pts & seen:
                    problems.append(f"family: overlapping members on chain {chain.labels}")
                seen |= pts
                if not any(p <= a and b <= q for p, q in msis):
                    problems.append(
                        f"family: member ({a},{b}) of chain {chain.labels} lies in "
                        "no minimal interval")

    if report.critical_count > 1:
        problems.append(f"critical: {report.critical_count} critical chains")
    if report.critical_count == 1 and not report.chains[-1].critical:
        problems.append("critical: the critical chain is not the lexicographically last")
    ls = ids[-1] if ids else ()
    if len(ls) >= 2 and all(ls[k] > ls[k + 1] for k in range(len(ls) - 1)):
        # classes are the last chain's, from the loop above
        if any(c is not StepClass.WEAK_DESCENT for c in classes[:-1]):
            problems.append(
                "descent-structure: a strictly decreasing id has a strong "
                "descent before its final step")
    if gap >= 2:
        h = report.homotopy
        if report.critical_count == 0 and (mu_brute != 0 or h.kind != "contractible"):
            problems.append(f"homotopy: no critical chains but mu={mu_brute}, type={h}")
        if report.critical_count == 1:
            d0 = next(d for d in report.chains if d.critical)
            want = -1 if d0.dim % 2 else 1
            if h.kind != "sphere" or mu_brute != want:
                problems.append(f"homotopy: one critical chain of dim {d0.dim} "
                                f"but mu={mu_brute}, type={h}")

    return IntervalRecord(
        bottom=poset.format(bottom),
        top=poset.format(top),
        rank_gap=gap,
        mu_closed=routes.closed,
        mu_morse=report.mobius,
        mu_brute=mu_brute,
        euler=routes.euler if gap >= 2 else None,
        problems=tuple(problems),
    )


def _interval_records(poset, tops) -> list[IntervalRecord]:
    """Every interval under the given tops, from one top_routes call per top."""
    return [check_interval(poset, b, top, routes)
            for top in tops for b, routes in top_routes(poset, top).items()]


def _worker(args) -> list[IntervalRecord]:
    """One pool chunk: every interval under the given tops."""
    return _interval_records(*args)


def run_crosscheck(poset, max_size: int, cache: MobiusCache | None = None,
                   jobs: int | None = 1) -> CrosscheckReport:
    """
    Check every interval [bottom, top] with rank(top) <= max_size, which
    must be within the poset's size guardrail and at least its smallest
    rank: a sweep that checks no interval would pass vacuously.  The unit
    of parallel work is a run of consecutive tops, about four runs per
    worker, and the runs come back in sweep order.  At most one worker
    process runs per CPU; jobs=None asks for one per CPU.  After the sweep,
    in sweep order, each interval's brute-force value is checked against
    the cache, and appended to it when the file holds no record; a held
    record that differs is one more problem of that interval.
    """
    if max_size < poset.min_rank:
        raise ValueError(f"max size must be at least {poset.min_rank}, got {max_size}")
    poset.check_length(max_size)
    cpus = os.cpu_count() or 1
    if jobs is None:
        jobs = cpus
    elif jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, cpus)
    tops = [
        e for d in range(poset.min_rank, max_size + 1)
        for e in poset.elements_of_rank(d)
    ]
    if jobs > 1 and len(tops) > 1:
        # about four runs per worker, so one that draws cheap tops takes another
        size = -(-len(tops) // (4 * jobs))
        chunks = [tops[i:i + size] for i in range(0, len(tops), size)]
        # workers ignore SIGINT; on an interrupt, stop this pool's workers
        # mid-chunk and no other child.  Each run's future is read in order,
        # so none is cancelled under the executor as it shuts down
        others = set(multiprocessing.active_children())
        with ProcessPoolExecutor(min(jobs, len(chunks)), initializer=signal.signal,
                                 initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
            try:
                runs = [pool.submit(_worker, (poset, c)) for c in chunks]
                records = [r for run in runs for r in run.result()]
            except KeyboardInterrupt:
                for worker in set(multiprocessing.active_children()) - others:
                    worker.terminate()
                raise
    else:
        records = _interval_records(poset, tops)

    report = CrosscheckReport(poset_tag=poset.tag, max_size=max_size)
    report.total = len(records)
    for rec in records:
        stale = cache.check(poset.tag, rec.bottom, rec.top,
                            rec.mu_brute) if cache is not None else None
        if stale:
            rec = replace(rec, problems=rec.problems + (stale,))
        report.records.append(rec)
        report.mu_histogram[rec.mu_brute] = report.mu_histogram.get(rec.mu_brute, 0) + 1
        for problem in rec.problems:
            report.mismatches.append(f"[{rec.bottom}, {rec.top}] {problem}")
    return report


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
