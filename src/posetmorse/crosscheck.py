"""
The exhaustive cross-check harness: every interval of a poset up to a size
cap, every Mobius route, and every structural invariant the machinery is
supposed to satisfy.

evaluate runs every Mobius route on one interval, for this harness and for
the mobius subcommand alike.  Brute force runs on every interval; a cache
file is only checked against its values and appended to, never read in
their place.

Per interval the harness verifies that the closed form, the critical-chain
count, and the brute-force recursion agree (plus the reduced Euler
characteristic when the rank gap is at least two), that the chain listing
is poset lexicographic with consistent labels and as many chains as the
order relation has cover paths, that the poset's fast skipped-interval
law matches the definition, the descent and ascent laws, the
disjoint-family laws, and that at most one chain, the lexicographically
last one, is ever critical, with the homotopy type matching the Mobius
value.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from .chains import StepClass, classify_steps, is_poset_lex
from .morse import MorseReport, morse_report
from .posets import (IntervalStructure, MobiusCache, euler_characteristic,
                     interval_structure, mobius_bruteforce)


@dataclass(frozen=True)
class Routes:
    """Every Mobius route on one interval."""

    closed: int
    report: MorseReport
    interval: IntervalStructure
    brute: int
    euler: int | None


def evaluate(poset, bottom, top) -> Routes:
    """
    The closed form first (it rejects an incomparable pair), then the Morse
    report, the interval structure, brute force, and the Euler
    characteristic when the rank gap is at least one.
    """
    closed = poset.mobius_closed_form(bottom, top)
    report = morse_report(poset, bottom, top)
    interval = interval_structure(poset, bottom, top)
    gap = poset.rank(top) - poset.rank(bottom)
    euler = euler_characteristic(poset, interval) if gap >= 1 else None
    return Routes(closed, report, interval, mobius_bruteforce(poset, interval), euler)


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


def naive_chain_count(poset, interval: IntervalStructure) -> int:
    """
    Independent chain count: cover paths up the interval structure (x < y
    with ranks one apart), read from the order relation alone, never from
    the poset's cover rule.  Two covers of one element coincide only when
    it is monotone or flat, and then it has one, so this counts the chains
    maximal_chains lists.
    """
    ranks = [poset.rank(e) for e in interval.elements]
    paths = [1]
    for y, below in enumerate(interval.downs[1:], start=1):
        paths.append(sum(paths[x] for x in below if ranks[x] == ranks[y] - 1))
    return paths[-1]


def check_interval(poset, bottom, top) -> IntervalRecord:
    """Run every route and invariant suite on one interval."""
    problems: list[str] = []
    gap = poset.rank(top) - poset.rank(bottom)
    routes = evaluate(poset, bottom, top)
    report = routes.report
    mu_closed, mu_morse, mu_brute = routes.closed, report.mobius, routes.brute
    # at rank gap one the open interval is empty: Euler reads -1 and checks nothing
    euler = routes.euler if gap >= 2 else None

    if mu_closed not in (-1, 0, 1):
        problems.append(f"mu-range: closed form returned {mu_closed}")
    if not (mu_closed == mu_morse == mu_brute):
        problems.append(
            f"mu-disagreement: closed={mu_closed} morse={mu_morse} brute={mu_brute}")
    if euler is not None and euler != mu_brute:
        problems.append(f"mu-euler: euler={euler} brute={mu_brute}")

    chains = [d.chain for d in report.chains]
    ids = [c.labels for c in chains]
    if len(set(ids)) != len(ids):
        problems.append("chains: duplicate label sequences")
    if ids != sorted(ids):
        problems.append("chains: not sorted by label sequence")
    expect = naive_chain_count(poset, routes.interval)
    if len(chains) != expect:
        problems.append(f"chains: found {len(chains)}, naive descent gives {expect}")
    if not is_poset_lex(chains):
        problems.append("poset-lex: chain order violates the divergence property")

    top_len = poset.rank(top)
    for d in report.chains:
        chain = d.chain
        lo, hi = chain.windows[-1]
        expected_labels = set(range(1, top_len + 1)) - set(range(lo + 1, hi + 1))
        if set(chain.labels) != expected_labels:
            problems.append(f"labels: chain {chain.labels} does not match its window")
        classes = classify_steps(chain)
        covered = {k for a, b in d.msis for k in range(a, b + 1)}
        for idx, cls in enumerate(classes, start=1):
            if cls is StepClass.STRONG_DESCENT and (idx, idx) not in d.msis:
                problems.append(
                    f"descent-law: strong descent at {idx} of {chain.labels} "
                    "is not a singleton interval")
            if cls is StepClass.ASCENT and idx in covered:
                problems.append(
                    f"ascent-law: ascent at {idx} of {chain.labels} "
                    "lies in a minimal skipped interval")
        fast = poset.msis_fast(chain)
        if fast != list(d.msis):
            problems.append(
                f"msi-fast: {fast} != {list(d.msis)} on chain {chain.labels}")
        seen: set[int] = set()
        for a, b in d.family:
            pts = set(range(a, b + 1))
            if pts & seen:
                problems.append(f"family: overlapping members on chain {chain.labels}")
            seen |= pts
            if not any(p <= a and b <= q for p, q in d.msis):
                problems.append(
                    f"family: member ({a},{b}) of chain {chain.labels} lies in "
                    "no minimal interval")

    if report.critical_count > 1:
        problems.append(f"critical: {report.critical_count} critical chains")
    if report.critical_count == 1 and not report.chains[-1].critical:
        problems.append("critical: the critical chain is not the lexicographically last")
    ls = chains[-1].labels if chains else ()
    if len(ls) >= 2 and all(ls[k] > ls[k + 1] for k in range(len(ls) - 1)):
        if any(c is not StepClass.WEAK_DESCENT for c in classify_steps(chains[-1])[:-1]):
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
        mu_closed=mu_closed,
        mu_morse=mu_morse,
        mu_brute=mu_brute,
        euler=euler,
        problems=tuple(problems),
    )


def _interval_records(poset, tops) -> list[IntervalRecord]:
    records = []
    for top in tops:
        bottoms = sorted(poset.down_set(top),
                         key=lambda e: (poset.rank(e), poset.format(e)))
        for bottom in bottoms:
            records.append(check_interval(poset, bottom, top))
    return records


def _worker(args) -> list[IntervalRecord]:
    """One pool chunk: every interval under the given tops."""
    return _interval_records(*args)


def run_crosscheck(poset, max_size: int, cache: MobiusCache | None = None,
                   jobs: int | None = 1) -> CrosscheckReport:
    """
    Check every interval [bottom, top] with rank(top) <= max_size.  The
    unit of parallel work is all intervals under one top.  At most one
    worker process runs per CPU; jobs=None asks for one per CPU.  After
    the sweep, in sweep order, each interval's brute-force value is checked
    against the cache, and appended to it when the file holds no record;
    a held record that differs is one more problem of that interval.
    """
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
        chunks = [tops[i::jobs] for i in range(jobs)]
        chunks = [c for c in chunks if c]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(_worker, [(poset, chunk) for chunk in chunks]))
        position = {poset.format(t): k for k, t in enumerate(tops)}
        records = sorted((r for part in parts for r in part),
                         key=lambda r: position[r.top])
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
