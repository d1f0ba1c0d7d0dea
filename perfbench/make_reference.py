"""
Regenerate perfbench/reference.json, the recorded outputs the benchmark
checks against.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

It records the interval count and Mobius histogram of the pattern sweep
that `cached-parallel-sweep` runs, and the pool of large intervals that
the `large-interval` workload samples from.  The pool holds tops of one cost class: [1, tau] with
|tau| = 12 and [eps, w] with w in {a,b}^11, each with a chain count in a
narrow band and, within a kind, the candidates whose skipped-interval scan
does the most typical number of subset tests.  Because every member costs
about the same, the seed changes which intervals run without changing how
much work a pass is, so runs with different seeds stay comparable.  Each
member's Mobius value is recorded from the closed form and is checked
against every route by the benchmark itself.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
from pathlib import Path

from posetmorse.chains import maximal_chains
from posetmorse.closed_form import mobius_factor, mobius_pattern
from posetmorse.crosscheck import run_crosscheck
from posetmorse.posets import FactorPoset, PatternPoset

OUT = Path(__file__).with_name("reference.json")
CHAIN_BAND = (850, 890)
CANDIDATES = 24
POOL = 12
SWEEPS = {"pattern-6": (PatternPoset(), 6)}


def subset_tests(chains) -> int:
    """Subset tests the definitional skipped-interval scan makes."""
    sets = [frozenset(c.elements) for c in chains]
    tests = 0
    for idx, chain in enumerate(chains):
        full = set(chain.elements)
        for i in range(1, chain.steps):
            for j in range(i, chain.steps):
                rest = full.difference(chain.elements[i:j + 1])
                for k in range(idx):
                    tests += 1
                    if rest <= sets[k]:
                        break
    return tests


def pool(poset, bottom, tops, fmt, mobius) -> list[dict]:
    rows = []
    for top in tops:
        chains = maximal_chains(poset, bottom, top)
        rows.append({"bottom": fmt(bottom), "top": fmt(top), "chains": len(chains),
                     "subset_tests": subset_tests(chains), "mu": mobius(bottom, top)})
        print(rows[-1], flush=True)
    mid = statistics.median(r["subset_tests"] for r in rows)
    rows.sort(key=lambda r: (abs(r["subset_tests"] - mid), r["top"]))
    return sorted(rows[:POOL], key=lambda r: r["top"])


def in_band(poset, bottom, top) -> bool:
    return CHAIN_BAND[0] <= len(maximal_chains(poset, bottom, top)) <= CHAIN_BAND[1]


def main() -> None:
    sweeps = {}
    for name, (poset, size) in SWEEPS.items():
        report = run_crosscheck(poset, size, jobs=1)
        assert report.ok, report.mismatches[:5]
        sweeps[name] = {"poset": poset.tag, "max_size": size, "intervals": report.total,
                        "mu_histogram": {str(k): v for k, v in sorted(report.mu_histogram.items())}}
        print(name, sweeps[name], flush=True)

    rng = random.Random(1107)
    perm_poset = PatternPoset(max_top=None)
    taus = []
    while len(taus) < CANDIDATES:
        tau = tuple(rng.sample(range(1, 13), 12))
        if tau not in taus and in_band(perm_poset, (1,), tau):
            taus.append(tau)
    word_poset = FactorPoset(max_top=None)
    words = [w for w in itertools.product("ab", repeat=11) if in_band(word_poset, (), w)]
    words = rng.sample(words, CANDIDATES)

    reference = {
        "sweeps": sweeps,
        "large_pool": {
            "pattern": pool(perm_poset, (1,), taus, perm_poset.format, mobius_pattern),
            "factor": pool(word_poset, (), words, lambda w: "".join(w) or "eps",
                           mobius_factor),
        },
    }
    OUT.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
