"""
The benchmark workloads: the pattern sweep, the seeded choice of large
intervals, and the crosscheck command.

Only `large-interval` uses the seed; the sweeps are exhaustive.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

# Every sweep runs the pattern intervals with top length <= PATTERN_SIZE.
PATTERN_SIZE = 6
PATTERN_REFERENCE = "pattern-6"
LARGE_PER_KIND = 1
# `python -m posetmorse` arguments of cached-parallel-sweep, less --cache.
CROSSCHECK_ARGV = ["crosscheck", "--max-size", str(PATTERN_SIZE), "--jobs", "2",
                   "--format", "json"]
CROSSCHECK_JOBS = 2
NAMES = ("pattern-sweep", "large-interval", "cached-parallel-sweep")


def large_set(seed: int) -> list[dict]:
    """
    LARGE_PER_KIND pattern and LARGE_PER_KIND factor intervals drawn from
    the recorded pool, alternating kinds.  Every pool member costs about
    the same, so the seed changes the intervals but not the work.
    """
    pool = REFERENCE["large_pool"]
    rng = random.Random(seed)
    picks = {kind: rng.sample(pool[kind], LARGE_PER_KIND) for kind in ("pattern", "factor")}
    return [dict(picks[kind][i], kind=kind)
            for i in range(LARGE_PER_KIND) for kind in ("pattern", "factor")]


def large_argv(item: dict) -> list[str]:
    argv = ["mobius", item["bottom"], item["top"], "--force", "--format", "json"]
    if item["kind"] == "factor":
        argv += ["--poset", "factor"]
    return argv


def intervals_per_pass(workload: str, seed: int) -> int:
    """Intervals one pass of the workload computes and checks."""
    if workload == "large-interval":
        return len(large_set(seed))
    return REFERENCE["sweeps"][PATTERN_REFERENCE]["intervals"]
