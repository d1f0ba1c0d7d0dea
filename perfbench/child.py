"""
One repetition of an in-process workload, in a fresh interpreter so that
the package's lru_caches start cold as they do for a CLI user.

    python3 perfbench/child.py WORKLOAD --seed N --out RESULT.json
                               [--probe] [--trace-dir DIR]

It sets up (imports, poset construction, input choice), stamps the
monotonic clock and probes the machine's speed (speed.py), then runs the
workload twice: a cold pass and a warm rerun in the same interpreter.
pattern-sweep calls `run_crosscheck(PatternPoset(), 6, jobs=1)`;
large-interval calls `cli.main(["mobius", ...])` on each of its intervals.
Each such call is timed with the speed sampler running and scaled to the
reference speed.  --probe stops after the set-up probe.
--trace-dir installs the tracer after set-up and dumps each pass's trace
into DIR/pass0 and DIR/pass1.  The result file holds the stamps, the raw
and scaled wall and CPU times, peak RSS and the outputs for the parent to
check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import time

import posetmorse
import speed
from posetmorse import PatternPoset, cli
from workloads import PATTERN_SIZE, large_argv, large_set


# Raw and scaled times of a pass, summed over its units.
TIMES = ("wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s")


def sweep_pass(poset) -> dict:
    report = posetmorse.run_crosscheck(poset, PATTERN_SIZE, jobs=1)
    return {"intervals": report.total,
            "mu_histogram": {str(k): v for k, v in sorted(report.mu_histogram.items())},
            "bad_intervals": sum(1 for r in report.records if r.problems)}


def large_one(item: dict) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(large_argv(item))
    try:
        parsed = json.loads(buf.getvalue())
    except ValueError:
        parsed = {}
    return {"returncode": rc, "agree": parsed.get("agree"), "mobius": parsed.get("mobius")}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("pattern-sweep", "large-interval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace-dir")
    args = parser.parse_args()
    # A pass runs its units one by one, each timed by the speed sampler.
    if args.workload == "pattern-sweep":
        units, run_unit = [PatternPoset()], sweep_pass
    else:
        units, run_unit = large_set(args.seed), large_one
    result: dict = {"setup_at": time.monotonic(), "passes": []}
    result["setup_probe"] = speed.probe()
    sampler = speed.Sampler()
    tracer = None
    if args.trace_dir and not args.probe:
        import tracing

        tracer = tracing.install(f"{args.trace_dir}/pass0")
    for k in range(0 if args.probe else 2):
        if tracer is not None:
            tracer.out_dir = f"{args.trace_dir}/pass{k}"
        ps = dict.fromkeys(TIMES, 0.0)
        ps["outputs"] = []
        for unit in units:
            sampler.start()
            ps["outputs"].append(run_unit(unit))
            segment = sampler.stop()
            for key in TIMES:
                ps[key] += segment[key]
        ps["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.workload == "pattern-sweep":
            ps["outputs"] = ps["outputs"][0]
        result["passes"].append(ps)
        if tracer is not None:
            tracer.dump()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
