"""
Run the benchmark several times per workload, each run with its own seed,
and summarise each end-to-end metric by its median and quartile spread
(the distance between the first and third quartile as a share of the
median), the spread that the bounds in BENCHMARK.json are set against.

    python3 perfbench/repeat.py --workloads large-interval cached-parallel-sweep \
        --seeds 1 2 3 4 5 [--traced] [--out summary.json]

--traced adds one traced run per workload for the per-layer numbers.  The
summary records the machine, with the load average before and after each
workload's set of runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def machine() -> dict:
    """nproc, CPU model, Python version, git commit and load average."""
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    model = next((line.split(":", 1)[1].strip() for line in lines
                  if line.startswith("model name")), "unknown")
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent, capture_output=True,
                         text=True, check=False)
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": sys.version.split()[0],
            "git_commit": git.stdout.strip() or "unknown", "loadavg": list(os.getloadavg())}


def run(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    summary: dict = {"run_seconds": BENCHMARK["run_seconds"], "seeds": args.seeds,
                     "workloads": {}}
    for workload in args.workloads:
        before = machine()
        runs = [run(workload, seed, 0) for seed in args.seeds]
        entry: dict = {"machine_before": before, "loadavg_after": machine()["loadavg"],
                       "end_to_end": {}}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            entry["end_to_end"][name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": bounds[name],
                "values": values,
            }
            e = entry["end_to_end"][name]
            print(f"{workload:22s} {name:16s} median {e['median']:.6g} "
                  f"spread {e['spread']:.3f} (bound {e['bound']})", flush=True)
        if args.traced:
            traced = run(workload, args.seeds[0], 1)["metrics"]
            entry["per_layer"] = {k: v["value"] for k, v in traced.items()}
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
