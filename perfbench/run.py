"""
The posetmorse benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and README.md for why each exists):
pattern-sweep, large-interval and cached-parallel-sweep.  Every workload is
a closed loop with one client.  A repetition runs in a fresh interpreter
and makes two passes over the same fixed set of intervals: a cold pass and
a warm rerun (same interpreter for the in-process workloads, same cache
file for cached-parallel-sweep).  Repetitions continue until --seconds is spent,
at least two.  Every time is scaled to a reference machine speed
(speed.py), and each metric is the median over repetitions;
set-up time is the median over several set-up-only runs plus the
repetitions.

With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
runs one untraced and one traced repetition and holds the per-layer
metrics.  Every output is checked against perfbench/reference.json; any
deviation counts as a failed interval and makes the exit code 1.  The last
line of standard output is the JSON result; the lines before it give the
number of repetitions, the medians of the raw (unscaled) times, any failed
check, and every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
TRACE_OUT = ROOT / ".bench_trace"
SPAWN_TIMEOUT_S = 150
SETUP_PROBES = 11
MIN_REPS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rerun_wall_s": "s",
    "cpu_s": "s",
    "intervals_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class RepFailed(RuntimeError):
    """A repetition ended without results to measure."""


def child_env(hook: bool = False, **extra: str) -> dict[str, str]:
    """The environment of every process the benchmark starts: no cache
    from outside, the package from src/, and for cached-parallel-sweep the
    stamping hook."""
    env = {k: v for k, v in os.environ.items()
           if k != "POSET_MORSE_CACHE" and not k.startswith("PERFBENCH_")}
    paths = [str(SRC)] + ([str(HERE / "hook")] if hook else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update(extra)
    return env


def spawn(argv: list[str], env: dict[str, str], stdout: Path) -> tuple[float, int, object]:
    """Start a process, wait for it and its reaped children, and return the
    monotonic start time, exit code and resource usage."""
    with open(stdout, "w", encoding="utf-8") as out:
        started = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() - started > SPAWN_TIMEOUT_S:
                    os.killpg(proc.pid, signal.SIGKILL)
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.01)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return started, proc.returncode, usage


def inprocess_rep(workload: str, seed: int, tmp: Path, probe: bool = False,
                  trace_dir: Path | None = None) -> dict:
    """Cold and warm pass of pattern-sweep or large-interval in one fresh
    interpreter."""
    argv = [sys.executable, str(HERE / "child.py"), workload, "--seed", str(seed),
            "--out", str(tmp / "result.json")]
    if probe:
        argv.append("--probe")
    if trace_dir is not None:
        argv += ["--trace-dir", str(trace_dir)]
    before = speed.probe()
    started, rc, _usage = spawn(argv, child_env(), tmp / "child.out")
    if rc != 0:
        raise RepFailed(f"{workload} child exited {rc}")
    result = json.loads((tmp / "result.json").read_text())
    raw_setup = result["setup_at"] - started
    rep = {"setup_s": raw_setup * speed.scale(before, result["setup_probe"]),
           "raw": {"setup_s": raw_setup}}
    if probe:
        return rep
    cold, warm = result["passes"]
    rep.update(wall_s=cold["ref_wall_s"], rerun_wall_s=warm["ref_wall_s"],
               cpu_s=cold["ref_cpu_s"], peak_rss_mb=cold["peak_rss_kb"] / 1024,
               file_records=0, failed=0, notes=[])
    rep["raw"].update(wall_s=cold["wall_s"], rerun_wall_s=warm["wall_s"], cpu_s=cold["cpu_s"])
    for k, ps in enumerate(result["passes"]):
        label, out = f"{workload} pass {k}", ps["outputs"]
        if workload == "large-interval":
            failed, notes = checks.check_large(workloads.large_set(seed), out, label)
        else:
            failed, notes = checks.check_sweep(
                workloads.REFERENCE["sweeps"][workloads.PATTERN_REFERENCE], out["intervals"],
                out["mu_histogram"], out["bad_intervals"], label)
        rep["failed"] += failed
        rep["notes"] += notes
    return rep


def crosscheck_rep(seed: int, tmp: Path, probe: bool = False,
                   trace_dir: Path | None = None) -> dict:
    """Cold and warm `python -m posetmorse crosscheck` on one fresh cache file."""
    cache = tmp / "mobius-cache.tsv"
    argv = [sys.executable, "-m", "posetmorse", *workloads.CROSSCHECK_ARGV,
            "--cache", str(cache)]
    ref = workloads.REFERENCE["sweeps"][workloads.PATTERN_REFERENCE]
    rep = {"failed": 0, "notes": [], "raw": {}}
    for k in range(1 if probe else 2):
        stamp_path = tmp / f"stamp{k}.json"
        speed_dir = tmp / f"speed{k}"
        speed_dir.mkdir()
        extra = {"PERFBENCH_STAMP": str(stamp_path), "PERFBENCH_SPEED_DIR": str(speed_dir)}
        if probe:
            extra["PERFBENCH_PROBE"] = "1"
        if trace_dir is not None:
            extra["PERFBENCH_TRACE"] = str(trace_dir / f"pass{k}")
        before = speed.probe()
        started, rc, usage = spawn(argv, child_env(hook=True, **extra), tmp / f"out{k}.json")
        if not stamp_path.exists():
            raise RepFailed(f"crosscheck pass {k} exited {rc} before its interval work")
        stamp = json.loads(stamp_path.read_text())
        raw_setup = stamp["setup_end"] - started
        setup = raw_setup * speed.scale(before, stamp["probe_before"])
        if probe:
            return {"setup_s": setup, "raw": {"setup_s": raw_setup}}
        failed, notes = checks.check_crosscheck_output(
            ref, rc, (tmp / f"out{k}.json").read_text(), f"cached-parallel-sweep pass {k}")
        rep["failed"] += failed
        rep["notes"] += notes
        if k == 0:
            rep.update(setup_s=setup, wall_s=stamp["ref_wall_s"], cpu_s=stamp["ref_cpu_s"],
                       peak_rss_mb=usage.ru_maxrss / 1024)
            rep["raw"].update(setup_s=raw_setup, wall_s=stamp["wall_s"], cpu_s=stamp["cpu_s"])
        else:
            rep["rerun_wall_s"] = stamp["ref_wall_s"]
            rep["raw"]["rerun_wall_s"] = stamp["wall_s"]
    rep["file_records"] = (sum(1 for line in cache.read_text().splitlines() if line)
                           if cache.exists() else 0)
    return rep


def run_rep(workload: str, seed: int, probe: bool = False,
            trace_dir: Path | None = None) -> dict:
    """One repetition in its own fresh temporary directory, removed after."""
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP))
    try:
        if workload == "cached-parallel-sweep":
            return crosscheck_rep(seed, tmp, probe, trace_dir)
        return inprocess_rep(workload, seed, tmp, probe, trace_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    """
    End-to-end metrics over MIN_REPS or more repetitions, adding more while
    they fit in `seconds`.  Each time is scaled to the reference speed
    (speed.py) and is the median over repetitions; set-up time is the
    median over the set-up-only runs and the repetitions.
    """
    probes = [run_rep(workload, seed, probe=True) for _ in range(SETUP_PROBES)]
    began = time.monotonic()
    reps = []
    while True:
        reps.append(run_rep(workload, seed))
        spent = time.monotonic() - began
        if len(reps) >= MIN_REPS and spent + spent / len(reps) > seconds:
            break
    per_pass = workloads.intervals_per_pass(workload, seed)
    attempted = 2 * per_pass * len(reps)
    failed = sum(r["failed"] for r in reps)

    def median(key: str, samples: list[dict]) -> float:
        return statistics.median(r[key] for r in samples)

    metrics = {
        "setup_s": median("setup_s", probes + reps),
        "wall_s": median("wall_s", reps),
        "rerun_wall_s": median("rerun_wall_s", reps),
        "cpu_s": median("cpu_s", reps),
        "intervals_per_s": per_pass / median("wall_s", reps),
        "peak_rss_mb": median("peak_rss_mb", reps),
        "ok_frac": (attempted - failed) / attempted,
    }
    raw = {"setup_s": median("setup_s", [r["raw"] for r in probes + reps])}
    raw.update({key: median(key, [r["raw"] for r in reps])
                for key in ("wall_s", "rerun_wall_s", "cpu_s")})
    notes = [f"{len(reps)} repetitions, {len(probes) + len(reps)} set-up samples",
             "raw (unscaled) medians: " + ", ".join(f"{k} = {v:.6g} s" for k, v in raw.items())]
    return metrics, attempted, failed, notes + [n for r in reps for n in r["notes"]]


def measure_traced(workload: str, seed: int) -> tuple[dict, int, int, list[str]]:
    """Per-layer metrics from one traced repetition, next to an untraced one."""
    plain = run_rep(workload, seed)
    trace_dir = TRACE_OUT / workload
    shutil.rmtree(trace_dir, ignore_errors=True)
    traced = run_rep(workload, seed, trace_dir=trace_dir)
    per_pass = workloads.intervals_per_pass(workload, seed)
    jobs = workloads.CROSSCHECK_JOBS if workload == "cached-parallel-sweep" else 1
    metrics = tracing.layer_metrics(
        [trace_dir / "pass0", trace_dir / "pass1"], 2 * per_pass, jobs,
        traced["file_records"], (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"])
    failed = plain["failed"] + traced["failed"]
    return metrics, 4 * per_pass, failed, plain["notes"] + traced["notes"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "posetmorse" / "__init__.py").is_file():
        print(f"error: no posetmorse package under {SRC}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            metrics, attempted, failed, notes = measure_traced(args.workload, args.seed)
            units = tracing.LAYER_METRICS
        else:
            metrics, attempted, failed, notes = measure(args.workload, args.seed, args.seconds)
            units = END_TO_END
    except RuntimeError as exc:  # RepFailed, or worker traces missing
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
