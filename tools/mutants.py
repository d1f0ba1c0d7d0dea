"""
A mutation gate: how much of the program tier-1 pins, one mutant at a
time.  The catalogue, tools/mutants.json, names one-line mutants, each an
exact `old` text of one file and the `new` text that replaces it.  For
each mutant the tool copies the repository to a temporary directory,
applies the mutant there and runs tier-1 with -x.  A mutant is killed when
some test fails and survived when every test passes.  An entry with an
`equivalent` reason cannot change what the program does: it is not run
and not counted.

Run it from any directory; it mutates copies of its own checkout only:

    python tools/mutants.py

Each result (status, the first failing test, the seconds taken) goes into
MUTANTS.json at the root of the checkout, with the killed, survived and
equivalent totals.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tools" / "mutants.json"
RESULTS = ROOT / "MUTANTS.json"
# tests/test_mutants.py checks that each old text is in its file, which a
# mutant's own copy no longer holds, so it would kill every mutant
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--ignore", "tests/test_mutants.py"]
TIMEOUT_S = 900
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".bench_*",
                              ".benchmarks", "MUTANTS.json")


def load() -> list[dict]:
    return json.loads(CATALOGUE.read_text())


def misplaced(entries: list[dict]) -> list[str]:
    """The names of the entries whose old text does not occur exactly once
    in their file, or whose name repeats another's."""
    names = [e["name"] for e in entries]
    return [e["name"] for e in entries
            if names.count(e["name"]) > 1 or (ROOT / e["file"]).read_text().count(e["old"]) != 1]


def run(entry: dict) -> dict:
    """Tier-1 with -x on a copy of the checkout that carries the mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        path = copy / entry["file"]
        path.write_text(path.read_text().replace(entry["old"], entry["new"]))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        start = time.perf_counter()
        try:
            done = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env,
                                  capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"status": "killed", "first_failure": f"timed out after {TIMEOUT_S} s",
                    "seconds": TIMEOUT_S}
        seconds = round(time.perf_counter() - start, 1)
    failed = [line.split(" - ")[0].split(" ", 1)[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if done.returncode == 0:
        return {"status": "survived", "first_failure": None, "seconds": seconds}
    return {"status": "killed",
            "first_failure": failed[0] if failed else f"exit {done.returncode}",
            "seconds": seconds}


def main() -> int:
    entries = load()
    bad = misplaced(entries)
    if bad:
        print(f"error: old text not found exactly once, or name repeated: {bad}",
              file=sys.stderr)
        return 2
    results = []
    for entry in entries:
        if "equivalent" in entry:
            result = {"status": "equivalent", "reason": entry["equivalent"]}
        else:
            result = run(entry)
            print(f"{entry['name']}: {result['status']} {result['first_failure'] or ''}",
                  flush=True)
        results.append({"name": entry["name"], "file": entry["file"], **result})
    totals = {s: sum(r["status"] == s for r in results)
              for s in ("killed", "survived", "equivalent")}
    RESULTS.write_text(json.dumps({
        "tier1": "python " + " ".join(TIER1),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
        **totals,
        "mutants": results,
    }, indent=2) + "\n")
    print(" ".join(f"{k} {v}" for k, v in totals.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
