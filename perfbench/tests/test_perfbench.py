"""
Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATTERN_REF = workloads.REFERENCE["sweeps"]["pattern-6"]


def crosscheck_stdout(**changes) -> str:
    out = {"poset": "pattern", "max_size": 6, "intervals": PATTERN_REF["intervals"],
           "mu_histogram": dict(PATTERN_REF["mu_histogram"]), "mismatches": []}
    out.update(changes)
    return json.dumps(out)


def large_results(items, **changes) -> list[dict]:
    results = [{"returncode": 0, "agree": True, "mobius": item["mu"]} for item in items]
    results[0].update(changes)
    return results


def test_reference_outputs_pass():
    assert checks.check_crosscheck_output(PATTERN_REF, 0, crosscheck_stdout(), "x") == (0, [])
    items = workloads.large_set(1)
    assert checks.check_large(items, large_results(items), "x") == (0, [])


def test_check_rejects_wrong_mu():
    items = workloads.large_set(1)
    failed, notes = checks.check_large(items, large_results(items, mobius=items[0]["mu"] + 1), "x")
    assert failed == 1 and "recorded" in notes[0]
    failed, _ = checks.check_large(items, large_results(items, agree=False, mobius=None), "x")
    assert failed == 1


def test_check_rejects_wrong_histogram():
    hist = dict(PATTERN_REF["mu_histogram"])
    hist["0"] -= 3
    hist["1"] += 3
    failed, notes = checks.check_crosscheck_output(
        PATTERN_REF, 0, crosscheck_stdout(mu_histogram=hist), "x")
    assert failed == 3 and "histogram" in notes[0]


def test_check_rejects_missing_interval():
    hist = dict(PATTERN_REF["mu_histogram"])
    hist["0"] -= 1
    failed, _ = checks.check_sweep(PATTERN_REF, PATTERN_REF["intervals"] - 1, hist, 0, "x")
    assert failed == 1
    items = workloads.large_set(1)
    failed, _ = checks.check_large(items, large_results(items)[:-1], "x")
    assert failed == 1


def test_check_rejects_mismatch_and_nonzero_exit():
    stdout = crosscheck_stdout(mismatches=["[1, 12] mu-disagreement: closed=0 morse=1 brute=0",
                                           "[1, 12] mu-euler: euler=1 brute=0"])
    assert checks.check_crosscheck_output(PATTERN_REF, 0, stdout, "x")[0] == 1
    failed, notes = checks.check_crosscheck_output(PATTERN_REF, 1, crosscheck_stdout(), "x")
    assert failed == PATTERN_REF["intervals"] and "exit code 1" in notes[0]
    items = workloads.large_set(1)
    assert checks.check_large(items, large_results(items, returncode=3), "x")[0] == 1


def test_same_seed_same_large_set():
    assert workloads.large_set(7) == workloads.large_set(7)
    assert len(workloads.large_set(7)) == 2 * workloads.LARGE_PER_KIND


def test_different_seed_changes_large_set():
    assert workloads.large_set(1) != workloads.large_set(2)
    assert len({json.dumps(workloads.large_set(s)) for s in range(1, 11)}) == 10


def test_per_layer_names_are_valid_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer"]]
    assert names == list(tracing.LAYER_METRICS)
    assert len(set(names)) == len(names)
    for metric in bench["per_layer"] + bench["end_to_end"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.NAMES)


def test_benchmark_json_meets_the_contract():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert bench["paths"] == ["perfbench"] and bench["command"][1].startswith("perfbench/")
    assert 1 <= bench["run_seconds"] <= 60
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert len(json.dumps(bench)) < 64 * 1024


def test_speed_scale_is_relative_to_the_reference():
    assert speed.scale(speed.REFERENCE_S, speed.REFERENCE_S) == 1.0
    # A machine twice as slow as the reference halves the measured time.
    assert speed.scale(2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S) == 0.5


def test_speed_probe_leaves_the_collector_as_it_was():
    import gc

    assert gc.isenabled()
    assert speed.probe() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        speed.probe()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_layer_metrics_reports_every_name(tmp_path):
    metrics = tracing.layer_metrics([tmp_path / "pass0", tmp_path / "pass1"], 1, 1, 0, 0.0)
    assert list(metrics) == list(tracing.LAYER_METRICS)


def test_install_replaces_every_binding(tmp_path):
    script = (
        "import tracing\n"
        f"tracing.install({str(tmp_path)!r})\n"
        "from posetmorse import closed_form, morse, perms, cli, crosscheck\n"
        "assert perms.exterior is morse.exterior is closed_form.exterior\n"
        "assert perms.exterior.__wrapped__.__module__ == 'posetmorse.perms'\n"
        "assert cli.run_crosscheck is crosscheck.run_crosscheck\n"
        "assert hasattr(cli.run_crosscheck, '__wrapped__')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=BENCH, capture_output=True,
                          text=True, env={"PYTHONPATH": str(ROOT / "src")}, check=False)
    assert proc.returncode == 0, proc.stderr


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "large-interval",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
