"""
Output checks against the recorded reference.  Each returns the number of
intervals that failed and a message per deviation.  An interval fails when
it reports a mismatch, when its process or call exits non-zero, when its
Mobius value or the sweep's histogram differs from the reference, or when
it is missing.
"""

from __future__ import annotations

import json


def check_sweep(ref: dict, intervals: int, histogram: dict[str, int],
                bad_intervals: int, label: str) -> tuple[int, list[str]]:
    """A sweep's interval count, histogram and mismatching intervals."""
    want = ref["mu_histogram"]
    missing = max(0, ref["intervals"] - intervals)
    misplaced = sum(max(0, histogram.get(k, 0) - want.get(k, 0))
                    for k in set(histogram) | set(want))
    failed = min(ref["intervals"], missing + misplaced + bad_intervals)
    notes = []
    if missing:
        notes.append(f"{label}: {missing} of {ref['intervals']} intervals missing")
    if histogram != want:
        notes.append(f"{label}: mu histogram {histogram} != reference {want}")
    if bad_intervals:
        notes.append(f"{label}: {bad_intervals} intervals report mismatches")
    return failed, notes


def check_crosscheck_output(ref: dict, returncode: int, stdout: str,
                            label: str) -> tuple[int, list[str]]:
    """`posetmorse crosscheck --format json` output; a non-zero exit or
    unreadable output fails every interval of the pass."""
    if returncode != 0:
        return ref["intervals"], [f"{label}: exit code {returncode}"]
    try:
        out = json.loads(stdout)
        intervals, histogram = int(out["intervals"]), dict(out["mu_histogram"])
        bad = {m.split("]")[0] for m in out["mismatches"]}
    except (ValueError, KeyError, TypeError) as exc:
        return ref["intervals"], [f"{label}: unreadable output ({exc})"]
    return check_sweep(ref, intervals, histogram, len(bad), label)


def check_large(expected: list[dict], results: list[dict], label: str) -> tuple[int, list[str]]:
    """Each `mobius --force` call: exit 0, "agree": true and the recorded mu."""
    failed, notes = 0, []
    for want, got in zip(expected, results):
        name = f"{label} [{want['bottom']}, {want['top']}]"
        if got["returncode"] != 0:
            notes.append(f"{name}: exit code {got['returncode']}")
        elif got.get("agree") is not True:
            notes.append(f"{name}: routes disagree")
        elif got.get("mobius") != want["mu"]:
            notes.append(f"{name}: mu {got.get('mobius')} != recorded {want['mu']}")
        else:
            continue
        failed += 1
    if len(results) < len(expected):
        failed += len(expected) - len(results)
        notes.append(f"{label}: {len(expected) - len(results)} intervals missing")
    return failed, notes
