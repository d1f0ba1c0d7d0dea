"""The command-line interface: output, exit codes, cache, guardrails."""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import pytest

import posetmorse.bijection as bijection
import posetmorse.cli as cli
import posetmorse.closed_form as closed_form
import posetmorse.crosscheck as crosscheck
import posetmorse.isosearch as isosearch
from posetmorse.morse import homotopy_type
from posetmorse.posets import FactorPoset, MobiusCache, PatternPoset

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mobius_text(capsys):
    code, out, _ = run_cli(capsys, "mobius", "1", "213546")
    assert code == 0
    assert "closed form: 1" in out
    assert "morse sum:   1" in out
    assert "brute force: 1" in out
    assert "euler char:  1" in out
    assert out.endswith("mobius: 1\n")


def test_mobius_factor_poset(capsys):
    code, out, _ = run_cli(capsys, "mobius", "b", "aabb", "--poset", "factor")
    assert code == 0
    assert "mobius: 0" in out


def test_mobius_json(capsys):
    code, out, _ = run_cli(capsys, "mobius", "123", "21354",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["mobius"] == 1
    assert obj["agree"] is True
    assert obj["methods"] == {"closed_form": 1, "morse": 1,
                              "bruteforce": 1, "euler": 1}
    assert out == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_mobius_disagreement_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setattr(closed_form, "mobius_pattern", lambda b, t: 99)
    code, out, _ = run_cli(capsys, "mobius", "1", "123")
    assert code == 1
    assert "mismatch: methods disagree" in out


def test_mobius_and_check_interval_judge_the_routes_by_one_rule(
        capsys, monkeypatch):
    # the Morse route alone parts from the other three, which agree on 1:
    # two critical chains of dimension 0 give a Morse sum of 2
    poset, bottom, top = PatternPoset(), (1,), (2, 1, 3, 5, 4, 6)
    real = crosscheck.top_routes(poset, top)[bottom]
    routes = real._replace(report=real.report._replace(critical_dims=(0, 0)))
    assert (routes.closed, routes.report.mobius, routes.brute, routes.euler) == (1, 2, 1, 1)
    monkeypatch.setattr(cli, "evaluate", lambda *args: routes)
    code, out, _ = run_cli(capsys, "mobius", "1", "213546")
    assert code == 1 and out.endswith("mismatch: methods disagree\n")
    problems = crosscheck.check_interval(poset, routes).problems
    assert [p for p in problems if p.startswith("mu-")] == [
        "mu-disagreement: closed=1 morse=2 brute=1"]


@pytest.mark.parametrize("bottom, top, gap", [((1,), (2, 1, 3, 5, 4, 6), 5),
                                              ((1, 2), (2, 1, 3), 1),
                                              ((1,), (2, 1, 3), 2)])
def test_the_euler_route_is_judged_from_rank_gap_two(capsys, monkeypatch,
                                                     bottom, top, gap):
    # at rank gap one the open interval is empty and Euler checks nothing
    poset = PatternPoset()
    real = crosscheck.top_routes(poset, top)[bottom]
    routes = real._replace(euler=real.brute + 2)
    assert routes.report.rank_gap == gap
    monkeypatch.setattr(cli, "evaluate", lambda *args: routes)
    code, out, _ = run_cli(capsys, "mobius", poset.format(bottom), poset.format(top))
    problems = crosscheck.check_interval(poset, routes).problems
    lines = [p for p in problems if p.startswith("mu-")]
    if gap >= 2:
        assert code == 1 and out.endswith("mismatch: methods disagree\n")
        assert lines == [f"mu-euler: euler={real.brute + 2} brute={real.brute}"]
    else:
        assert code == 0 and "mismatch" not in out
        assert lines == []


def test_incomparable_exit_code(capsys):
    code, _, err = run_cli(capsys, "mobius", "12", "21")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command", ["mobius", "chains", "morse-report", "homotopy"])
@pytest.mark.parametrize("poset, bottom, top", [("pattern", "12", "21"),
                                                ("factor", "aa", "ab")])
def test_every_interval_command_names_an_incomparable_pair(capsys, command,
                                                           poset, bottom, top):
    code, out, err = run_cli(capsys, command, bottom, top, "--poset", poset)
    assert (code, out, err) == (2, "", f"error: '{bottom}' is not below '{top}'\n")


@pytest.mark.parametrize("command", ["mobius", "chains", "morse-report", "homotopy"])
def test_the_guardrail_is_checked_before_the_pair(capsys, command):
    # 21 is not below 12...10, which is also above the size guardrail
    big = ",".join(str(i) for i in range(1, 11))
    code, _, err = run_cli(capsys, command, "21", big)
    assert code == 4
    assert "exceeds the pattern limit" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "mobius", "1", "badinput")
    assert code == 3
    assert "error:" in err


def test_guardrail_exit_code_and_force(capsys):
    big = ",".join(str(i) for i in [2, 1, 3, 5, 4, 6, 8, 7, 9, 10])
    code, _, err = run_cli(capsys, "mobius", "1", big)
    assert code == 4
    assert "exceeds the pattern limit" in err
    code, out, _ = run_cli(capsys, "mobius", "1", big, "--force")
    assert code == 0
    assert "mobius: 0" in out


def test_table1_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == 0
    assert out == (DATA / "table1_golden.txt").read_text()


def test_chains_output(capsys):
    code, out, _ = run_cli(capsys, "chains", "123", "21354")
    assert code == 0
    assert "2 maximal chains of [123, 21354]" in out
    assert "1-5" in out and "5-1" in out
    assert out.endswith("\n")


def test_morse_report_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "morse-report", "1", "213546",
                           "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_text_output_builds_no_json(capsys, monkeypatch):
    # a command builds only the format asked for
    def unbuilt(*args):
        raise AssertionError("the JSON was built")

    monkeypatch.setattr(cli.render, "chains_json", unbuilt)
    monkeypatch.setattr(cli.render, "morse_report_json", unbuilt)
    for command in ("chains", "morse-report"):
        code, out, _ = run_cli(capsys, command, "1", "213546")
        assert code == 0 and out.endswith("\n")


def test_morse_report_of_a_contractible_interval(capsys):
    code, out, _ = run_cli(capsys, "morse-report", "12", "1234")
    assert code == 0
    assert out.endswith("critical chains: 0\nmobius: 0\nhomotopy: contractible\n")
    code, out, _ = run_cli(capsys, "morse-report", "12", "1234", "--format", "json")
    assert code == 0
    out = json.loads(out)
    assert (out["critical_count"], out["mobius"], out["homotopy"]) == (0, 0, "contractible")


def test_homotopy_command(capsys):
    code, out, _ = run_cli(capsys, "homotopy", "1", "213546")
    assert code == 0
    assert out == "sphere(2)\n"
    code, _, err = run_cli(capsys, "homotopy", "1", "12")
    assert code == 3
    assert "degenerate" in err
    with pytest.raises(ValueError) as exc:
        homotopy_type(PatternPoset(), (1,), (1, 2))
    assert err == f"error: {exc.value}\n"


def test_bijection_commands(capsys):
    code, out, _ = run_cli(capsys, "bijection", "map", "abbab")
    assert code == 0 and out == "165243\n"
    code, out, _ = run_cli(capsys, "bijection", "unmap", "15234")
    assert code == 0 and out == "abaa\n"
    code, out, _ = run_cli(capsys, "bijection", "unmap", "1")
    assert code == 0 and out == "eps\n"
    code, _, err = run_cli(capsys, "bijection", "unmap", "213")
    assert code == 3
    code, out, _ = run_cli(capsys, "bijection", "verify", "--max-length", "4")
    assert code == 0
    assert "ok" in out


def test_bijection_verify_json_is_pinned(capsys):
    code, out, err = run_cli(capsys, "bijection", "verify", "--max-length", "4",
                             "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "avoider_counts": {"1": [1, 1], "2": [2, 2], "3": [4, 4], "4": [8, 8]},
        "image_mismatches": 0, "max_length": 4, "ok": True, "order_violations": 0,
        "pairs_checked": 225, "roundtrip_failures": 0, "words_checked": 15}


def test_bijection_verify_names_what_failed(capsys, monkeypatch):
    # word a sent to 21, the image of b: a round trip, an image and order fail
    real = bijection.word_to_perm
    monkeypatch.setattr(bijection, "word_to_perm",
                        lambda w: (2, 1) if w == ("a",) else real(w))
    code, out, _ = run_cli(capsys, "bijection", "verify", "--max-length", "3")
    assert code == 1
    assert out.endswith("\nfailed: 4 order violations, 1 round-trip failures, "
                        "1 image mismatches\n")


@pytest.mark.parametrize("length, message", [
    ("1", "need max_length of at least two"), ("9", "exhaustive check capped at length eight")])
def test_bijection_verify_takes_lengths_two_to_eight(capsys, length, message):
    assert run_cli(capsys, "bijection", "verify", "--max-length", length) == (
        3, "", f"error: {message}\n")
    with pytest.raises(SystemExit) as exc:  # no --force lifts the cap
        cli.main(["bijection", "verify", "--max-length", length, "--force"])
    assert exc.value.code == 3
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --force\n")


def test_format_takes_one_name_per_output(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["mobius", "1", "12", "--format", "table"])
    out = capsys.readouterr()
    assert exc.value.code == 3 and out.out == ""
    assert out.err.endswith("mobius: error: argument --format: invalid choice: "
                            "'table' (choose from 'text', 'json')\n")


def test_crosscheck_command(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "--max-size", "4")
    assert code == 0
    assert "intervals checked: 167" in out
    assert "mismatches: 0" in out


def test_crosscheck_json(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "--max-size", "3",
                           "--poset", "factor", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["mismatches"] == []
    assert out == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_mobius_cache_flag_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "mu.cache"
    with pytest.raises(SystemExit) as exc:
        cli.main(["mobius", "1", "12", "--cache", str(path)])
    out = capsys.readouterr()
    assert exc.value.code == 3 and out.out == ""
    assert out.err.startswith("usage: posetmorse")
    assert not path.exists()


def test_the_cache_environment_variable_is_ignored(capsys, tmp_path,
                                                   monkeypatch):
    path = tmp_path / "env.cache"
    monkeypatch.setenv("POSET_MORSE_CACHE", str(path))
    assert run_cli(capsys, "mobius", "12", "1234")[0] == 0
    assert run_cli(capsys, "crosscheck", "--max-size", "3", "--jobs", "1")[0] == 0
    assert not path.exists()


# a crosscheck of the five intervals up to size 2, checked against a cache file
CACHED_SWEEP = ("crosscheck", "--max-size", "2", "--jobs", "1", "--cache")


def test_cache_with_torn_final_line(capsys, tmp_path):
    path = tmp_path / "mu.cache"
    path.write_text("pattern\t1\t12\t-1\npattern\t1\t213")
    code, out, _ = run_cli(capsys, *CACHED_SWEEP, str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["mismatches"] == []
    lines = path.read_text().split("\n")
    assert lines[-1] == ""
    assert all(len(line.split("\t")) == 4 for line in lines[:-1])
    assert "pattern\t1\t12\t-1" in lines


def test_cache_with_corrupt_middle_line(capsys, tmp_path):
    path = tmp_path / "mu.cache"
    path.write_text("pattern\t1\t12\t-1\npattern\t1\nfactor:a,b\t\ta\t-1\n")
    code, _, err = run_cli(capsys, *CACHED_SWEEP, str(path))
    assert code == 3
    assert "bad cache record" in err


def test_cache_record_with_a_bad_value_names_its_line(capsys, tmp_path):
    path = tmp_path / "mu.cache"
    path.write_text("pattern\t1\t12\t-1\npattern\t1\t123\tzero\n")
    code, out, err = run_cli(capsys, *CACHED_SWEEP, str(path))
    assert code == 3 and out == ""
    assert f"{path}:2: bad cache record" in err


def test_cache_in_a_missing_directory_exits_three(capsys, tmp_path):
    path = tmp_path / "missing" / "mu.cache"
    code, out, err = run_cli(capsys, *CACHED_SWEEP, str(path))
    assert code == 3 and out == ""
    assert str(path) in err and "Traceback" not in err
    assert not path.parent.exists()


def test_cache_path_that_is_a_directory_exits_three(capsys, tmp_path):
    code, out, err = run_cli(capsys, *CACHED_SWEEP, str(tmp_path))
    assert code == 3 and out == ""
    assert f"cache file {tmp_path} is a directory" in err


def test_cache_path_ending_in_a_separator_exits_three_before_the_sweep(
        capsys, tmp_path, monkeypatch):
    # such a path names a directory: the cache cannot be a file there, so
    # the command stops before any interval is computed and creates nothing
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_crosscheck", no_sweep)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *CACHED_SWEEP, "newfile" + os.sep)
    assert (code, out, err) == (3, "", f"error: cache file newfile{os.sep} is a directory\n")
    assert list(tmp_path.iterdir()) == []


def test_crosscheck_rejects_an_unusable_cache_before_the_sweep(
        capsys, tmp_path, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_crosscheck", no_sweep)
    missing = tmp_path / "missing" / "mu.cache"
    for path, message in ((str(missing), f"cache file {missing}: no directory"),
                          ("", "cache file path is empty")):
        code, out, err = run_cli(capsys, "crosscheck", "--max-size", "3",
                                 "--cache", path)
        assert code == 3 and out == ""
        assert f"error: {message}" in err


def test_crosscheck_rejects_jobs_below_one(capsys):
    code, out, err = run_cli(capsys, "crosscheck", "--max-size", "3",
                             "--jobs", "0")
    assert code == 3
    assert out == "" and "jobs" in err


def test_iso_search_command(capsys):
    code, out, _ = run_cli(capsys, "iso-search", "--pattern-cap", "2",
                           "--word-cap", "2")
    assert code == 0
    assert "matched" in out
    code, _, err = run_cli(capsys, "iso-search", "--pattern-cap", "9")
    assert code == 4


def test_iso_search_force_lifts_the_factor_order_limit(capsys):
    code, out, err = run_cli(capsys, "iso-search", "--pattern-cap", "1",
                             "--word-cap", "13", "--alphabet", "a", "--force")
    assert (code, err) == (0, "")
    assert out.startswith("isomorphism search: pattern tops to 1, word tops to 13 over {a}\n")


@pytest.mark.parametrize("alphabet, text, letters", [
    ("ab", "{a,b}", "ab"), ("a,b", "{a,b}", "ab"), ("ab,cd", "{ab,cd}", "ab,cd")])
def test_iso_search_names_its_alphabet_by_letters(capsys, alphabet, text, letters):
    argv = ("iso-search", "--pattern-cap", "2", "--word-cap", "2", "--alphabet", alphabet)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and f"word tops to 2 over {text}\n" in out
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["alphabet"] == letters


@pytest.mark.parametrize("flag, name", [("--pattern-cap", "pattern"),
                                        ("--word-cap", "word")])
def test_iso_search_rejects_a_negative_cap(capsys, monkeypatch, flag, name):
    def no_interval(*args, **kwargs):
        raise AssertionError("an interval was computed")

    monkeypatch.setattr(isosearch, "interval_structure", no_interval)
    code, out, err = run_cli(capsys, "iso-search", flag, "-3")
    assert code == 3 and out == ""
    least = {"pattern": 1, "word": 0}[name]
    assert f"{name} cap must be at least {least}, got -3" in err


def test_iso_search_rejects_a_pattern_cap_that_searches_nothing(capsys, monkeypatch):
    def no_interval(*args, **kwargs):
        raise AssertionError("an interval was computed")

    monkeypatch.setattr(isosearch, "interval_structure", no_interval)
    code, out, err = run_cli(capsys, "iso-search", "--pattern-cap", "0")
    assert code == 3 and out == ""
    assert "pattern cap must be at least 1, got 0" in err


def test_alphabet_flag(capsys):
    code, out, _ = run_cli(capsys, "mobius", "c", "abc", "--poset", "factor",
                           "--alphabet", "abc")
    assert code == 0
    code, out, _ = run_cli(capsys, "mobius", "c", "abc", "--poset", "factor",
                           "--alphabet", "a,b,c", "--format", "json")
    assert code == 0
    assert json.loads(out)["poset"] == "factor:a,b,c"
    code, _, err = run_cli(capsys, "mobius", "a", "ab", "--poset", "factor",
                           "--alphabet", "aa")
    assert code == 3


@pytest.mark.parametrize("command", ["mobius", "chains", "morse-report", "homotopy"])
@pytest.mark.parametrize("argv, named", [
    (("1", "١٢"), "'١٢'"),
    (("1", "1²"), "'1²'"),
    (("1", "2,+1"), "'2,+1'"),
    (("1", "1,2_0"), "'1,2_0'"),
    (("12,", "213"), "'12,'"),
    (("1", "1,,2"), "'1,,2'"),
    (("", "1"), "''"),
    (("a", "ab", "--poset", "factor", "--alphabet", "a,b,ab"), "'a,b,ab'"),
    (("a", "ab", "--poset", "factor", "--alphabet", "a, b"), "'a, b'"),
    (("a", "ab", "--poset", "factor", "--alphabet", "a,,b"), "'a,,b'"),
    (("a\nb", "a\nb", "--poset", "factor", "--alphabet", "a\nb,c"),
     "letter 'a\\nb' has no text of its own"),
    (("0", "00", "--poset", "factor", "--alphabet", "0a"), "'0a': letter '0'"),
    (("eps", "0", "--poset", "factor", "--alphabet", "0a"), "'0a': letter '0'"),
], ids=["arabic-indic", "superscript", "plus", "underscore", "trailing-comma",
        "empty-part", "empty", "ambiguous-alphabet", "spaced-letter", "empty-letter",
        "newline-letter", "zero-letter", "zero-letter-over-eps"])
def test_malformed_interval_input_is_one_error_line(capsys, command, argv, named):
    code, out, err = run_cli(capsys, command, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


def test_an_ambiguous_alphabet_writes_no_cache(capsys, tmp_path):
    cache = tmp_path / "mu.cache"
    # a tab in a letter would split its cache record into too many fields
    for alphabet in ("a,b,ab", "a\tb,c"):
        code, out, err = run_cli(capsys, "crosscheck", "--poset", "factor", "--alphabet",
                                 alphabet, "--max-size", "2", "--jobs", "1",
                                 "--cache", str(cache))
        assert (code, out) == (3, "") and f"ambiguous alphabet {alphabet!r}" in err
        assert not cache.exists()


@pytest.mark.parametrize("argv, poset", [
    (("--poset", "factor", "--alphabet", "abc"), FactorPoset("abc", max_top=None)),
    ((), PatternPoset(max_top=None))])
def test_force_lifts_the_guardrail_and_keeps_the_poset(argv, poset):
    args = cli.build_parser().parse_args(["mobius", "1", "1", "--force", *argv])
    assert cli.make_poset(args) == poset


# the records crosscheck --max-size 2 appends after a poisoned [1, 12]
POISONED_SWEEP = ("pattern\t1\t12\t5\n"
                  "pattern\t1\t1\t1\npattern\t12\t12\t1\n"
                  "pattern\t1\t21\t-1\npattern\t21\t21\t1\n")


def test_poisoned_cache_is_named_in_the_mismatch(capsys, tmp_path):
    path = tmp_path / "poisoned.cache"
    path.write_text("pattern\t1\t12\t5\n")
    mismatch = f"[1, 12] cache: {path} holds 5, brute force gives -1"
    # the held record is never rewritten, so a second pass names it again
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, *CACHED_SWEEP, str(path),
                                 "--format", fmt)
        assert code == 1 and err == ""
        assert (f"mismatches: 1\n  {mismatch}\n" in out if fmt == "text"
                else json.loads(out)["mismatches"] == [mismatch])
        assert path.read_text() == POISONED_SWEEP


@pytest.fixture
def two_cpus(monkeypatch):
    """--jobs 2 forks two real workers, whatever the CPU count."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.mark.parametrize("argv, intervals", [
    (("--max-size", "4"), 167),
    # sweep order is not the sort order of the words' text
    (("--poset", "factor", "--alphabet", "ba", "--max-size", "3"), 63),
])
def test_crosscheck_cache_file_is_the_same_at_every_job_count(
        capsys, tmp_path, two_cpus, argv, intervals):
    files = {}
    for jobs in ("1", "2"):
        path = tmp_path / f"jobs{jobs}.cache"
        code, out, _ = run_cli(capsys, "crosscheck", *argv, "--jobs", jobs,
                               "--cache", str(path))
        assert code == 0 and f"intervals checked: {intervals}" in out
        files[jobs] = path.read_bytes()
    assert files["2"] == files["1"]
    assert files["1"].count(b"\n") == intervals  # one record per interval


def _boom(args):
    raise ValueError("boom")


def test_an_exception_in_a_worker_run_is_the_sweep_s_error(capsys, two_cpus, monkeypatch):
    # raised inside each worker's run, it comes back to the parent, which
    # raises it again: one error line and exit 3.  That no worker is left
    # behind is the check of conftest's guard, which sees every child
    monkeypatch.setattr(crosscheck, "_worker", _boom)
    code, out, err = run_cli(capsys, "crosscheck", "--max-size", "4", "--jobs", "2")
    assert (code, out, err) == (3, "", "error: boom\n")


def test_poisoned_cache_is_named_with_two_jobs(capsys, tmp_path, two_cpus):
    path = tmp_path / "poisoned.cache"
    path.write_text("pattern\t1\t12\t5\n")
    code, out, _ = run_cli(capsys, "crosscheck", "--max-size", "2", "--jobs",
                           "2", "--cache", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out)["mismatches"] == [
        f"[1, 12] cache: {path} holds 5, brute force gives -1"]
    assert path.read_text() == POISONED_SWEEP


def test_a_stale_cache_record_lands_on_its_own_record(tmp_path, two_cpus):
    # the library report, at either job count: the record of [1, 12] ends
    # with its cache line, which is the sweep's one mismatch
    path = tmp_path / "poisoned.cache"
    stale = f"cache: {path} holds 5, brute force gives -1"
    reports = []
    for jobs in (1, 2):
        path.write_text("pattern\t1\t12\t5\n")
        with contextlib.closing(MobiusCache(str(path))) as cache:
            report = crosscheck.run_crosscheck(PatternPoset(), 2, cache, jobs=jobs)
        [record] = [r for r in report.records if (r.bottom, r.top) == ("1", "12")]
        assert record.problems[-1] == stale
        assert report.mismatches == [f"[1, 12] {stale}"]
        reports.append((report.records, report.mismatches))
    assert reports[0] == reports[1]


def test_a_warm_cache_does_not_hide_a_wrong_brute_force(
        capsys, tmp_path, monkeypatch):
    path = tmp_path / "mu.cache"
    argv = ("crosscheck", "--max-size", "4", "--jobs", "1", "--cache",
            str(path), "--format", "json")
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(crosscheck, "mobius_bruteforce",
                        lambda poset, interval: (7,) * interval.size)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert (f"[1, 12] cache: {path} holds -1, brute force gives 7"
            in json.loads(out)["mismatches"])


def test_brute_force_runs_on_every_interval_cold_and_warm(
        capsys, tmp_path, monkeypatch):
    calls = []
    real = crosscheck.mobius_bruteforce
    monkeypatch.setattr(crosscheck, "mobius_bruteforce",
                        lambda *args: calls.append(args) or real(*args))
    for _ in ("cold", "warm"):
        calls.clear()
        code, _, _ = run_cli(capsys, "crosscheck", "--max-size", "4",
                             "--jobs", "1", "--cache", str(tmp_path / "mu.cache"))
        # one call per top, whose column holds a value for every interval
        # under it
        assert code == 0 and len(calls) == 33
        assert sum(interval.size for _, interval in calls) == 167


def test_a_second_mobius_call_in_one_process_recomputes_brute_force(
        capsys, monkeypatch):
    # no route value outlives the call that computed it
    assert run_cli(capsys, "mobius", "1", "213546")[0] == 0
    monkeypatch.setattr(crosscheck, "mobius_bruteforce",
                        lambda poset, interval: (7,) * interval.size)
    code, out, _ = run_cli(capsys, "mobius", "1", "213546")
    assert code == 1
    assert "brute force: 7" in out and "mismatch: methods disagree" in out


def test_crosscheck_with_two_jobs_cuts_a_torn_final_line(
        capsys, tmp_path, two_cpus):
    path = tmp_path / "mu.cache"
    path.write_text("pattern\t1\t12\t-1\npattern\t1\t2")
    code, _, _ = run_cli(capsys, "crosscheck", "--max-size", "2", "--jobs",
                         "2", "--cache", str(path))
    assert code == 0
    assert path.read_text() == (
        "pattern\t1\t12\t-1\n"
        "pattern\t1\t1\t1\npattern\t12\t12\t1\n"
        "pattern\t1\t21\t-1\npattern\t21\t21\t1\n")


def test_agreeing_cache_hit_prints_no_note(capsys, tmp_path):
    path = tmp_path / "mu.cache"
    path.write_text("pattern\t1\t12\t-1\n")
    code, out, err = run_cli(capsys, *CACHED_SWEEP, str(path), "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["mismatches"] == []


@pytest.mark.parametrize("argv, limit", [
    (("--max-size", "99"), "top of length 99 exceeds the pattern limit 9"),
    (("--max-size", "10", "--jobs", "2"), "exceeds the pattern limit 9"),
    (("--poset", "factor", "--max-size", "13"),
     "top of length 13 exceeds the factor-order limit 12"),
])
def test_crosscheck_max_size_above_the_guardrail_exits_four(
        capsys, monkeypatch, argv, limit):
    def no_interval(*args, **kwargs):
        raise AssertionError("an interval was computed")

    monkeypatch.setattr(crosscheck, "check_interval", no_interval)
    code, out, err = run_cli(capsys, "crosscheck", *argv)
    assert code == 4 and out == ""
    assert limit in err


def test_crosscheck_force_lifts_the_max_size_guardrail(capsys):
    # over a one-letter alphabet every interval has a single chain
    code, out, _ = run_cli(capsys, "crosscheck", "--poset", "factor",
                           "--alphabet", "a", "--max-size", "13", "--force")
    assert code == 0
    assert "intervals checked: 105" in out


def test_crosscheck_rejects_a_negative_max_size(capsys):
    code, out, err = run_cli(capsys, "crosscheck", "--max-size", "-1")
    assert code == 3
    assert out == "" and "max size must be at least 1, got -1" in err
    code, out, err = run_cli(capsys, "crosscheck", "--poset", "factor", "--max-size", "-1")
    assert code == 3
    assert out == "" and "max size must be at least 0, got -1" in err


def test_a_pattern_sweep_that_checks_nothing_exits_three(capsys, monkeypatch):
    # the pattern poset has no element of rank 0
    def no_interval(*args, **kwargs):
        raise AssertionError("an interval was computed")

    monkeypatch.setattr(crosscheck, "check_interval", no_interval)
    code, out, err = run_cli(capsys, "crosscheck", "--max-size", "0")
    assert code == 3
    assert out == "" and "max size must be at least 1, got 0" in err


def test_a_factor_sweep_of_size_zero_checks_the_empty_word(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "--poset", "factor", "--max-size", "0",
                           "--jobs", "1")
    assert code == 0
    assert "intervals checked: 1\n" in out


def _in_a_fresh_interpreter(script):
    # a fresh interpreter: the test process has loaded what these tests look for
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60, check=False)


def test_start_up_loads_only_what_the_command_runs():
    # the pool, json, iso-search and the bijection load under the commands
    # that use them, not at import and not for a text mobius
    script = ("import sys\nfrom posetmorse import cli\n"
              "deferred = {'multiprocessing', 'concurrent.futures', 'json',\n"
              "            'posetmorse.isosearch', 'posetmorse.bijection',\n"
              "            'dataclasses', 'inspect'}\n"
              "loaded = [sorted(deferred & set(sys.modules))]\n"
              "code = cli.main(['mobius', '1', '213546'])\n"
              "loaded.append(sorted(deferred & set(sys.modules)))\n"
              "print(code, loaded, file=sys.stderr)\n")
    proc = _in_a_fresh_interpreter(script)
    assert proc.stdout.endswith("mobius: 1\n")
    assert proc.stderr == "0 [[], []]\n"


def test_a_parallel_sweep_loads_no_process_pool_framework():
    # the sweep forks its two workers itself: neither concurrent.futures
    # nor multiprocessing loads, nor the logging they import
    script = ("import os, sys\nfrom posetmorse import cli\n"
              "os.cpu_count = lambda: 2\nforks, fork = [], os.fork\n"
              "os.fork = lambda: forks.append(0) or fork()\n"
              "code = cli.main(['crosscheck', '--max-size', '4', '--jobs', '2'])\n"
              "framework = {'concurrent.futures', 'multiprocessing', 'logging'}\n"
              "print(code, len(forks), sorted(framework & set(sys.modules)),\n"
              "      file=sys.stderr)\n")
    proc = _in_a_fresh_interpreter(script)
    assert proc.stdout.endswith("mismatches: 0\n")
    assert proc.stderr == "0 2 []\n"


def test_the_report_commands_load_no_dataclasses():
    # their reports are named tuples, so no command loads dataclasses
    # (or inspect, which it imports)
    script = ("import sys\nfrom posetmorse import cli\n"
              "codes = [cli.main(['iso-search', '--pattern-cap', '2', '--word-cap', '2']),\n"
              "         cli.main(['bijection', 'verify', '--max-length', '3'])]\n"
              "print(codes, sorted({'dataclasses', 'inspect'} & set(sys.modules)),\n"
              "      file=sys.stderr)\n")
    proc = _in_a_fresh_interpreter(script)
    assert proc.stdout.endswith("ok\n")
    assert proc.stderr == "[0, 0] []\n"


@pytest.mark.parametrize("command", ["homotopy", "chains", "morse-report"])
def test_a_deep_factor_top_is_walked_without_recursion(capsys, command):
    # the walk keeps its own stack, so 1,200 covers down one chain end
    # cleanly; the call stack held about a thousand
    top = "a" * 1200
    head, tail = {
        "homotopy": ("contractible\n", "contractible\n"),
        "chains": (f"1 maximal chains of [, {top}]\n", "0" * 1200 + "\n"),
        "morse-report": (f"minimal skipped intervals for [, {top}]\n",
                         "chains: 1\ncritical chains: 0\nmobius: 0\nhomotopy: contractible\n"),
    }[command]
    code, out, err = run_cli(capsys, command, "eps", top, "--poset", "factor", "--force")
    assert (code, err) == (0, "")
    assert out.startswith(head) and out.endswith(tail)


DEEP_MOBIUS = ("  closed form: 0\n  morse sum:   0\n  brute force: 0\n  euler char:  0\n"
               "mobius: 0\n")


@pytest.mark.parametrize("command", ["mobius", "homotopy", "chains"])
def test_a_deep_pattern_top_ends_with_the_closed_form_s_value(capsys, command):
    # the down-set of 1,2,...,600 is built with no recursion per letter;
    # the call stack held about five hundred
    top = tuple(range(1, 601))
    text = ",".join(map(str, top))
    assert PatternPoset().mobius_closed_form((1,), top) == 0
    code, out, err = run_cli(capsys, command, "1", text, "--force")
    assert (code, err) == (0, "")
    assert {"mobius": out.endswith(DEEP_MOBIUS),
            "homotopy": out == "contractible\n",
            "chains": out.startswith(f"1 maximal chains of [1, {text}]\n")}[command]


def test_a_deep_factor_top_has_the_closed_form_s_mobius_value(capsys):
    top = ("a",) * 600
    assert FactorPoset().mobius_closed_form((), top) == 0
    code, out, err = run_cli(capsys, "mobius", "eps", "a" * 600, "--poset", "factor",
                             "--force")
    assert (code, err) == (0, "")
    assert out.endswith(DEEP_MOBIUS)


def test_an_interrupt_while_the_package_imports_exits_130(tmp_path):
    # the real __init__ and __main__ over a cli module whose import is cut
    # short, as by a Ctrl-C in the first tenth of a second of a run
    package = pathlib.Path(cli.__file__).parent
    stub = tmp_path / "posetmorse"
    stub.mkdir()
    for name in ("__init__.py", "__main__.py"):
        shutil.copy(package / name, stub / name)
    (stub / "cli.py").write_text("exec('raise KeyboardInterrupt')\n")
    proc = subprocess.run([sys.executable, "-m", "posetmorse", "table1"],
                          env=dict(os.environ, PYTHONPATH=str(tmp_path)),
                          capture_output=True, text=True, timeout=60, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (130, "", "interrupted\n")


def _exit_code(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    return exc.value.code, capsys.readouterr().err


def test_usage_errors_exit_three(capsys):
    for argv in (("table1", "--format", "json"),
                 ("chains", "123", "21354", "--jobs", "2"),
                 ("iso-search", "--max-size", "3"),
                 ("bijection", "map", "ab", "--poset", "factor"),
                 ("mobius", "1")):
        code, err = _exit_code(capsys, *argv)
        assert code == 3, argv
        assert err.startswith("usage: posetmorse") and "error:" in err
    assert _exit_code(capsys, "mobius", "--help")[0] == 0
    assert run_cli(capsys, "mobius", "12", "21")[0] == 2


def test_one_parser_serves_every_call_in_a_process(capsys):
    # a usage error and the calls after it print what they print with a
    # freshly built parser, so no call leaves state in the parser
    argvs = (("mobius", "1"), ("mobius", "1", "213546", "--format", "json"),
             ("crosscheck", "--max-size", "3", "--jobs", "1"))

    def call(argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    cli.build_parser.cache_clear()
    reused = [call(argv) for argv in argvs]
    assert cli.build_parser.cache_info().misses == 2  # one per command asked for
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(call(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [3, 0, 0]


def test_a_command_builds_only_its_own_parser():
    def subparsers(parser):
        [choices] = [a.choices for a in parser._actions if isinstance(a.choices, dict)]
        return choices

    assert list(subparsers(cli.build_parser("mobius"))) == ["mobius"]
    bijection = subparsers(cli.build_parser("bijection"))
    assert list(bijection) == ["bijection"]
    assert list(subparsers(bijection["bijection"])) == ["map", "unmap", "verify"]
    assert list(subparsers(cli.build_parser())) == list(cli.COMMANDS)


USAGE = json.loads((DATA / "usage_golden.json").read_text())


@pytest.mark.skipif("%d.%d" % sys.version_info[:2] != USAGE["python"],
                    reason="argparse lays out help differently in each Python minor version")
@pytest.mark.parametrize("case", USAGE["cases"],
                         ids=lambda case: " ".join(case["argv"]) or "no-arguments")
def test_help_and_usage_output_is_golden(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", str(USAGE["columns"]))
    try:
        code = cli.main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (case["code"], case["stdout"], case["stderr"])


REPORTS = json.loads((DATA / "reports_golden.json").read_text())


@pytest.mark.parametrize("case", REPORTS["cases"], ids=lambda case: " ".join(case["argv"]))
def test_report_output_is_golden(capsys, case):
    # iso-search and bijection as they printed before their reports became
    # named tuples, byte for byte
    code = cli.main(case["argv"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (case["code"], case["stdout"], case["stderr"])


def test_each_subcommand_takes_only_the_flags_it_reads():
    interval = {"--poset", "--alphabet", "--format", "--force"}
    want = {
        "mobius": interval,
        "chains": interval,
        "morse-report": interval,
        "homotopy": interval,
        "bijection map": {"--format"},
        "bijection unmap": {"--format"},
        "bijection verify": {"--format"},
        "crosscheck": {"--poset", "--alphabet", "--max-size", "--format",
                       "--cache", "--jobs", "--force"},
        "table1": set(),
        "iso-search": {"--alphabet", "--format", "--force"},
    }
    got = {}

    def collect(parser, name):
        subs = [a for a in parser._actions if a.choices and
                isinstance(a.choices, dict)]
        if not subs:
            got[name] = {flag for a in parser._actions
                         for flag in a.option_strings if flag in cli._FLAGS}
        for action in subs:
            for child, sub in action.choices.items():
                collect(sub, f"{name} {child}".strip())

    collect(cli.build_parser(), "")
    assert got == want
    assert sum(len(flags) for flags in got.values()) == 29


def test_an_interrupt_prints_one_line_and_exits_130(capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_crosscheck", interrupted)
    monkeypatch.setattr(sys, "argv", ["posetmorse", "crosscheck", "--jobs", "1"])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 130
    assert capsys.readouterr().err == "interrupted\n"


def test_sigint_stops_a_serial_sweep_without_a_traceback():
    # the length-7 sweep runs for tens of seconds; SIGINT comes once the
    # package is imported, so it lands inside the sweep.  A child of a
    # process that ignores SIGINT (a background job) inherits SIG_IGN, so
    # the script restores Python's handler first
    script = ("import signal, sys\nfrom posetmorse.cli import run\n"
              "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
              "sys.argv = ['posetmorse', 'crosscheck', '--max-size', '7', '--jobs', '1']\n"
              "print('ready', flush=True)\nrun()\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline() == "ready\n"
        time.sleep(0.5)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, out, err) == (130, "", "interrupted\n")


def test_sigint_stops_a_parallel_sweep_and_only_its_own_workers(tmp_path):
    # SIGINT comes once a pool worker has started a run.  The parent stops
    # its pool's workers, not the bystander child it started before the
    # sweep, and leaves no process behind in its session
    marker = tmp_path / "started"
    script = f"""\
import functools, multiprocessing, os, pathlib, signal, sys, time
from posetmorse import crosscheck
from posetmorse.cli import run
signal.signal(signal.SIGINT, signal.default_int_handler)
os.cpu_count = lambda: 2
worker = crosscheck._worker

@functools.wraps(worker)
def marked(args):
    pathlib.Path({str(marker)!r}).touch()
    return worker(args)

crosscheck._worker = marked
bystander = multiprocessing.Process(target=time.sleep, args=(60,))
bystander.start()
sys.argv = ['posetmorse', 'crosscheck', '--max-size', '7', '--jobs', '2']
try:
    run()
finally:
    print(bystander.is_alive())
    bystander.terminate()
"""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        deadline = time.monotonic() + 30
        while not marker.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        time.sleep(1)  # mid-sweep, with some runs finished and some pending
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.kill()
    assert (proc.returncode, out, err) == (130, "True\n", "interrupted\n")


def test_a_killed_worker_ends_a_parallel_sweep_with_exit_5(tmp_path):
    # SIGKILL, as the OOM killer sends it, hits one pool worker mid-sweep.
    # The parent names the dead worker in one error line, exits 5 with no
    # traceback, and leaves no process behind in its session
    marker = tmp_path / "worker"
    script = f"""\
import functools, os, pathlib, sys
from posetmorse import crosscheck
from posetmorse.cli import run
os.cpu_count = lambda: 2
worker = crosscheck._worker

@functools.wraps(worker)
def marked(args):
    pending = pathlib.Path({str(marker)!r} + f".{{os.getpid()}}")
    pending.write_text(str(os.getpid()))
    pending.replace({str(marker)!r})
    return worker(args)

crosscheck._worker = marked
sys.argv = ['posetmorse', 'crosscheck', '--max-size', '7', '--jobs', '2']
run()
"""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        deadline = time.monotonic() + 30
        while not marker.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        time.sleep(0.5)  # mid-run
        pid = int(marker.read_text())
        os.kill(pid, signal.SIGKILL)
        out, err = proc.communicate(timeout=60)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.kill()
    assert (proc.returncode, out, err) == (
        5, "", f"error: crosscheck worker {pid} was killed by SIGKILL\n")


def test_an_interrupted_parallel_sweep_leaves_a_prefix_of_the_cache_file(
        capsys, tmp_path, two_cpus):
    # the first run computes at once; every later one marks its worker and
    # sleeps first.  Once the first run is back, SIGINT goes to the parent,
    # and then, on a second sweep, SIGKILL to a worker.  Each leaves the
    # records it folded, whole lines in sweep order, and a rerun completes
    # the file a serial sweep writes
    serial = tmp_path / "serial.cache"
    code, _, _ = run_cli(capsys, "crosscheck", "--max-size", "6", "--jobs", "1",
                         "--cache", str(serial))
    assert code == 0
    want = serial.read_bytes()
    for how in ("sigint", "sigkill"):
        marks = tmp_path / how
        marks.mkdir()
        cache = tmp_path / f"{how}.cache"
        script = f"""\
import functools, os, pathlib, signal, sys, time
from posetmorse import crosscheck
from posetmorse.cli import run
signal.signal(signal.SIGINT, signal.default_int_handler)
os.cpu_count = lambda: 2
worker = crosscheck._worker
marks = pathlib.Path({str(marks)!r})

@functools.wraps(worker)
def paced(args):
    if args[1][0] == (1,):
        records = worker(args)
        (marks / "first").touch()
        return records
    (marks / f"pid.{{os.getpid()}}").touch()
    time.sleep(30)
    return worker(args)

crosscheck._worker = paced
sys.argv = ['posetmorse', 'crosscheck', '--max-size', '6', '--jobs', '2',
            '--cache', {str(cache)!r}]
run()
"""
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            deadline = time.monotonic() + 30
            while not (marks / "first").exists():
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            time.sleep(0.5)  # the first run folded, the others asleep
            if how == "sigint":
                proc.send_signal(signal.SIGINT)
                expect = (130, "", "interrupted\n")
            else:
                pid = int(min(marks.glob("pid.*")).suffix[1:])
                os.kill(pid, signal.SIGKILL)
                expect = (5, "", f"error: crosscheck worker {pid} was killed by SIGKILL\n")
            out, err = proc.communicate(timeout=60)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.kill()
        assert (proc.returncode, out, err) == expect
        left = cache.read_bytes()
        MobiusCache(str(cache)).close()
        assert left.endswith(b"\n") and want.startswith(left) and len(left) < len(want)
        code, out, _ = run_cli(capsys, "crosscheck", "--max-size", "6", "--jobs", "2",
                               "--cache", str(cache))
        assert code == 0 and "intervals checked: 10087" in out
        assert cache.read_bytes() == want
