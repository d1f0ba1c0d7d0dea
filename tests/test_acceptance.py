"""
Acceptance suite: eight release criteria, each printing one pass or fail
line.  All comparisons are exact integer comparisons.  The three interval
sweeps are shared session fixtures; each runs every computation route on
every interval in its range and records labeled problems for any invariant
that does not hold.
"""

from __future__ import annotations

import itertools
import pathlib

import pytest

from posetmorse.bijection import avoids_213_231, perm_to_word, word_to_perm
from posetmorse.closed_form import mobius_factor, mobius_pattern
from posetmorse.crosscheck import run_crosscheck
from posetmorse.morse import homotopy_type, mobius_morse, morse_report
from posetmorse.posets import (FactorPoset, PatternPoset, interval_structure,
                               mobius_bruteforce)
from posetmorse.render import table1_text
from posetmorse.bijection import verify_isomorphism

DATA = pathlib.Path(__file__).parent / "data"
JOBS = 4


@pytest.fixture(scope="session")
def pattern_sweep():
    return run_crosscheck(PatternPoset(), 6, jobs=JOBS)


@pytest.fixture(scope="session")
def word_sweep_ab():
    return run_crosscheck(FactorPoset(("a", "b")), 6, jobs=JOBS)


@pytest.fixture(scope="session")
def word_sweep_abc():
    return run_crosscheck(FactorPoset(("a", "b", "c")), 5, jobs=JOBS)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def problems_with(sweeps, prefixes) -> list[str]:
    found = []
    for sweep in sweeps:
        for record in sweep.records:
            for problem in record.problems:
                if problem.startswith(prefixes):
                    found.append(f"[{record.bottom}, {record.top}] {problem}")
    return found


def test_criterion_01_reference_table_reproduction():
    golden = (DATA / "table1_golden.txt").read_text()
    text = table1_text()
    rep = morse_report(PatternPoset(), (1,), (2, 1, 3, 5, 4, 6))
    ids = ["-".join(str(l) for l in d.chain.labels) for d in rep.chains]
    differing = [d for d in rep.chains if d.family != d.msis]
    ok = (text == golden
          and len(rep.chains) == 13
          and ids[0] == "1-2-3-4-5"
          and ids[-1] == "6-5-4-3-1"
          and len(differing) == 1
          and differing[0] is rep.chains[-1])
    report("1", ok, "13 chains of [1, 213546], byte-equal to the golden "
                    "table, family differs from the minimal intervals only "
                    "on the last chain")


def test_criterion_02_pattern_three_way_agreement(pattern_sweep):
    bad = []
    euler_checked = 0
    for r in pattern_sweep.records:
        if not (r.mu_closed == r.mu_morse == r.mu_brute):
            bad.append(f"[{r.bottom}, {r.top}]")
        if r.rank_gap >= 2:
            euler_checked += 1
            if r.euler != r.mu_brute:
                bad.append(f"[{r.bottom}, {r.top}] euler")
    ok = not bad and pattern_sweep.total == 10087 and euler_checked > 0
    report("2", ok, f"closed form, morse sum, brute force and euler "
                    f"characteristic agree on all {pattern_sweep.total} "
                    f"pattern intervals with top length <= 6"
           + (f"; first failures: {bad[:3]}" if bad else ""))


def test_criterion_03_word_three_way_agreement(word_sweep_ab, word_sweep_abc):
    bad = []
    for sweep in (word_sweep_ab, word_sweep_abc):
        for r in sweep.records:
            if not (r.mu_closed == r.mu_morse == r.mu_brute):
                bad.append(f"[{r.bottom}, {r.top}]")
    total = word_sweep_ab.total + word_sweep_abc.total
    ok = not bad and word_sweep_ab.total > 0 and word_sweep_abc.total > 0
    report("3", ok, f"closed form, morse sum and brute force agree on all "
                    f"{total} factor intervals ({{a,b}} words to length 6, "
                    f"{{a,b,c}} words to length 5)"
           + (f"; first failures: {bad[:3]}" if bad else ""))


def test_criterion_04_fast_msi_characterization(pattern_sweep):
    bad = problems_with([pattern_sweep], ("msi-fast",))
    ok = not bad and pattern_sweep.total == 10087
    report("4", ok, "the descent/affix characterization reproduces the "
                    "brute-force minimal skipped intervals on every chain "
                    "of every pattern interval with top length <= 6"
           + (f"; first failures: {bad[:3]}" if bad else ""))


def test_criterion_05_structural_lemmas(pattern_sweep, word_sweep_ab,
                                         word_sweep_abc):
    sweeps = [pattern_sweep, word_sweep_ab, word_sweep_abc]
    bad = problems_with(sweeps, ("descent-law", "ascent-law", "critical:",
                                 "homotopy:", "descent-structure",
                                 "family:"))
    ok = not bad
    report("5", ok, "strong descents are singleton skipped intervals, "
                    "ascents lie in none, every interval has at most one "
                    "critical chain (always the lex-last), and the homotopy "
                    "type matches the mobius value"
           + (f"; first failures: {bad[:3]}" if bad else ""))


def test_criterion_06_point_values():
    p = PatternPoset()
    f = FactorPoset()
    checks = [
        (mobius_bruteforce(p, interval_structure(p, (1,), (2, 1, 3, 5, 4, 6))), 1),
        (mobius_pattern((1,), (2, 1, 3, 5, 4, 6)), 1),
        (mobius_morse(p, (1,), (2, 1, 3, 5, 4, 6)), 1),
        (str(homotopy_type(p, (1,), (2, 1, 3, 5, 4, 6))), "sphere(2)"),
        (mobius_bruteforce(p, interval_structure(p, (1, 2, 3), (2, 1, 3, 5, 4))), 1),
        (str(homotopy_type(p, (1, 2, 3), (2, 1, 3, 5, 4))), "sphere(0)"),
        (mobius_bruteforce(p, interval_structure(p, (1, 2), (1, 2, 3, 4))), 0),
        (str(homotopy_type(p, (1, 2), (1, 2, 3, 4))), "contractible"),
        (mobius_bruteforce(f, interval_structure(f, ("b",), tuple("abb"))), 1),
        (mobius_factor(("b",), tuple("abb")), 1),
        (mobius_bruteforce(f, interval_structure(f, ("b",), tuple("aabb"))), 0),
        (mobius_factor(("b",), tuple("aabb")), 0),
        (mobius_bruteforce(f, interval_structure(f, ("a",), tuple("aaa"))), 0),
        (mobius_factor(("a",), tuple("aaa")), 0),
    ]
    bad = [f"got {got!r}, want {want!r}" for got, want in checks
           if got != want]
    report("6", not bad, "mu(1,213546)=1 sphere(2), mu(123,21354)=1 "
                         "sphere(0), mu(12,1234)=0 contractible, "
                         "mu(b,abb)=1, mu(b,aabb)=0, mu(a,aaa)=0"
           + (f"; failures: {bad}" if bad else ""))


def test_criterion_07_bijection():
    values_ok = (
        word_to_perm(tuple("abbab")) == (1, 6, 5, 2, 4, 3)
        and word_to_perm(tuple("babab")) == (6, 1, 5, 2, 4, 3)
        and perm_to_word((1, 2, 3, 4, 5)) == tuple("aaaa")
        and perm_to_word((1, 5, 2, 3, 4)) == tuple("abaa")
        and perm_to_word((1,)) == ())
    iso = verify_isomorphism(7)
    counts_ok = all(
        sum(1 for q in itertools.permutations(range(1, m + 1))
            if avoids_213_231(q)) == 2 ** (m - 1)
        for m in range(1, 9))
    ok = values_ok and iso.ok and counts_ok
    report("7", ok, "f(abbab)=165243, f(babab)=615243, f^-1(12345)=aaaa, "
                    "f^-1(15234)=abaa, f^-1(1)=eps; order isomorphism "
                    "verified exhaustively to length 7; avoider counts "
                    "equal 2^(m-1) for m <= 8")


def test_criterion_08_poset_lex_property(pattern_sweep, word_sweep_ab,
                                          word_sweep_abc):
    sweeps = [pattern_sweep, word_sweep_ab, word_sweep_abc]
    bad = problems_with(sweeps, ("poset-lex", "chains:", "labels:"))
    total = sum(s.total for s in sweeps)
    ok = not bad and total > 0
    report("8", ok, f"the generated chain order is poset lexicographic on "
                    f"all {total} intervals in the sweep ranges"
           + (f"; first failures: {bad[:3]}" if bad else ""))
