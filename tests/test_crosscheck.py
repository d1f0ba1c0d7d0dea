"""Worker bounds of the crosscheck harness, and seeded intervals beyond
the exhaustive sweeps through every check."""

from __future__ import annotations

import os
import random

import pytest

import posetmorse.crosscheck as crosscheck
import posetmorse.perms as perms
from posetmorse.posets import FactorPoset, PatternPoset


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs the
    chunks in this process, so no real pool is ever started."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def pool(monkeypatch):
    RecordingPool.sizes = []
    monkeypatch.setattr(crosscheck, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    return RecordingPool


def test_jobs_are_clamped_to_the_cpu_count(pool):
    report = crosscheck.run_crosscheck(PatternPoset(), 4, jobs=1000)
    assert pool.sizes == [3]
    assert report.ok and report.total == 167


def test_jobs_none_means_one_per_cpu(pool):
    crosscheck.run_crosscheck(PatternPoset(), 3, jobs=None)
    assert pool.sizes == [3]


def test_jobs_within_the_cpu_count_are_kept(pool):
    crosscheck.run_crosscheck(PatternPoset(), 3, jobs=2)
    assert pool.sizes == [2]


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_are_rejected(pool, jobs):
    with pytest.raises(ValueError):
        crosscheck.run_crosscheck(PatternPoset(), 3, jobs=jobs)
    assert pool.sizes == []


def _first_nonzero(poset, bottom, draw):
    """The first drawn top over bottom whose closed-form Mobius value is
    nonzero, so that the interval has a critical chain."""
    while True:
        top = draw()
        if poset.mobius_closed_form(bottom, top) != 0:
            return poset, bottom, top


def _seeded_intervals():
    """Six [1, tau] with |tau| = 8..10 and six [eps, w] with w in {a,b}^8..10,
    then, at lengths 11 and 12, the first [1, tau] and the first [eps, w]
    with a critical chain, drawn from a second generator."""
    rng = random.Random(1107)
    lengths = (8, 8, 9, 9, 10, 10)
    pattern = PatternPoset(max_top=None)
    out = [(pattern, (1,), tuple(rng.sample(range(1, n + 1), n))) for n in lengths]
    out += [(FactorPoset(), (), tuple(rng.choice("ab") for _ in range(n)))
            for n in lengths]
    rng = random.Random(2011)
    for n in (11, 12):
        out.append(_first_nonzero(pattern, (1,),
                                  lambda: tuple(rng.sample(range(1, n + 1), n))))
        out.append(_first_nonzero(FactorPoset(), (),
                                  lambda: tuple(rng.choice("ab") for _ in range(n))))
    return out


SEEDED = _seeded_intervals()


@pytest.mark.parametrize("poset, bottom, top", SEEDED,
                         ids=[f"{p.kind}-{p.format(t)}" for p, _, t in SEEDED])
def test_seeded_interval_passes_every_check(poset, bottom, top):
    assert crosscheck.check_interval(poset, bottom, top).problems == ()


def test_chain_count_catches_a_wrong_cover_rule(monkeypatch):
    # treating 132 as monotone drops its cover 12 from the chain listing;
    # the count over the order relation still sees both chains
    real = perms.is_monotone
    monkeypatch.setattr(perms, "is_monotone",
                        lambda p: tuple(p) == (1, 3, 2) or real(p))
    problems = crosscheck.check_interval(PatternPoset(), (1,), (1, 3, 2)).problems
    assert "chains: found 1, naive descent gives 2" in problems
