"""Poset wrappers, interval extraction, Mobius brute force, Euler characteristic."""

from __future__ import annotations

import itertools

import pytest

from posetmorse.posets import (FactorPoset, IncomparableError, MobiusCache,
                               PatternPoset, SizeLimitError,
                               euler_characteristic, interval_elements,
                               mobius_bruteforce)


def test_pattern_poset_basics():
    p = PatternPoset()
    assert p.kind == "pattern"
    assert p.min_rank == 1
    assert p.tag == "pattern"
    assert p.rank((2, 1, 3)) == 3
    assert p.leq((1,), (2, 1))
    assert not p.leq((1, 2), (2, 1))
    assert p.window((2, 1, 3, 5, 4, 6), 1, 6) == (1, 2, 4, 3, 5)
    assert p.single_covered((1, 2, 3))
    assert not p.single_covered((2, 1, 3))
    assert p.parse("213") == (2, 1, 3)
    assert p.format((2, 1, 3)) == "213"
    assert len(list(p.elements_of_rank(3))) == 6


def test_factor_poset_basics():
    f = FactorPoset()
    assert f.kind == "factor"
    assert f.min_rank == 0
    assert f.tag == "factor:a,b"
    assert f.rank(()) == 0
    assert f.leq((), ("a",))
    assert f.window(tuple("aabb"), 1, 3) == tuple("ab")
    assert f.single_covered(tuple("aa"))
    assert not f.single_covered(tuple("ab"))
    assert f.parse("ab") == ("a", "b")
    assert f.parse("eps") == ()
    assert f.format(()) == ""
    assert len(list(f.elements_of_rank(3))) == 8
    assert len(list(FactorPoset(("a", "b", "c")).elements_of_rank(2))) == 9


def test_expansion_text():
    p = PatternPoset()
    assert p.expansion_text((1, 2, 4, 3, 5), (1, 6), 6) == "012435"
    assert p.expansion_text((2, 1), (3, 5), 6) == "000210"
    f = FactorPoset()
    assert f.expansion_text(tuple("ba"), (1, 3), 3) == "0ba"


def test_interval_elements_diamond():
    p = PatternPoset()
    elems = interval_elements(p, (1, 2, 3), (2, 1, 3, 5, 4))
    assert sorted(elems) == [(1, 2, 3), (1, 2, 4, 3), (2, 1, 3, 4),
                             (2, 1, 3, 5, 4)]
    f = FactorPoset()
    welems = interval_elements(f, (), tuple("aab"))
    assert sorted(welems, key=lambda e: (len(e), e)) == [
        (), ("a",), ("b",), ("a", "a"), ("a", "b"), ("a", "a", "b")]


def test_interval_elements_incomparable():
    p = PatternPoset()
    with pytest.raises(IncomparableError):
        interval_elements(p, (1, 2), (2, 1))


def test_size_guardrails():
    p = PatternPoset()
    with pytest.raises(SizeLimitError):
        p.check_top(tuple(range(1, 11)))
    p.check_top(tuple(range(1, 10)))
    unlimited = PatternPoset(max_top=None)
    unlimited.check_top(tuple(range(1, 11)))
    f = FactorPoset()
    with pytest.raises(SizeLimitError):
        f.check_top(tuple("a" * 13))


def test_mobius_bruteforce_point_values():
    p = PatternPoset()
    assert mobius_bruteforce(p, (1,), (1,)) == 1
    assert mobius_bruteforce(p, (1,), (1, 2)) == -1
    assert mobius_bruteforce(p, (1,), (2, 1, 3, 5, 4, 6)) == 1
    assert mobius_bruteforce(p, (1, 2), (1, 2, 3, 4)) == 0
    f = FactorPoset()
    assert mobius_bruteforce(f, ("b",), tuple("abb")) == 1
    assert mobius_bruteforce(f, ("b",), tuple("aabb")) == 0
    with pytest.raises(IncomparableError):
        mobius_bruteforce(p, (1, 2), (2, 1))


def test_mobius_bruteforce_defining_recursion():
    # mu is the unique function with sum over the closed interval equal to
    # [bottom == top]
    p = PatternPoset()
    for n in range(1, 5):
        for top in itertools.permutations(range(1, n + 1)):
            for bottom in sorted(p.down_set(top)):
                total = sum(
                    mobius_bruteforce(p, bottom, z)
                    for z in interval_elements(p, bottom, top))
                assert total == (1 if bottom == top else 0)


def test_euler_characteristic_values():
    p = PatternPoset()
    assert euler_characteristic(p, (1,), (2, 1, 3, 5, 4, 6)) == 1
    assert euler_characteristic(p, (1, 2, 3), (2, 1, 3, 5, 4)) == 1
    assert euler_characteristic(p, (1, 2), (1, 2, 3, 4)) == 0
    # a cover relation has an empty open interval
    assert euler_characteristic(p, (1,), (1, 2)) == -1
    with pytest.raises(ValueError):
        euler_characteristic(p, (1,), (1,))


def test_mobius_cache_round_trip(tmp_path):
    path = tmp_path / "mu.cache"
    cache = MobiusCache(str(path))
    cache.put("pattern", "1", "213546", 1)
    cache.put("pattern", "1", "213546", 5)  # ignored: first write wins
    assert cache.get("pattern", "1", "213546") == 1
    cache.close()
    text = path.read_text()
    assert text == "pattern\t1\t213546\t1\n"
    again = MobiusCache(str(path))
    assert again.get("pattern", "1", "213546") == 1
    assert len(again) == 1
    again.close()


def test_mobius_cache_skips_and_cuts_a_torn_final_line(tmp_path):
    path = tmp_path / "mu.cache"
    path.write_text("pattern\t1\t12\t-1\npattern\t1\t2")
    cache = MobiusCache(str(path))
    assert len(cache) == 1
    assert cache.get("pattern", "1", "12") == -1
    assert path.read_text().endswith("\t2")  # loading alone writes nothing
    cache.put("pattern", "1", "21", -1)
    cache.close()
    assert path.read_text() == "pattern\t1\t12\t-1\npattern\t1\t21\t-1\n"


def test_mobius_cache_in_memory():
    cache = MobiusCache()
    assert cache.get("pattern", "1", "12") is None
    cache.put("pattern", "1", "12", -1)
    assert cache.get("pattern", "1", "12") == -1
    cache.close()


def test_bruteforce_uses_cache(tmp_path):
    path = tmp_path / "mu.cache"
    cache = MobiusCache(str(path))
    # a wrong preseeded value must be trusted, proving the cache is read
    cache.put("pattern", "1", "12", 7)
    assert mobius_bruteforce(PatternPoset(), (1,), (1, 2), cache) == 7
    cache.close()
