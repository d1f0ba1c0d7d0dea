"""Poset wrappers, interval extraction, Mobius brute force, Euler characteristic."""

from __future__ import annotations

import itertools

import pytest

from posetmorse import perms, words
from posetmorse.posets import (FactorPoset, IncomparableError, MobiusCache,
                               PatternPoset, SizeLimitError,
                               euler_characteristic, interval_elements,
                               interval_structure, mobius_bruteforce)


def test_pattern_poset_basics():
    p = PatternPoset()
    assert p.kind == "pattern"
    assert p.min_rank == 1
    assert p.tag == "pattern"
    assert p.rank((2, 1, 3)) == 3
    assert p.leq((1,), (2, 1))
    assert not p.leq((1, 2), (2, 1))
    assert p.down_covers((2, 1, 3, 5, 4, 6)) == [
        ((2, 1, 3, 5, 4), 6), ((1, 2, 4, 3, 5), 1)]
    assert p.down_covers((1, 2, 3)) == [((1, 2), 1)]
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
    assert not f.leq(tuple("ba"), tuple("aab"))
    assert f.down_covers(tuple("ab")) == [(("a",), 2), (("b",), 1)]
    assert f.down_covers(tuple("aa")) == [(("a",), 1)]
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
    def brute(poset, bottom, top):
        return mobius_bruteforce(poset, interval_structure(poset, bottom, top))

    p = PatternPoset()
    assert brute(p, (1,), (1,)) == 1
    assert brute(p, (1,), (1, 2)) == -1
    assert brute(p, (1,), (2, 1, 3, 5, 4, 6)) == 1
    assert brute(p, (1, 2), (1, 2, 3, 4)) == 0
    f = FactorPoset()
    assert brute(f, ("b",), tuple("abb")) == 1
    assert brute(f, ("b",), tuple("aabb")) == 0
    with pytest.raises(IncomparableError):
        interval_structure(p, (1, 2), (2, 1))


def test_mobius_bruteforce_defining_recursion():
    # mu is the unique function with sum over the closed interval equal to
    # [bottom == top]
    p = PatternPoset()
    for n in range(1, 5):
        for top in itertools.permutations(range(1, n + 1)):
            for bottom in sorted(p.down_set(top)):
                total = sum(
                    mobius_bruteforce(p, interval_structure(p, bottom, z))
                    for z in interval_elements(p, bottom, top))
                assert total == (1 if bottom == top else 0)


def test_euler_characteristic_values():
    p = PatternPoset()

    def euler(bottom, top):
        return euler_characteristic(p, interval_structure(p, bottom, top))

    assert euler((1,), (2, 1, 3, 5, 4, 6)) == 1
    assert euler((1, 2, 3), (2, 1, 3, 5, 4)) == 1
    assert euler((1, 2), (1, 2, 3, 4)) == 0
    # a cover relation has an empty open interval
    assert euler((1,), (1, 2)) == -1
    with pytest.raises(ValueError):
        euler((1,), (1,))


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
    assert again.get("pattern", "1", "21") is None
    again.close()


def test_mobius_cache_skips_and_cuts_a_torn_final_line(tmp_path):
    path = tmp_path / "mu.cache"
    path.write_text("pattern\t1\t12\t-1\npattern\t1\t2")
    cache = MobiusCache(str(path))
    assert cache.get("pattern", "1", "12") == -1
    assert cache.get("pattern", "1", "2") is None
    assert path.read_text().endswith("\t2")  # loading alone writes nothing
    cache.put("pattern", "1", "21", -1)
    cache.close()
    assert path.read_text() == "pattern\t1\t12\t-1\npattern\t1\t21\t-1\n"


def _oracle_posets():
    """Every interval of three posets: pattern tops of length <= 5, factor
    order over {a,b} to length 5 and over {a,b,c} to length 4."""
    yield PatternPoset(), 5
    yield FactorPoset(("a", "b")), 5
    yield FactorPoset(("a", "b", "c")), 4


def test_interval_structure_matches_the_order_oracle():
    for poset, max_rank in _oracle_posets():
        ranked = [list(poset.elements_of_rank(d))
                  for d in range(max_rank + 1)]
        for top_rank in range(poset.min_rank, max_rank + 1):
            for top in ranked[top_rank]:
                below_top = [z for d in range(poset.min_rank, top_rank + 1)
                             for z in ranked[d] if poset.leq(z, top)]
                for bottom in below_top:
                    want = {z for z in below_top if poset.leq(bottom, z)}
                    assert interval_elements(poset, bottom, top) == want
                    s = interval_structure(poset, bottom, top)
                    assert set(s.elements) == want
                    assert s.elements[0] == bottom and s.elements[-1] == top
                    for i, x in enumerate(s.elements):
                        assert s.ups[i] == {
                            j for j, y in enumerate(s.elements)
                            if poset.rank(y) > poset.rank(x)
                            and poset.leq(x, y)}
                        assert s.downs[i] == {
                            j for j in range(s.size) if i in s.ups[j]}


def test_process_wide_down_set_caches_are_bounded():
    for cached in (perms._window_patterns, words._factor_set):
        assert cached.cache_info().maxsize is not None
