"""Poset wrappers, interval extraction, Mobius brute force, Euler characteristic."""

from __future__ import annotations

import itertools
import random

import pytest

from posetmorse import morse, perms, words
import posetmorse.crosscheck as crosscheck
from posetmorse.crosscheck import naive_chain_count, run_crosscheck
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
    assert p.down_covers((2, 1, 3, 5, 4, 6)) == (
        ((2, 1, 3, 5, 4), 6), ((1, 2, 4, 3, 5), 1))
    assert p.down_covers((1, 2, 3)) == (((1, 2), 1),)
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
    assert f.down_covers(tuple("ab")) == ((("a",), 2), (("b",), 1))
    assert f.down_covers(tuple("aa")) == ((("a",), 1),)
    assert f.parse("ab") == ("a", "b")
    assert f.parse("eps") == ()
    assert f.format(()) == ""
    assert len(list(f.elements_of_rank(3))) == 8
    assert len(list(FactorPoset(("a", "b", "c")).elements_of_rank(2))) == 9


def test_a_string_alphabet_is_stored_as_its_letters():
    # a string alphabet would test letters by substring: 'ab' in 'abc'
    f = FactorPoset(alphabet="abc")
    assert f.alphabet == ("a", "b", "c") and f.tag == "factor:a,b,c"
    with pytest.raises(ValueError, match="letter 'ab' is not in the alphabet"):
        f.parse("ab,c")


@pytest.mark.parametrize("alphabet, message", [
    (("a", "b", "ab"), "ambiguous alphabet 'a,b,ab': letter 'ab' has no text of its own"),
    (("a", " b"), "ambiguous alphabet 'a, b': letter ' b' has no text of its own"),
    (("a", "a"), "alphabet has repeated letters: 'a,a'"),
    ((), "alphabet must contain at least one letter"),
    # () and ("",) would both read '', and 'a,b,c' would read as three letters
    (("", "a"), "ambiguous alphabet ',a': letter '' has no text of its own"),
    (("a,b", "c"), "ambiguous alphabet 'a,b,c': letter 'a,b' has no text of its own")],
    ids=["run-of-letters", "spaced", "repeated", "empty", "empty-letter", "comma-letter"])
def test_a_library_alphabet_in_which_two_words_share_a_text_is_rejected(alphabet, message):
    # (a, b) and (ab,) would both read 'ab'
    with pytest.raises(ValueError) as raised:
        FactorPoset(alphabet)
    assert str(raised.value) == message
    assert FactorPoset(("a", "bb")).format(("a", "bb")) == "a,bb"


def test_expansion_text():
    p = PatternPoset()
    assert p.expansion_text((1, 2, 4, 3, 5), (1, 6), 6) == "012435"
    assert p.expansion_text((2, 1), (3, 5), 6) == "000210"
    f = FactorPoset()
    assert f.expansion_text(tuple("ba"), (1, 3), 3) == "0ba"
    # a multi-letter symbol makes the whole expansion comma-separated
    g = FactorPoset(("a", "bb"))
    assert g.expansion_text(("bb", "a"), (1, 3), 4) == "0,bb,a,0"
    assert g.expansion_text(("a",), (2, 3), 3) == "00a"


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
        p.check_length(10)
    p.check_length(9)
    unlimited = PatternPoset(max_top=None)
    unlimited.check_length(10)
    f = FactorPoset()
    with pytest.raises(SizeLimitError):
        f.check_length(13)


def test_mobius_bruteforce_point_values():
    def brute(poset, bottom, top):
        return mobius_bruteforce(poset, interval_structure(poset, bottom, top))[0]

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
                    mobius_bruteforce(p, interval_structure(p, bottom, z))[0]
                    for z in interval_elements(p, bottom, top))
                assert total == (1 if bottom == top else 0)


def test_euler_characteristic_values():
    p = PatternPoset()

    def euler(bottom, top):
        return euler_characteristic(p, interval_structure(p, bottom, top))[0]

    assert euler((1,), (2, 1, 3, 5, 4, 6)) == 1
    assert euler((1, 2, 3), (2, 1, 3, 5, 4)) == 1
    assert euler((1, 2), (1, 2, 3, 4)) == 0
    # a cover relation has an empty open interval
    assert euler((1,), (1, 2)) == -1
    # the open interval of a single element is undefined: its entry is None
    assert euler((1,), (1,)) is None
    assert euler_characteristic(p, interval_structure(p, (1,), (1, 2))) == (-1, None)


def euler_by_walk(poset, interval) -> int:
    """The oracle for euler_characteristic: walk every chain of the open
    interval, count them by length, and take the alternating sum minus 1."""
    top = interval.size - 1
    counts: list[int] = []  # counts[k] = chains with k+1 elements

    def walk(x: int, depth: int) -> None:
        if depth == len(counts):
            counts.append(0)
        counts[depth] += 1
        for y in interval.ups[x]:
            if y != top:
                walk(y, depth + 1)

    for x in range(1, top):
        walk(x, 0)
    return sum(c if k % 2 == 0 else -c for k, c in enumerate(counts)) - 1


def euler_by_rows(poset, interval) -> tuple:
    """The oracle for euler_characteristic's packed rows: the same column
    from rows held entry by entry, row[x][k] counting the chains x < z_1 <
    ... < z_k < top."""
    elems, top = interval.elements, interval.size - 1
    rows: list[list[int]] = [[]] * top
    chi: list[int | None] = [None] * interval.size
    for x in range(top - 1, -1, -1):
        row = [1] + [0] * (poset.rank(elems[top]) - poset.rank(elems[x]) - 1)
        for z in interval.ups[x]:
            if z != top:
                for k, c in enumerate(rows[z]):
                    row[k + 1] += c
        rows[x] = row
        chi[x] = sum(-c if k % 2 else c for k, c in enumerate(row[1:])) - 1
    return tuple(chi)


def mobius_by_recursion(interval) -> int:
    """The oracle for mobius_bruteforce: the defining recursion forward from
    the bottom, mu(bottom, bottom) = 1 and mu(bottom, y) = -sum of
    mu(bottom, z) over bottom <= z < y."""
    mu = [1]
    for below in interval.downs[1:]:
        mu.append(-sum(mu[z] for z in below))
    return mu[-1]


def cover_paths(poset, interval) -> int:
    """The oracle for naive_chain_count: cover paths forward from the
    bottom, paths[y] = sum of paths[x] over x below y one rank down."""
    ranks = [poset.rank(e) for e in interval.elements]
    paths = [1]
    for y, below in enumerate(interval.downs[1:], start=1):
        paths.append(sum(paths[x] for x in below if ranks[x] == ranks[y] - 1))
    return paths[-1]


def assert_columns_match_the_oracles(poset, top, bottoms) -> None:
    """The entry of each x in bottoms in top's columns equals the forward
    recursion, the chain walk and the cover-path count on [x, top]."""
    down = interval_structure(poset, poset.minimum, top)
    brute = mobius_bruteforce(poset, down)
    euler = euler_characteristic(poset, down)
    chain_count = naive_chain_count(poset, down)
    for x in bottoms:
        i = down.elements.index(x)
        s = interval_structure(poset, x, top)
        assert brute[i] == mobius_by_recursion(s)
        assert euler[i] == (euler_by_walk(poset, s) if x != top else None)
        assert chain_count[i] == cover_paths(poset, s)


def test_top_columns_match_the_forward_oracles():
    # every x under every pattern top of length <= 5 and factor {a,b} top
    # of length <= 5
    for poset in (PatternPoset(), FactorPoset(("a", "b"))):
        for n in range(poset.min_rank, 6):
            for top in poset.elements_of_rank(n):
                elements = interval_structure(poset, poset.minimum, top).elements
                assert set(elements) == poset.down_set(top)
                assert_columns_match_the_oracles(poset, top, elements)


def test_euler_characteristic_matches_the_chain_walk():
    # every interval of rank gap at least one under pattern tops of length
    # <= 5 and factor {a,b} tops of length <= 5
    for poset in (PatternPoset(), FactorPoset(("a", "b"))):
        for n in range(poset.min_rank, 6):
            for top in poset.elements_of_rank(n):
                for bottom in poset.down_set(top):
                    if poset.rank(top) - poset.rank(bottom) < 1:
                        continue
                    s = interval_structure(poset, bottom, top)
                    assert euler_characteristic(poset, s)[0] == euler_by_walk(poset, s)


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


def test_mobius_cache_skips_a_blank_line_between_records(tmp_path):
    path = tmp_path / "mu.cache"
    path.write_text("pattern\t1\t12\t-1\n\npattern\t1\t21\t-1\n")
    cache = MobiusCache(str(path))
    assert cache.get("pattern", "1", "12") == cache.get("pattern", "1", "21") == -1
    cache.close()


def test_packed_euler_rows_match_the_rows_entry_by_entry():
    # the column of every top's down-set in the three acceptance ranges
    for poset, max_rank in ((PatternPoset(), 6), (FactorPoset(("a", "b")), 6),
                            (FactorPoset(("a", "b", "c")), 5)):
        for n in range(poset.min_rank, max_rank + 1):
            for top in poset.elements_of_rank(n):
                down = interval_structure(poset, poset.minimum, top)
                assert euler_characteristic(poset, down) == euler_by_rows(poset, down)
    # seeded tops of length 12 to 40, from the minimum and from a bottom
    # above it
    rng = random.Random(1212)
    for n in (12, 20, 30, 40):
        for poset, top in ((PatternPoset(max_top=None), tuple(rng.sample(range(1, n + 1), n))),
                           (FactorPoset(max_top=None), tuple(rng.choices("ab", k=n)))):
            above = [e for e in poset.down_set(top) if 2 <= poset.rank(e) <= n - 2]
            for bottom in (poset.minimum, rng.choice(sorted(above))):
                s = interval_structure(poset, bottom, top)
                assert euler_characteristic(poset, s) == euler_by_rows(poset, s)


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


def _seeded_permutations(count, lengths):
    rng = random.Random(0)
    return [tuple(rng.sample(range(1, n + 1), n))
            for n in (rng.choice(lengths) for _ in range(count))]


@pytest.mark.parametrize("poset, elements", [
    (PatternPoset(), [p for n in range(1, 7) for p in itertools.permutations(range(1, n + 1))]
     + _seeded_permutations(20, (10, 11, 12))),
] + [
    (FactorPoset(alphabet), [w for n in range(4) for w in itertools.product(alphabet, repeat=n)])
    for alphabet in (("a", "b"), ("a", "b", "c"), ("e", "p", "s"), ("a", "bb"), ("ab", "cd"))
], ids=["pattern", "ab", "abc", "eps", "a-bb", "ab-cd"])
def test_element_text_round_trips_and_names_one_element(poset, elements):
    texts = [poset.format(e) for e in elements]
    assert [poset.parse(t) for t in texts] == elements
    assert len(set(texts)) == len(texts)

def test_process_wide_down_set_caches_are_bounded():
    for cached in (perms._window_patterns, words._factor_set, perms.exterior,
                   perms.interior, perms.down_covers, morse._jump_pattern,
                   morse._jump_factor, perms.format_permutation,
                   words.format_word):
        assert cached.cache_info().maxsize is not None


@pytest.mark.parametrize("poset, formatter, elements", [
    (PatternPoset(), perms.format_permutation, 1 + 2 + 6 + 24),
    (FactorPoset(), words.format_word, 1 + 2 + 4 + 8 + 16),
], ids=["pattern", "factor"])
def test_a_sweep_formats_each_element_once(poset, formatter, elements):
    formatter.cache_clear()
    assert run_crosscheck(poset, 4).ok
    info = formatter.cache_info()
    assert info.misses <= elements  # every element of length <= 4
    assert info.hits > info.misses


def test_a_sweep_computes_each_operator_once_per_permutation():
    for op in (perms.exterior, perms.interior, perms.down_covers, morse._jump_pattern):
        op.cache_clear()
    assert run_crosscheck(PatternPoset(), 4).ok
    for op in (perms.exterior, morse._jump_pattern):
        info = op.cache_info()
        assert info.misses <= 1 + 2 + 6 + 24  # permutations of length <= 4
        assert info.hits > info.misses


def test_a_factor_sweep_computes_the_fast_law_s_jump_once_per_word():
    morse._jump_factor.cache_clear()
    assert run_crosscheck(FactorPoset(), 4).ok
    info = morse._jump_factor.cache_info()
    assert info.misses <= 1 + 2 + 4 + 8 + 16  # words over {a,b} of length <= 4
    assert info.hits > info.misses


def test_a_sweep_builds_each_top_once(monkeypatch):
    built = []
    real = crosscheck.interval_structure
    monkeypatch.setattr(crosscheck, "interval_structure",
                        lambda *args: built.append(args) or real(*args))
    assert run_crosscheck(PatternPoset(), 4).ok
    assert len(built) == 1 + 2 + 6 + 24  # one per top
