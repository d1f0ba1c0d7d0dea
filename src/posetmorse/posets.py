"""
The two graded posets, interval enumeration, and the ground-truth Mobius
routes.

Both posets are locally finite and graded by length, and every cover
deletes one letter from an end of a contiguous window.  PatternPoset is
the consecutive pattern order on permutations; FactorPoset is factor order
on words over a fixed alphabet, empty word included.

mobius_bruteforce recurses over a full interval and is the reference
implementation everything else is checked against.  euler_characteristic
counts chains of the open interval directly, which gives a second
independent route to the same number on intervals of rank gap at least
two.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from typing import Iterator

from . import perms, words


class IncomparableError(ValueError):
    """The requested interval's endpoints are not comparable."""


class SizeLimitError(RuntimeError):
    """A top element exceeds the configured enumeration guardrail."""


class _LengthGraded:
    """What both posets share: rank is length, and max_top bounds the
    length of interval tops accepted for enumeration (None lifts it)."""

    def rank(self, e) -> int:
        return len(e)

    def check_top(self, e) -> None:
        if self.max_top is not None and len(e) > self.max_top:
            raise SizeLimitError(f"top of length {len(e)} exceeds the "
                                 f"{self.limit_name} limit {self.max_top}")


@dataclass(frozen=True)
class PatternPoset(_LengthGraded):
    """Consecutive pattern order on permutations."""

    max_top: int | None = 9

    kind = "pattern"
    tag = "pattern"
    limit_name = "pattern"
    min_rank = 1

    def leq(self, x, y) -> bool:
        return perms.leq_consecutive(x, y)

    def down_covers(self, e):
        return perms.down_covers(e)

    def window(self, top, lo: int, hi: int):
        return perms.standardize(top[lo:hi])

    def single_covered(self, e) -> bool:
        return perms.is_monotone(e)

    def down_set(self, top) -> frozenset:
        return perms._window_patterns(top)

    def parse(self, text: str):
        return perms.parse_permutation(text)

    def format(self, e) -> str:
        return perms.format_permutation(e)

    def expansion_text(self, element, window: tuple[int, int], top_len: int) -> str:
        lo, hi = window
        eta = (0,) * lo + tuple(element[:hi - lo]) + (0,) * (top_len - hi)
        return perms.format_permutation(eta)

    def mobius_closed_form(self, bottom, top) -> int:
        from . import closed_form
        return closed_form.mobius_pattern(bottom, top)

    def elements_of_rank(self, d: int) -> Iterator:
        return itertools.permutations(range(1, d + 1))


@dataclass(frozen=True)
class FactorPoset(_LengthGraded):
    """Factor order on words over a fixed ordered alphabet."""

    alphabet: tuple[str, ...] = ("a", "b")
    max_top: int | None = 12

    kind = "factor"
    limit_name = "factor-order"
    min_rank = 0

    @property
    def tag(self) -> str:
        return "factor:" + ",".join(self.alphabet)

    def leq(self, x, y) -> bool:
        if len(x) > len(y):
            return False
        return x in words._factor_set(y)

    def down_covers(self, e):
        return words.down_covers_word(e)

    def window(self, top, lo: int, hi: int):
        return top[lo:hi]

    def single_covered(self, e) -> bool:
        return words.is_flat(e)

    def down_set(self, top) -> frozenset:
        return words._factor_set(top)

    def parse(self, text: str):
        return words.parse_word(text, self.alphabet)

    def format(self, e) -> str:
        return words.format_word(e)

    def expansion_text(self, element, window: tuple[int, int], top_len: int) -> str:
        lo, hi = window
        symbols = ["0"] * lo + list(element[:hi - lo]) + ["0"] * (top_len - hi)
        if any(len(s) != 1 for s in symbols):
            return ",".join(symbols)
        return "".join(symbols)

    def mobius_closed_form(self, bottom, top) -> int:
        from . import closed_form
        return closed_form.mobius_factor(bottom, top)

    def elements_of_rank(self, d: int) -> Iterator:
        return itertools.product(self.alphabet, repeat=d)


def interval_elements(poset, bottom, top) -> frozenset:
    """
    Every element z with bottom <= z <= top: downward closure from the top
    intersected with comparability to the bottom.
    """
    poset.check_top(top)
    if not poset.leq(bottom, top):
        raise IncomparableError(
            f"{poset.format(bottom)!r} is not below {poset.format(top)!r}")
    lo_rank = poset.rank(bottom)
    seen = {top}
    stack = [top]
    while stack:
        e = stack.pop()
        if poset.rank(e) > lo_rank:
            for child, _pos in poset.down_covers(e):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
    return frozenset(e for e in seen if poset.leq(bottom, e))


def mobius_bruteforce(poset, bottom, top, cache: "MobiusCache | None" = None) -> int:
    """
    Mobius function by the defining recursion: mu(bottom, bottom) = 1 and
    mu(bottom, y) = -sum of mu(bottom, z) over bottom <= z < y.
    """
    bt = poset.format(bottom)
    if cache is not None:
        hit = cache.get(poset.tag, bt, poset.format(top))
        if hit is not None:
            return hit
    elems = interval_elements(poset, bottom, top)
    order = sorted(elems, key=lambda e: (poset.rank(e), poset.format(e)))
    mu: dict = {}
    for y in order:
        if y == bottom:
            mu[y] = 1
            continue
        y_rank = poset.rank(y)
        total = 0
        for z in order:
            if poset.rank(z) >= y_rank:
                break
            if poset.leq(z, y):
                total += mu[z]
        mu[y] = -total
    if cache is not None:
        for z, value in mu.items():
            cache.put(poset.tag, bt, poset.format(z), value)
    return mu[top]


def euler_characteristic(poset, bottom, top) -> int:
    """
    Reduced Euler characteristic of the order complex of the open interval,
    by explicit chain enumeration.  Needs rank gap at least one; a gap of
    exactly one has an empty complex and returns -1 (degenerate but equal
    to the Mobius value there too).
    """
    elems = interval_elements(poset, bottom, top)
    gap = poset.rank(top) - poset.rank(bottom)
    if gap < 1:
        raise ValueError("the open interval of a single element is undefined")
    open_elems = sorted(
        (e for e in elems if e != bottom and e != top),
        key=lambda e: (poset.rank(e), poset.format(e)))
    above = {
        x: [y for y in open_elems if poset.rank(y) > poset.rank(x) and poset.leq(x, y)]
        for x in open_elems
    }
    counts: list[int] = []  # counts[k] = chains with k+1 elements

    def walk(x, depth: int) -> None:
        if depth == len(counts):
            counts.append(0)
        counts[depth] += 1
        for y in above[x]:
            walk(y, depth + 1)

    for x in open_elems:
        walk(x, 0)
    return sum(c if k % 2 == 0 else -c for k, c in enumerate(counts)) - 1


class MobiusCache:
    """
    Cross-call Mobius cache keyed by (poset tag, bottom text, top text),
    optionally persisted one record per line: tag TAB bottom TAB top TAB mu.
    Reads are lock-free; writes serialize behind a lock and append each
    record with a single write call.  A final line without its newline is
    a record torn by an interrupted append: loading skips it, and the first
    append cuts it off so that the new record starts on a line of its own.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._data: dict[tuple[str, str, str], int] = {}
        self._lock = threading.Lock()
        self._handle = None
        self._clean_size: int | None = None
        if path is not None and os.path.exists(path):
            self._load(path)

    def _load(self, path: str) -> None:
        clean = 0
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.endswith(b"\n"):
                    break
                clean += len(raw)
                line = raw.decode("utf-8").rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 4:
                    raise ValueError(f"{path}:{lineno}: bad cache record {line!r}")
                tag, bottom, top, mu = parts
                self._data[(tag, bottom, top)] = int(mu)
            if clean < fh.tell():
                self._clean_size = clean

    def get(self, tag: str, bottom: str, top: str) -> int | None:
        return self._data.get((tag, bottom, top))

    def put(self, tag: str, bottom: str, top: str, value: int) -> None:
        key = (tag, bottom, top)
        with self._lock:
            if key in self._data:
                return
            self._data[key] = value
            if self.path is not None:
                if self._handle is None:
                    if self._clean_size is not None:
                        os.truncate(self.path, self._clean_size)
                    self._handle = open(self.path, "a", encoding="utf-8")
                self._handle.write(f"{tag}\t{bottom}\t{top}\t{value}\n")
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __len__(self) -> int:
        return len(self._data)
