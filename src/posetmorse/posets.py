"""
The two graded posets, interval enumeration, and the ground-truth Mobius
routes.

Both posets are locally finite and graded by length, and every cover
deletes one letter from an end of a contiguous window.  PatternPoset is
the consecutive pattern order on permutations; FactorPoset is factor order
on words over a fixed alphabet, empty word included.

interval_structure enumerates an interval once, with its order relation.
mobius_bruteforce recurses over that structure and is the reference
implementation everything else is checked against; euler_characteristic
counts chains of its open interval, a second independent route to the
same number on intervals of rank gap at least two.
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

    def msis_fast(self, chain) -> list:
        from . import morse
        return morse.msis_fast_pattern(chain)

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
        return words.is_factor(x, y)

    def down_covers(self, e):
        return words.down_covers_word(e)

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

    def msis_fast(self, chain) -> list:
        from . import morse
        return morse.msis_fast_factor(chain)

    def elements_of_rank(self, d: int) -> Iterator:
        return itertools.product(self.alphabet, repeat=d)


def interval_elements(poset, bottom, top) -> frozenset:
    """Every z with bottom <= z <= top, read off the down-set of the top."""
    poset.check_top(top)
    if not poset.leq(bottom, top):
        raise IncomparableError(
            f"{poset.format(bottom)!r} is not below {poset.format(top)!r}")
    return frozenset(e for e in poset.down_set(top) if poset.leq(bottom, e))


@dataclass(frozen=True)
class IntervalStructure:
    """An interval as a finite poset: its elements sorted by (rank, text),
    so the bottom is first and the top last, and the strict order as index
    sets: ups[i] holds the indices above element i, downs[i] those below."""

    elements: tuple
    ups: tuple[frozenset, ...]
    downs: tuple[frozenset, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


def interval_structure(poset, bottom, top) -> IntervalStructure:
    """Enumerate [bottom, top] once, with its order relation.  Elements of
    equal rank are incomparable, so only later ones can lie above."""
    elems = tuple(sorted(interval_elements(poset, bottom, top),
                         key=lambda e: (poset.rank(e), poset.format(e))))
    n = len(elems)
    ups = tuple(frozenset(j for j in range(i + 1, n) if poset.leq(x, elems[j]))
                for i, x in enumerate(elems))
    downs = tuple(frozenset(i for i in range(j) if j in ups[i]) for j in range(n))
    return IntervalStructure(elems, ups, downs)


def mobius_bruteforce(poset, interval: IntervalStructure) -> int:
    """
    Mobius function by the defining recursion: mu(bottom, bottom) = 1 and
    mu(bottom, y) = -sum of mu(bottom, z) over bottom <= z < y.
    """
    mu = [1]
    for below in interval.downs[1:]:
        mu.append(-sum(mu[z] for z in below))
    return mu[-1]


def euler_characteristic(poset, interval: IntervalStructure) -> int:
    """
    Reduced Euler characteristic of the order complex of the open interval,
    by explicit chain enumeration.  Needs rank gap at least one; a gap of
    exactly one has an empty complex and returns -1 (degenerate but equal
    to the Mobius value there too).
    """
    elems = interval.elements
    if poset.rank(elems[-1]) - poset.rank(elems[0]) < 1:
        raise ValueError("the open interval of a single element is undefined")
    top = len(elems) - 1
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


class MobiusCache:
    """
    Cross-run record of brute-force Mobius values keyed by (poset tag,
    bottom text, top text), one record per line: tag TAB bottom TAB top TAB
    mu.  check compares a computed value with the record and appends it
    when there is none; a held record is never rewritten.  Opening it only
    reads the file; the first put opens it for appending.  Reads are
    lock-free; writes serialize behind a lock and append each record with
    a single write call.  A final line without its newline is a record torn
    by an interrupted append: loading skips it, and the first append cuts
    it off so that the new record starts on a line of its own.  A path
    that cannot serve as the file raises ValueError before anything is
    computed: a directory, a missing directory, or missing permissions.
    """

    def __init__(self, path: str):
        self.path = path
        self._data: dict[tuple[str, str, str], int] = {}
        self._lock = threading.Lock()
        self._handle = None
        self._clean_size: int | None = None
        parent = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            raise ValueError(f"cache file {path} is a directory")
        if not os.path.isdir(parent):
            raise ValueError(f"cache file {path}: no directory {parent}")
        exists = os.path.exists(path)
        if not os.access(path if exists else parent, os.R_OK | os.W_OK):
            raise ValueError(f"cache file {path}: permission denied")
        if exists:
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
                try:
                    tag, bottom, top, mu = line.split("\t")
                    self._data[(tag, bottom, top)] = int(mu)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: bad cache record {line!r}") from None
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
            if self._handle is None:
                if self._clean_size is not None:
                    os.truncate(self.path, self._clean_size)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(f"{tag}\t{bottom}\t{top}\t{value}\n")
            self._handle.flush()

    def check(self, tag: str, bottom: str, top: str, value: int) -> str | None:
        """Append value unless a record is held; name a held record that
        differs."""
        held = self.get(tag, bottom, top)
        self.put(tag, bottom, top, value)
        if held is None or held == value:
            return None
        return f"cache: {self.path} holds {held}, brute force gives {value}"

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
