"""
The two graded posets, interval enumeration, and the ground-truth Mobius
routes.

Both posets are locally finite and graded by length, and every cover
deletes one letter from an end of a contiguous window.  PatternPoset is
the consecutive pattern order on permutations; FactorPoset is factor order
on words over a fixed alphabet, empty word included.  One expansion rule
serves both: an element inside a top is the poset's text form of its
window of the top, padded with the poset's zero symbol (0 or "0").

interval_structure enumerates an interval once, with the elements above
each element read off the memoized down-sets of its elements.  Each
ground-truth route takes the structure of [bottom, top] and returns a
column indexed like its elements, the value of [x, top] for every element
x, by one backward pass from the top; entry 0 is the value of the
interval itself.  A sweep runs them on the down-set of a top, [minimum,
top], so one pass serves every bottom under it; mobius runs them on its
own interval.  No column is memoized across calls.  mobius_bruteforce
recurses over that structure and is the reference implementation
everything else is checked against; euler_characteristic counts the
chains of each open interval by length without listing them, a second
independent route to the same number at rank gap two or more.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
from typing import Iterator, NamedTuple

from . import closed_form, morse, perms, words


class IncomparableError(ValueError):
    """The requested interval's endpoints are not comparable."""


class SizeLimitError(RuntimeError):
    """A top element exceeds the configured enumeration guardrail."""


class _LengthGraded:
    """What both posets share: rank is length, max_top bounds the length
    of interval tops accepted for enumeration (None lifts it), and an
    element's expansion is its text form padded with the zero symbol.  A
    poset is a read-only value of its class and the fields its __init__
    sets, in order; pickle restores them without __setattr__."""

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    def __hash__(self) -> int:
        return hash((type(self), *vars(self).values()))

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, vars(self), vars(self).values())
        return f"{type(self).__name__}({', '.join(fields)})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def rank(self, e) -> int:
        return len(e)

    def check_pair(self, bottom, top) -> None:
        """Reject a top above the guardrail, then a bottom not below it."""
        self.check_length(len(top))
        if not self.leq(bottom, top):
            raise IncomparableError(
                f"{self.format(bottom)!r} is not below {self.format(top)!r}")

    def expansion_text(self, element, window: tuple[int, int], top_len: int) -> str:
        lo, hi = window
        pad = (self.zero,)
        return self.format(pad * lo + tuple(element[:hi - lo]) + pad * (top_len - hi))

    def check_length(self, n: int) -> None:
        if self.max_top is not None and n > self.max_top:
            raise SizeLimitError(f"top of length {n} exceeds the "
                                 f"{self.limit_name} limit {self.max_top}")


class PatternPoset(_LengthGraded):
    """Consecutive pattern order on permutations."""

    def __init__(self, max_top: int | None = 9):
        vars(self)["max_top"] = max_top

    kind = "pattern"
    tag = "pattern"
    limit_name = "pattern"
    zero = 0
    min_rank = 1
    minimum = (1,)

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

    def mobius_closed_form(self, bottom, top) -> int:
        return closed_form.mobius_pattern(bottom, top)

    jump = staticmethod(morse._jump_pattern)  # the fast law's exterior jump

    def elements_of_rank(self, d: int) -> Iterator:
        return itertools.permutations(range(1, d + 1))


def check_alphabet(letters, text: str | None = None) -> tuple[str, ...]:
    """The letters as a tuple, when each word over them has its own text
    (see words) on one line: some letter, none repeated, empty, holding a
    comma, spaced, unprintable (a tab, a newline), a run of others or the
    zero that pads an expansion (FactorPoset.zero).  An error names the
    alphabet by text, or its letters comma-joined."""
    letters = tuple(letters)
    text = ",".join(letters) if text is None else text
    if not letters:
        raise ValueError("alphabet must contain at least one letter")
    if len(set(letters)) != len(letters):
        raise ValueError(f"alphabet has repeated letters: {text!r}")
    for s in letters:
        run = len(s) > 1 and set(s) <= set(letters)
        if s in ("", FactorPoset.zero) or "," in s or s != s.strip() or run or not s.isprintable():
            raise ValueError(f"ambiguous alphabet {text!r}: letter {s!r} has no text of its own")
    return letters


class FactorPoset(_LengthGraded):
    """Factor order on words over a fixed ordered alphabet (check_alphabet)."""

    def __init__(self, alphabet: tuple[str, ...] = ("a", "b"), max_top: int | None = 12):
        vars(self).update(alphabet=check_alphabet(alphabet), max_top=max_top)

    kind = "factor"
    limit_name = "factor-order"
    zero = "0"
    min_rank = 0
    minimum = ()

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

    def mobius_closed_form(self, bottom, top) -> int:
        return closed_form.mobius_factor(bottom, top)

    jump = staticmethod(morse._jump_factor)  # the fast law's exterior jump

    def elements_of_rank(self, d: int) -> Iterator:
        return itertools.product(self.alphabet, repeat=d)


def interval_elements(poset, bottom, top) -> frozenset:
    """Every z with bottom <= z <= top, read off the down-set of the top."""
    poset.check_pair(bottom, top)
    if bottom == poset.minimum:  # every element lies above it
        return poset.down_set(top)
    return frozenset(e for e in poset.down_set(top) if poset.leq(bottom, e))


class IntervalStructure(NamedTuple):
    """An interval as a finite poset: its elements sorted by (rank, text),
    so the bottom is first and the top last, and the elements above each
    element: ups[i] holds the indices of the elements strictly above
    element i."""

    elements: tuple
    ups: tuple[frozenset, ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    def above(self, i: int) -> IntervalStructure:
        """The structure of [elements[i], top], cut from this one: the
        elements at or above element i, in their order, renumbered."""
        keep = sorted(self.ups[i] | {i})
        at = {j: k for k, j in enumerate(keep)}
        return IntervalStructure(tuple(self.elements[j] for j in keep),
                                 tuple(frozenset(at[z] for z in self.ups[j]) for j in keep))


def interval_structure(poset, bottom, top) -> IntervalStructure:
    """Enumerate [bottom, top] once, with the elements above each element
    read off the memoized down-set of each element in one pass: j goes
    into ups[i] for each element i of down_set(elements[j]) inside the
    interval, other than j."""
    elems = tuple(sorted(interval_elements(poset, bottom, top),
                         key=lambda e: (poset.rank(e), poset.format(e))))
    index = {e: i for i, e in enumerate(elems)}
    ups: list[list[int]] = [[] for _ in elems]
    for j, y in enumerate(elems):
        for z in poset.down_set(y):
            i = index.get(z)
            if i is not None and i != j:
                ups[i].append(j)
    return IntervalStructure(elems, tuple(map(frozenset, ups)))


def mobius_bruteforce(poset, interval: IntervalStructure) -> tuple[int, ...]:
    """
    Mobius function to the top by the dual defining recursion, for every
    element at once: mu(top, top) = 1 and mu(x, top) = -sum of mu(z, top)
    over x < z <= top.  Entry i is mu(elements[i], top).
    """
    top = interval.size - 1
    mu = [0] * top + [1]
    for x in range(top - 1, -1, -1):
        mu[x] = -sum(mu[z] for z in interval.ups[x])
    return tuple(mu)


def euler_characteristic(poset, interval: IntervalStructure) -> tuple:
    """
    Reduced Euler characteristic of the order complex of every open
    interval (x, top), the alternating f-vector sum minus one, by counting
    chains, not listing them.  Entry i is that of (elements[i], top).  At
    rank gap one the complex is empty and the entry is -1 (degenerate but
    equal to the Mobius value there too); the open interval of the top
    alone is undefined, and its entry is None.

    The row of x counts the chains x < z_1 < ... < z_k < top by k (past
    entry 0, the f-vector of (x, top)), held as one int with B bits per
    entry: packed[x] = 1 + (sum of packed[z] over z above x, top
    excluded) << B.  A chain holds at most one element per rank, so the
    product of (elements of rank r, plus one) over the ranks bounds every
    entry and every row's alternating sum, and B is one bit more than that
    bound takes.  As 2**B is -1 mod 2**B + 1, packed[x] mod 2**B + 1,
    centred, is that alternating sum, and the entry is its negative.
    """
    ranks = collections.Counter(map(poset.rank, interval.elements))
    bits = math.prod(n + 1 for n in ranks.values()).bit_length() + 1
    mod, top = (1 << bits) + 1, interval.size - 1
    packed = [0] * interval.size  # the top's entry stays 0, so it adds nothing
    chi: list[int | None] = [None] * interval.size
    for x in range(top - 1, -1, -1):
        packed[x] = row = 1 + (sum(packed[z] for z in interval.ups[x]) << bits)
        alternating = row % mod
        chi[x] = mod - alternating if alternating > mod >> 1 else -alternating
    return tuple(chi)


class MobiusCache:
    """
    Cross-run record of brute-force Mobius values keyed by (poset tag,
    bottom text, top text), one record per line: tag TAB bottom TAB top TAB
    mu.  check compares a computed value with the record, one lookup, and
    appends it when there is none; a held record is never rewritten.
    Opening it only reads the file; the first put opens it for appending.
    Writes go to the buffered handle, each record in one write call, and
    close flushes them; one thread holds the cache, as a sweep folds its
    records in one.
    A final line without its newline is a record torn by an interrupted
    append: loading skips it, and the first append cuts it off so that the
    new record starts on a line of its own.  A path that cannot serve as
    the file raises ValueError before anything is computed: an empty path,
    a directory or a path that ends in a separator, a missing directory,
    or missing permissions.
    """

    def __init__(self, path: str):
        if not path:
            raise ValueError("cache file path is empty")
        self.path = path
        self._data: dict[tuple[str, str, str], int] = {}
        self._handle = None
        self._clean_size: int | None = None
        parent = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path) or not os.path.basename(path):
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
        if key in self._data:
            return
        self._data[key] = value
        if self._handle is None:
            if self._clean_size is not None:
                os.truncate(self.path, self._clean_size)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(f"{tag}\t{bottom}\t{top}\t{value}\n")

    def check(self, tag: str, bottom: str, top: str, value: int) -> str | None:
        """Append value unless a record is held; name a held record that
        differs."""
        held = self.get(tag, bottom, top)
        if held is None:
            self.put(tag, bottom, top, value)
        elif held != value:
            return f"cache: {self.path} holds {held}, brute force gives {value}"
        return None

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
