"""
Maximal chains of an interval, their labels, and the lexicographic order
the skipped-interval machinery relies on.

Every cover in either poset deletes the first or last letter of a
contiguous window of the top element, so a maximal chain is recorded as a
shrinking window plus the sequence of deleted top positions (its labels).
The label sequence identifies the chain within its interval, and sorting
chains by it produces a poset lexicographic order: once two chains part
ways, everything sharing the first one's prefix comes before everything
sharing the second one's.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .posets import IncomparableError


class StepClass(Enum):
    ASCENT = "ascent"
    WEAK_DESCENT = "weak_descent"
    STRONG_DESCENT = "strong_descent"


@dataclass(frozen=True)
class MaximalChain:
    """A chain from an interval's top down to its bottom.

    elements[i] is the poset element after i covers, windows[i] the
    half-open span of the top it occupies, labels[i] the top position
    deleted by cover i+1.  Labels never repeat along a chain.
    """

    elements: tuple
    windows: tuple[tuple[int, int], ...]
    labels: tuple[int, ...]

    @property
    def steps(self) -> int:
        return len(self.labels)

    def open_indices(self) -> range:
        """Indices of the elements strictly between top and bottom."""
        return range(1, len(self.labels))


def chain_id_text(chain: MaximalChain) -> str:
    return "-".join(str(l) for l in chain.labels)


def maximal_chains(poset, bottom, top) -> list[MaximalChain]:
    """
    All maximal chains of [bottom, top], sorted by label sequence.

    Each step follows one of poset.down_covers: a cover at position one
    deletes the first letter of the window, any other the last.  A path is
    kept when it reaches the bottom's rank at the bottom itself, so the
    listing reads only the cover rule; the order relation serves just to
    reject an incomparable pair.
    """
    poset.check_top(top)
    if not poset.leq(bottom, top):
        raise IncomparableError(
            f"{poset.format(bottom)!r} is not below {poset.format(top)!r}")
    target = poset.rank(bottom)
    found: list[MaximalChain] = []
    elems = [top]
    windows = [(0, poset.rank(top))]
    labels: list[int] = []

    def descend() -> None:
        lo, hi = windows[-1]
        if hi - lo == target:
            if elems[-1] == bottom:
                found.append(MaximalChain(tuple(elems), tuple(windows), tuple(labels)))
            return
        for child, pos in poset.down_covers(elems[-1]):
            elems.append(child)
            windows.append((lo + 1, hi) if pos == 1 else (lo, hi - 1))
            labels.append(lo + pos)
            descend()
            elems.pop()
            windows.pop()
            labels.pop()

    descend()
    found.sort(key=lambda c: c.labels)
    return found


def classify_steps(chain: MaximalChain) -> tuple[StepClass, ...]:
    """
    Classify each interior element by its surrounding labels: ascent when
    the labels rise, weak descent when they drop by exactly one, strong
    descent when they drop further.
    """
    ls = chain.labels
    out = []
    for i in range(1, len(ls)):
        a, b = ls[i - 1], ls[i]
        if a < b:
            out.append(StepClass.ASCENT)
        elif a == b + 1:
            out.append(StepClass.WEAK_DESCENT)
        else:
            out.append(StepClass.STRONG_DESCENT)
    return tuple(out)


def is_poset_lex(order: Sequence[MaximalChain] | Iterable[MaximalChain]) -> bool:
    """
    Whether an ordering of one interval's maximal chains is poset
    lexicographic: whenever C comes before D and they first differ after a
    common prefix, every chain sharing C's prefix one step past the split
    comes before every chain sharing D's.  For distinct chains that holds
    exactly when the chains sharing each label prefix, the empty one
    included, stand at consecutive positions; a repeated chain admits no
    consistent order.
    """
    last: dict[tuple[int, ...], int] = {}
    for pos, chain in enumerate(order):
        labels = chain.labels
        if labels in last:
            return False
        for t in range(len(labels) + 1):
            prefix = labels[:t]
            if last.get(prefix, pos - 1) < pos - 1:
                return False
            last[prefix] = pos
    return True
