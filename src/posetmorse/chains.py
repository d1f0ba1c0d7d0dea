"""
Maximal chains of an interval, their labels, and the lexicographic order
the skipped-interval machinery relies on.

Every cover in either poset deletes the first or last letter of a
contiguous window of the top element, so a maximal chain is recorded as a
shrinking window plus the sequence of deleted top positions (its labels).
The label sequence identifies the chain within its interval, and ordering
chains by it gives a poset lexicographic order: once two chains part
ways, everything sharing the first one's prefix comes before everything
sharing the second one's.  Chains are listed per top by one depth-first
walk that takes covers in increasing label order, so every bottom's
chains come out in that order with no sort.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence


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
    All maximal chains of [bottom, top], sorted by label sequence: the
    one-bottom case of walk_chains.  The order relation serves just to
    reject an incomparable pair.
    """
    poset.check_pair(bottom, top)
    return walk_chains(poset, top, (bottom,))[bottom][0]


def walk_chains(poset, top, bottoms) -> dict:
    """
    The maximal chains of [b, top] for every b in bottoms, by one
    depth-first walk from the top down to the lowest rank asked for.  It
    reads only the cover rule, taking poset.down_covers last first: a cover
    at position one deletes the first letter of the window, any other the
    last, so labels rise.  Every path from the top to x is a maximal chain
    of [x, top], and each bottom's chains arrive sorted by label sequence;
    a chain is built only where a path reaches an asked bottom.

    Maps each bottom to its chains and the walk's node ids of each chain's
    elements.  A node id names a path from the top, so ids[i] is an id of
    the prefix elements[:i + 1] across the whole walk, and each bottom's
    chains through one node stand together, as the MSI pass needs.
    """
    found = {b: ([], []) for b in bottoms}
    floor = min((poset.rank(b) for b in bottoms), default=poset.rank(top))
    count = itertools.count(1)

    def descend(elems, windows, labels, ids) -> None:
        at = found.get(elems[-1])
        if at is not None:
            at[0].append(MaximalChain(elems, windows, labels))
            at[1].append(ids)
        lo, hi = windows[-1]
        if hi - lo > floor:
            for child, pos in reversed(poset.down_covers(elems[-1])):
                descend(elems + (child,),
                        windows + (((lo + 1, hi) if pos == 1 else (lo, hi - 1)),),
                        labels + (lo + pos,), ids + (next(count),))

    descend((top,), ((0, poset.rank(top)),), (), (0,))
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
