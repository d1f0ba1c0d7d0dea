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
chains come out in that order with no sort, and the same walk finds each
chain's minimal skipped intervals.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
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

    Maps each bottom to its chains and their minimal skipped intervals
    against the bottom's earlier chains, found as the walk descends.  For
    a path e[0..d], (i, j) with j = d - 1 is skipped iff the walk already
    reached e[d] inside the subtree of the path's node at depth i - 1: the
    walk went on from that visit as this path goes on, so an earlier chain
    agrees with this one outside i..j.  A subtree is a run of preorder indices, so that holds iff the
    latest visit of e[d] is at or after the ancestor's index, and the
    largest skipped start S(j) is one bisection over the path's indices.
    Skipped spans are closed upward under containment, so (S(j), j) is
    minimal iff S(j) > S(j - 1): a node's MSIs are its parent's plus at
    most one span, in O(log n) per node.
    """
    found = {b: ([], []) for b in bottoms}
    floor = min((poset.rank(b) for b in bottoms), default=poset.rank(top))
    count = itertools.count()
    latest: dict = {}  # element -> preorder index of its latest visit
    path: list[int] = []  # preorder indices of the current node's ancestors

    def descend(elems, windows, labels, msis, start) -> None:
        e, j = elems[-1], len(labels) - 1
        if j > 0:
            skipped = bisect_right(path, latest.get(e, -1), 0, j)
            if skipped > start:
                msis, start = msis + ((skipped, j),), skipped
        latest[e] = here = next(count)
        at = found.get(e)
        if at is not None:
            at[0].append(MaximalChain(elems, windows, labels))
            at[1].append(msis)
        lo, hi = windows[-1]
        if hi - lo > floor:
            path.append(here)
            for child, pos in reversed(poset.down_covers(e)):
                descend(elems + (child,),
                        windows + (((lo + 1, hi) if pos == 1 else (lo, hi - 1)),),
                        labels + (lo + pos,), msis, start)
            path.pop()

    descend((top,), ((0, poset.rank(top)),), (), (), 0)
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
