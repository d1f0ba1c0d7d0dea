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

Every node of the walk ends one chain, the path from the top to it, and a
child's chain is its parent's plus one step.  The walk keeps only that
path (Path, one slot per depth) and calls a visitor at every node in
preorder, so a per-chain quantity is folded down the path as an update of
the parent's value (morse.MorseFold, crosscheck.LawFold).  A node is an
index into the walk's node table, the elements it can reach, and the
table holds each element's covers, read from the cover rule once per
element, so the walk and its folds keep their state in lists read by
node index, not in dicts keyed by element.  A chain object is built only
where a listing asks for one (maximal_chains, Path.chain).
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple


class StepClass(Enum):
    ASCENT = "ascent"
    WEAK_DESCENT = "weak_descent"
    STRONG_DESCENT = "strong_descent"


class MaximalChain(NamedTuple):
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


def maximal_chains(poset, bottom, top) -> list[MaximalChain]:
    """
    All maximal chains of [bottom, top], sorted by label sequence, from one
    walk that builds a chain only where it reaches the bottom.  The order
    relation serves just to reject an incomparable pair.
    """
    poset.check_pair(bottom, top)
    path, found = Path(poset, top, node_table(poset, bottom, top)), []
    nodes, at = path.nodes, path.index[bottom]

    def visit(d) -> None:
        if nodes[d] == at:
            found.append(path.chain(d))

    walk(path, visit)
    return found


def node_table(poset, bottom, top) -> tuple:
    """The node table of a walk for [bottom, top] alone: the top's
    down-set at ranks at or above the bottom's."""
    floor, rank = poset.rank(bottom), poset.rank
    return tuple(e for e in poset.down_set(top) if rank(e) >= floor)


class Path:
    """
    A walk's node table and its current path from the top.  The table
    lists the elements the walk can reach, the top's down-set at ranks at
    or above the lowest one it holds (the floor), and a node is an index
    into it: index maps an element to its node, and covers[i] holds the
    covers of element i as (child node, first) pairs, first when the
    cover's position is one, read from poset.down_covers once for each
    element above the floor and empty at the floor.  After k covers the
    path stands at node nodes[k] in windows[k], and labels[k - 1] is the
    label of cover k.  The walk writes a child's slots over the parent's
    next ones, so slots past the current depth are stale.
    """

    def __init__(self, poset, top, table):
        self.table = table
        self.index = index = {e: i for i, e in enumerate(table)}
        ranks = list(map(poset.rank, table))
        floor, down_covers = min(ranks), poset.down_covers
        self.covers = covers = []
        for e, r in zip(table, ranks):
            pairs = []
            if r > floor:
                for child, pos in down_covers(e):
                    pairs.append((index[child], pos == 1))
            covers.append(pairs)
        n = poset.rank(top)
        self.nodes = [index[top]] * (n + 1)
        self.windows = [(0, n)] * (n + 1)
        self.labels = [0] * n

    def chain(self, d: int) -> MaximalChain:
        """The chain from the top to the path's element at depth d."""
        table = self.table
        return MaximalChain(tuple([table[i] for i in self.nodes[:d + 1]]),
                            tuple(self.windows[:d + 1]), tuple(self.labels[:d]))


def walk(path: Path, visit) -> None:
    """
    One depth-first walk from the top down to the floor of its node table,
    calling visit(d) at every node once the path's slots up to depth d
    hold it: every path from the top to x is a maximal chain of [x, top],
    so every node ends one chain.  It reads only the table's covers,
    taking them last first, and of a cover's position only whether it is
    one: a cover at position one deletes the first letter of the window
    and is labelled by that letter's top position, lo + 1; any other
    deletes the last, labelled hi.  Each label is thus the letter its
    window drops, labels rise and each bottom's chains arrive sorted by
    label sequence.

    Nodes are visited in preorder, each before its children, so a subtree
    is one run of visits, and a visitor that writes slot d at depth d
    holds the current node's ancestors in slots 0..d-1 with no stack of
    its own.  A visitor that returns true skips the node's children
    (morse.MorseFold.pruning_visit).
    """
    nodes, windows, labels, covers = path.nodes, path.windows, path.labels, path.covers
    stack = [(0, nodes[0], windows[0], 0)]  # not the call stack: tops of any length
    while stack:
        d, node, window, label = stack.pop()
        nodes[d], windows[d] = node, window
        if d:
            labels[d - 1] = label
        if visit(d):
            continue
        lo, hi = window
        for child, first in covers[node]:  # pushed in order, so the last cover pops first
            stack.append((d + 1, child, (lo + 1, hi), lo + 1) if first
                         else (d + 1, child, (lo, hi - 1), hi))


def classify_steps(chain: MaximalChain) -> tuple[StepClass, ...]:
    """Classify each interior element by its surrounding labels a and b:
    an ascent when they rise, a weak descent when they drop by exactly
    one, a strong descent when they drop further."""
    ls = chain.labels
    return tuple(StepClass.ASCENT if a < b else
                 StepClass.WEAK_DESCENT if a == b + 1 else StepClass.STRONG_DESCENT
                 for a, b in zip(ls, ls[1:]))


def is_poset_lex(order: Iterable[tuple[int, ...]]) -> bool:
    """
    Whether an ordering of one interval's maximal chains, given by their
    label tuples, is poset lexicographic: whenever C comes before D and
    they first differ after a common prefix, every chain sharing C's prefix
    one step past the split comes before every chain sharing D's.  For
    distinct chains that holds exactly when the chains sharing each label
    prefix, the empty one included, stand at consecutive positions; a
    repeated chain admits no consistent order.  No sweep calls it (see
    crosscheck.LawFold): it is the definition the tests read, and
    perfbench/tracing.py wraps it by name.
    """
    last: dict[tuple[int, ...], int] = {}
    for pos, labels in enumerate(order):
        if labels in last:
            return False
        for t in range(len(labels) + 1):
            prefix = labels[:t]
            if last.get(prefix, pos - 1) < pos - 1:
                return False
            last[prefix] = pos
    return True
