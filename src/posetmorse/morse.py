"""
Discrete Morse theory on the order complex of an open interval, driven by
the lexicographic order on maximal chains.

With the chains of [bottom, top] listed in poset lexicographic order, a
chain interval of C is a contiguous run of its interior elements.  The run
is skipped when deleting it from C leaves a subset of some earlier chain
(element sets are what get compared).  The interval is graded, so every
chain holds one element per rank, and deleting (i, j) from C leaves a
subset of D exactly when C and D agree outside i..j: the run is skipped by
D iff it contains D's difference block, the span from the first to the
last index where their elements differ.  The minimal skipped intervals of
C are therefore its containment-minimal difference blocks.

The chains of every bottom under a top come from one walk from the top
(chains.walk), already in that order, and MorseFold finds their MSIs as
the walk descends, without comparing chains pairwise, at one list read by
node index and one bisection per walk node; a node's MSIs are its
parent's plus at most one span.  The pairwise functions below are the
definition the fold is tested against.  The MSIs are resolved into a
disjoint family in one left-to-right pass that truncates each member's
start past everything already chosen; C is critical when the family
covers all of C's interior, and contributes (-1)^(size-1) to the Mobius
function.  Zero critical chains mean a contractible complex, one critical
chain a sphere of the matching dimension.

Every walk node ends one chain, its parent's plus one step, so MorseFold
also carries the family and its covered count down the path: the new
span, if any, comes last in the pass and adds at most one member.  Each
element of the walk's node table keeps only the dimensions of its
critical chains, in a list by node, which give the Mobius value and the
homotopy type; no chain is held.  morse_report
alone lists the chains with their data, for the commands that print
them.  disjoint_family and the fast laws below stay the per-chain
definitions the fold is tested against.

A family only grows down the walk, each new member past the last, so a
node with an uncovered index below its last member's end has no critical
chain under it.  The routes alone (morse_summary) skip such a dead
node's subtree; listings and laws walk it all.

A chain interval (i, j) is stored by the closed index range of the chain
elements it holds, 1 <= i <= j <= steps-1.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from functools import lru_cache
from typing import NamedTuple

from .chains import MaximalChain, Path, node_table, walk
from .perms import exterior, interior, leq_consecutive
from .words import inner_word, is_factor, outer_word

Span = tuple[int, int]


def skipped_intervals(chain: MaximalChain, earlier: list[MaximalChain]) -> list[Span]:
    """
    Every contiguous run of interior elements whose removal leaves a subset
    of some earlier chain, ordered by start then end.
    """
    n = chain.steps
    if n < 2 or not earlier:
        return []
    full = set(chain.elements)
    earlier_sets = [frozenset(c.elements) for c in earlier]
    out = []
    for i in range(1, n):
        for j in range(i, n):
            rest = full.difference(chain.elements[i:j + 1])
            if any(rest <= es for es in earlier_sets):
                out.append((i, j))
    return out


def minimal_skipped_intervals(chain: MaximalChain,
                              earlier: list[MaximalChain]) -> list[Span]:
    """
    The skipped intervals that properly contain no other skipped interval:
    the containment-minimal difference blocks of chain against the earlier
    chains, sorted.
    """
    mine = chain.elements
    blocks = set()
    for other in earlier:
        theirs = other.elements
        p, q = 1, len(mine) - 2  # every chain shares the top and the bottom
        while theirs[p] == mine[p]:
            p += 1
        while theirs[q] == mine[q]:
            q -= 1
        blocks.add((p, q))
    return sorted((i, j) for i, j in blocks
                  if not any(i <= p and q <= j and (p, q) != (i, j)
                             for p, q in blocks))


def disjoint_family(msis: list[Span]) -> list[Span]:
    """
    Resolve minimal skipped intervals into a disjoint family.  The input
    must be containment-free, so sorted it rises in both ends.  Each
    interval in turn is truncated from the left to start past the last
    member chosen, unless it starts no later than one past the end of the
    member before that: its truncation would then properly contain the
    last member, and it is dropped.  Truncating from the left keeps every
    member contiguous.

    >>> disjoint_family([(1, 2), (2, 3), (3, 4), (5, 5)])
    [(1, 2), (3, 3), (5, 5)]
    """
    family, ends = [], [-1, 0]
    for a, b in sorted(msis):
        if a <= ends[-2] + 1:
            continue
        family.append((max(a, ends[-1] + 1), b))
        ends.append(b)
    return family


def _exterior_jump(rho, leq, outer, inner):
    """The fast law's part read off rho alone, memoized per kind: (x, |rho| - |x|)
    for x = outer(rho), or (None, 0) when |rho| < 3 or leq(x, inner(rho))."""
    x = outer(rho) if len(rho) >= 3 else None
    return (None, 0) if x is None or leq(x, inner(rho)) else (x, len(rho) - len(x))


@lru_cache(maxsize=8192)  # every pattern of length <= 7
def _jump_pattern(rho):
    return _exterior_jump(rho, leq_consecutive, exterior, interior)


@lru_cache(maxsize=8192)  # every word over {a,b} of length <= 12
def _jump_factor(w):
    return _exterior_jump(w, is_factor, outer_word, inner_word)


def _msis_fast(chain: MaximalChain, jump) -> list[Span]:
    """
    Minimal skipped intervals of a chain without looking at other chains:
    singletons where a descent in the labels is followed by deleting the
    first letter of the window, plus runs from an element down to its
    exterior, as jump gives it, when the labels across the run strictly
    decrease (a lone label does not count as decreasing).
    """
    labels, elements = chain.labels, chain.elements
    n = len(labels)
    found: set[Span] = set()
    for i in range(1, n):
        if labels[i - 1] > labels[i] == chain.windows[i][0] + 1:
            found.add((i, i))
    for i in range(0, n - 1):
        x, k = jump(elements[i])
        if 2 <= k <= n - i and elements[i + k] == x:
            run = labels[i:i + k]
            if all(run[t] > run[t + 1] for t in range(k - 1)):
                found.add((i + 1, i + k - 1))
    return sorted(found)


def msis_fast_pattern(chain: MaximalChain) -> list[Span]:
    """The fast law on a pattern chain; its singletons are the strong descents."""
    return _msis_fast(chain, _jump_pattern)


def signed_count(rank_gap: int, dims) -> int:
    """The Mobius value of the Morse route: the signed count of the
    critical chains, of dimensions dims; [x, x] is a single element with
    no machinery to run, and 1."""
    return 1 if rank_gap == 0 else sum(-1 if d % 2 else 1 for d in dims)


class ChainMorseData(NamedTuple):
    chain: MaximalChain
    msis: tuple[Span, ...]
    family: tuple[Span, ...]
    critical: bool
    dim: int | None


class MorseReport(NamedTuple):
    """The Morse route on [bottom, top]: the dimension of each critical
    chain in chain order, and the chains themselves only where
    morse_report lists them."""

    bottom: object
    top: object
    rank_gap: int
    critical_dims: tuple[int, ...]
    chains: tuple[ChainMorseData, ...] | None = None

    @property
    def critical_count(self) -> int:
        return len(self.critical_dims)

    @property
    def mobius(self) -> int:
        return signed_count(self.rank_gap, self.critical_dims)

    @property
    def homotopy(self) -> str | None:
        """The homotopy type of the open interval as text: contractible,
        sphere(d), or cells[d1,d2,...] with the dims sorted; None when the
        rank gap is below two."""
        dims = self.critical_dims
        if self.rank_gap < 2:
            return None
        if not dims:
            return "contractible"
        if len(dims) == 1:
            return f"sphere({dims[0]})"
        return "cells[" + ",".join(map(str, sorted(dims))) + "]"

    def homotopy_type(self) -> str:
        """The homotopy type; a rank gap below two has none."""
        homotopy = self.homotopy
        if homotopy is None:
            raise ValueError("degenerate interval: rank gap below two")
        return homotopy


class MorseFold:
    """
    The Morse route folded down one walk (chains.walk) over the node
    table it is given.  visit(d) finds the MSIs and the disjoint family of
    the chain the node at depth d ends from its parent's and the path's
    newest step, then, when the chain is critical, tallies its dimension
    under its node: tallies[i] holds the dimensions of the critical chains
    of [table[i], top], in chain order.

    The MSIs come from the walk's preorder.  For a path e[0..d], (i, j)
    with j = d - 1 is skipped iff the walk already reached e[d] inside the
    subtree of the path's node at depth i - 1: the walk went on from that
    visit as this path goes on, so an earlier chain agrees with this one
    outside i..j.  A subtree is a run of preorder indices, so that holds
    iff the latest visit of e[d] is at or after the ancestor's index, and
    the largest skipped start S(j) is one bisection over the ancestors'
    indices, which the walk's preorder leaves in seen[0..d-1].  Skipped
    spans are closed upward under containment, so (S(j), j) is minimal
    iff S(j) > S(j - 1), which is the start of the path's last MSI, or 0
    with none: msis[d], the MSIs of the chain at depth d, are its parent's
    plus at most one span.

    family[d] is the disjoint family of that chain and covered[d] the
    number of interior indices it covers.  The MSIs rise in both ends and
    a new one comes after all of them, so disjoint_family's left-to-right
    pass takes it last: the family gains at most one member, truncated
    past the last one.  The chain is critical when its family covers the
    whole interior, covered[d] == d - 1; the empty chain of [x, x] is not,
    since 0 != -1.

    pruning_visit(d) runs visit(d) and returns true at a dead node, where
    covered[d] is below the end of the family's last member, so no chain
    under it is critical.  Later nodes read only latest from the subtree,
    a run of preorder indices holding none of their ancestors, so every
    element under the node takes the node's index there: later bisections
    answer as after the whole subtree.  The node's down-set is mapped
    through the table, so the writes land only on its elements.
    """

    def __init__(self, poset, top, table):
        self.poset, self.top = poset, top
        self.path = path = Path(poset, top, table)
        n = poset.rank(top)
        self.msis = msis = [()] * (n + 1)
        self.family = family = [()] * (n + 1)
        self.covered = covered = [0] * (n + 1)
        self.tallies = tallies = [[] for _ in table]
        nodes, index = path.nodes, path.index
        latest = [-1] * len(table)  # node -> preorder index of its latest visit
        seen = [0] * (n + 1)  # seen[k]: preorder index of the path's node at depth k
        order = itertools.count()

        def visit(d) -> None:
            node = nodes[d]
            if d > 1:
                m = msis[d - 1]
                s = bisect_right(seen, latest[node], 0, d - 1)
                if s > (m[-1][0] if m else 0):
                    j = d - 1
                    msis[d] = m + ((s, j),)
                    fam, count = family[d - 1], covered[d - 1]
                    k = len(fam)
                    # dropped when it starts no later than one past the end
                    # of the member before the last one (-1 and 0 stand in)
                    if s > (fam[-2][1] if k > 1 else k - 1) + 1:
                        a = max(s, fam[-1][1] + 1) if k else s
                        fam, count = fam + ((a, j),), count + j - a + 1
                    family[d], covered[d] = fam, count
                else:
                    msis[d], family[d], covered[d] = m, family[d - 1], covered[d - 1]
            latest[node] = seen[d] = next(order)
            if covered[d] == d - 1:
                tallies[node].append(len(family[d]) - 1)

        def pruning_visit(d) -> bool:
            visit(d)
            fam = family[d]
            if not fam or covered[d] >= fam[-1][1]:
                return False
            at = seen[d]
            for z in poset.down_set(table[nodes[d]]):
                i = index.get(z)  # None below the floor
                if i is not None:
                    latest[i] = at
            return True

        self.visit, self.pruning_visit = visit, pruning_visit

    def chain_data(self, d: int) -> ChainMorseData:
        """The chain the node at depth d ends, with its Morse data."""
        family = self.family[d]
        critical = self.covered[d] == d - 1
        return ChainMorseData(self.path.chain(d), self.msis[d], family,
                              critical, len(family) - 1 if critical else None)

    def report(self, bottom) -> MorseReport:
        """The MorseReport of an element of the table, once the walk is done."""
        rank = self.poset.rank
        return MorseReport(bottom, self.top, rank(self.top) - rank(bottom),
                           tuple(self.tallies[self.path.index[bottom]]))


def morse_summary(poset, bottom, top) -> MorseReport:
    """The Morse report of a checked pair, from one walk that lists no
    chain and skips the subtrees of dead nodes: the one pruned walk, which
    every route command reads (crosscheck.evaluate for mobius)."""
    poset.check_pair(bottom, top)
    fold = MorseFold(poset, top, node_table(poset, bottom, top))
    walk(fold.path, fold.pruning_visit)
    return fold.report(bottom)


def morse_report(poset, bottom, top) -> MorseReport:
    """
    The Morse report of a checked pair with its chains listed: each one's
    MSIs, disjoint family, criticality and dimension.

    >>> from .posets import FactorPoset
    >>> report = morse_report(FactorPoset(), (), tuple("abba"))
    >>> [list(d.msis) for d in report.chains]
    [[], [(3, 3)], [(2, 2)], [(1, 1)], [(2, 2)], [(1, 2), (3, 3)]]
    """
    poset.check_pair(bottom, top)
    fold = MorseFold(poset, top, node_table(poset, bottom, top))
    nodes, at, listed = fold.path.nodes, fold.path.index[bottom], []

    def visit(d) -> None:
        fold.visit(d)
        if nodes[d] == at:
            listed.append(fold.chain_data(d))

    walk(fold.path, visit)
    return fold.report(bottom)._replace(chains=tuple(listed))


def mobius_morse(poset, bottom, top) -> int:
    """Mobius value as the signed count of critical chains."""
    return morse_summary(poset, bottom, top).mobius


def homotopy_type(poset, bottom, top) -> str:
    """
    Homotopy type of the open interval; needs rank gap at least two
    (shorter intervals have an empty or undefined complex).
    """
    return morse_summary(poset, bottom, top).homotopy_type()
