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
(chains.walk_chains), already in that order, and the walk finds their MSIs
as it descends without comparing chains pairwise: (i, j) is skipped iff
the walk reached element j+1 of the chain earlier, inside the subtree of
its node at index i-1.  That costs one dict lookup and one bisection per
walk node, and a node's MSIs are its parent's plus at most one span.  The
pairwise functions below are the definition, which the walk is tested
against.  The MSIs are resolved into a disjoint family in one
left-to-right pass that truncates each member's start past everything
already chosen; C is critical when the family covers all of C's interior,
and contributes (-1)^(size-1) to the Mobius function.  Zero critical
chains mean a contractible complex, one critical chain a sphere of the
matching dimension.

A chain interval (i, j) is stored by the closed index range of the chain
elements it holds, 1 <= i <= j <= steps-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .chains import MaximalChain, walk_chains
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


def msis_fast_factor(chain: MaximalChain) -> list[Span]:
    """The fast law on a factor-order chain."""
    return _msis_fast(chain, _jump_factor)


@dataclass(frozen=True)
class HomotopyType:
    """Homotopy type of the open interval's order complex."""

    kind: str  # "contractible" | "sphere" | "cells"
    dims: tuple[int, ...] = ()

    def __str__(self) -> str:
        if self.kind == "contractible":
            return "contractible"
        if self.kind == "sphere":
            return f"sphere({self.dims[0]})"
        return "cells[" + ",".join(str(d) for d in self.dims) + "]"


@dataclass(frozen=True)
class ChainMorseData:
    chain: MaximalChain
    msis: tuple[Span, ...]
    family: tuple[Span, ...]
    critical: bool
    dim: int | None


@dataclass(frozen=True)
class MorseReport:
    bottom: object
    top: object
    rank_gap: int
    chains: tuple[ChainMorseData, ...]
    mobius: int
    critical_count: int
    homotopy: HomotopyType | None  # None when the rank gap is below two

    def homotopy_type(self) -> HomotopyType:
        """The homotopy type; a rank gap below two has none."""
        if self.homotopy is None:
            raise ValueError("degenerate interval: rank gap below two")
        return self.homotopy


def morse_reports(poset, top, bottoms) -> dict:
    """
    The Morse report of [b, top] for every b in bottoms, from one walk that
    also finds every chain's minimal skipped intervals.

    >>> from .posets import FactorPoset
    >>> reports = morse_reports(FactorPoset(), tuple("abba"), [()])
    >>> [list(d.msis) for d in reports[()].chains]
    [[], [(3, 3)], [(2, 2)], [(1, 1)], [(2, 2)], [(1, 2), (3, 3)]]
    """
    return {bottom: _report(poset, bottom, top, chains, msis)
            for bottom, (chains, msis) in walk_chains(poset, top, bottoms).items()}


def morse_report(poset, bottom, top) -> MorseReport:
    """Chains, skipped-interval data, Mobius value, and homotopy type."""
    poset.check_pair(bottom, top)
    return morse_reports(poset, top, (bottom,))[bottom]


def _report(poset, bottom, top, chains, all_msis) -> MorseReport:
    gap = poset.rank(top) - poset.rank(bottom)
    data = []
    for chain, msis in zip(chains, all_msis):
        if msis:  # critical when the family covers the whole interior
            family = disjoint_family(msis)
            critical = {k for a, b in family for k in range(a, b + 1)} == set(chain.open_indices())
        else:  # critical when the interior is empty; [x, x] has none
            family, critical = [], gap > 0 and chain.steps < 2
        data.append(ChainMorseData(chain, tuple(msis), tuple(family), critical,
                                   len(family) - 1 if critical else None))
    critical = [d for d in data if d.critical]
    # [x, x] is a single element: no machinery to run
    mobius = 1 if gap == 0 else sum(-1 if d.dim % 2 else 1 for d in critical)
    if gap < 2:
        homotopy = None
    elif not critical:
        homotopy = HomotopyType("contractible")
    elif len(critical) == 1:
        homotopy = HomotopyType("sphere", (critical[0].dim,))
    else:
        homotopy = HomotopyType("cells", tuple(sorted(d.dim for d in critical)))
    return MorseReport(
        bottom=bottom,
        top=top,
        rank_gap=gap,
        chains=tuple(data),
        mobius=mobius,
        critical_count=len(critical),
        homotopy=homotopy,
    )


def mobius_morse(poset, bottom, top) -> int:
    """Mobius value as the signed count of critical chains."""
    return morse_report(poset, bottom, top).mobius


def homotopy_type(poset, bottom, top) -> HomotopyType:
    """
    Homotopy type of the open interval; needs rank gap at least two
    (shorter intervals have an empty or undefined complex).
    """
    return morse_report(poset, bottom, top).homotopy_type()
