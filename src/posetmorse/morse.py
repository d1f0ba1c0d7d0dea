"""
Discrete Morse theory on the order complex of an open interval, driven by
the lexicographic order on maximal chains.

With the chains of [bottom, top] listed in poset lexicographic order, a
chain interval of C is a contiguous run of its interior elements.  The run
is skipped when deleting it from C leaves a subset of some earlier chain
(element sets are what get compared).  The containment-minimal skipped
intervals of C are resolved, in order of first encounter, into a disjoint
family by truncating away everything already covered; C is critical when
the family covers all of C's interior, and contributes (-1)^(size-1) to
the Mobius function.  Zero critical chains mean a contractible complex,
one critical chain a sphere of the matching dimension.

A chain interval (i, j) is stored by the closed index range of the chain
elements it holds, 1 <= i <= j <= steps-1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import MaximalChain, maximal_chains
from .perms import exterior, interior, leq_consecutive

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
    """The skipped intervals that properly contain no other skipped interval."""
    skipped = skipped_intervals(chain, earlier)
    out = []
    for i, j in skipped:
        if any((p, q) != (i, j) and i <= p and q <= j for p, q in skipped):
            continue
        out.append((i, j))
    return out


def disjoint_family(msis: list[Span]) -> list[Span]:
    """
    Resolve overlapping minimal skipped intervals into a disjoint family.
    Repeatedly: subtract everything already chosen from each interval still
    in play, permanently throw out the results that are empty or properly
    contain another result, and keep the earliest survivor.  Each survivor
    must stay contiguous.
    """
    remaining = sorted(msis)
    chosen: list[Span] = []
    covered: set[int] = set()
    while remaining:
        reduced = [
            (iv, set(range(iv[0], iv[1] + 1)) - covered) for iv in remaining
        ]
        survivors = [
            (iv, pts) for iv, pts in reduced
            if pts and not any(other < pts for _, other in reduced if other)
        ]
        if not survivors:
            break
        iv, pts = survivors[0]
        lo, hi = min(pts), max(pts)
        if len(pts) != hi - lo + 1:
            raise RuntimeError(
                f"internal inconsistency: truncating {iv} left the "
                f"non-contiguous index set {sorted(pts)}")
        chosen.append((lo, hi))
        covered |= pts
        remaining = [jv for jv, _ in survivors[1:]]
    return chosen


def _criticality(family: list[Span], chain: MaximalChain) -> tuple[bool, int | None]:
    covered = {k for a, b in family for k in range(a, b + 1)}
    if covered == set(chain.open_indices()):
        return True, len(family) - 1
    return False, None


def critical_data(chain: MaximalChain,
                  earlier: list[MaximalChain]) -> tuple[bool, int | None]:
    """
    Whether the disjoint family covers all of the chain's interior, and the
    dimension (family size minus one) when it does.
    """
    family = disjoint_family(minimal_skipped_intervals(chain, earlier))
    return _criticality(family, chain)


def msis_fast_pattern(chain: MaximalChain) -> list[Span]:
    """
    Minimal skipped intervals of a pattern-poset chain without looking at
    other chains: singletons at strong descents, plus runs from an element
    down to its exterior when the exterior avoids the interior and the
    labels across the run strictly decrease (a lone label does not count
    as decreasing).
    """
    labels = chain.labels
    n = len(labels)
    found: set[Span] = set()
    for i in range(1, n):
        if labels[i - 1] > labels[i] + 1:
            found.add((i, i))
    for i in range(0, n - 1):
        rho = chain.elements[i]
        if len(rho) < 3:
            continue
        x = exterior(rho)
        j = i + len(rho) - len(x)
        if j > n or j < i + 2:
            continue
        if chain.elements[j] != x:
            continue
        if leq_consecutive(x, interior(rho)):
            continue
        run = labels[i:j]
        if all(run[k] > run[k + 1] for k in range(len(run) - 1)):
            found.add((i + 1, j - 1))
    return sorted(found)


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
    poset_tag: str
    bottom: object
    top: object
    rank_gap: int
    chains: tuple[ChainMorseData, ...]
    mobius: int
    critical_count: int
    homotopy: HomotopyType | None  # None when the rank gap is below two


def morse_report(poset, bottom, top) -> MorseReport:
    """Chains, skipped-interval data, Mobius value, and homotopy type."""
    all_chains = maximal_chains(poset, bottom, top)
    gap = poset.rank(top) - poset.rank(bottom)
    data = []
    for idx, chain in enumerate(all_chains):
        msis = minimal_skipped_intervals(chain, all_chains[:idx])
        family = disjoint_family(msis)
        critical, dim = _criticality(family, chain)
        data.append(ChainMorseData(chain, tuple(msis), tuple(family), critical, dim))
    if gap == 0:
        mobius = 1  # a single element: no machinery to run
    else:
        mobius = sum(-1 if d.dim % 2 else 1 for d in data if d.critical)
    critical = [d for d in data if d.critical]
    if gap < 2:
        homotopy = None
    elif not critical:
        homotopy = HomotopyType("contractible")
    elif len(critical) == 1:
        homotopy = HomotopyType("sphere", (critical[0].dim,))
    else:
        homotopy = HomotopyType("cells", tuple(sorted(d.dim for d in critical)))
    return MorseReport(
        poset_tag=poset.tag,
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
    report = morse_report(poset, bottom, top)
    if report.homotopy is None:
        raise ValueError("degenerate interval: rank gap below two")
    return report.homotopy
