"""
Closed-form Mobius recursion, one body for both posets.

The consecutive pattern poset and factor order obey the same recursion:
exterior, interior and monotone for permutations play the roles of outer
word, inner word and flat for words (Bernini, Ferrari & Steingrimsson for
patterns, Bjorner for factor order).  It bottoms out within two ranks of
the top and otherwise either jumps to the exterior (outer word) or
returns zero, so evaluation walks down the top's exterior chain, top,
outer(top), outer(outer(top)), ..., at most |top| elements.  That chain,
and whether each jump along it survives its interior test, depend on the
top alone, so the body takes every bottom under one top at once and reads
each chain element's exterior, interior test and single-cover test once
for all of them: a sweep's column of a top (pattern_column,
factor_column).  mobius_pattern and mobius_factor check the pair and run
the same body on their one bottom.
"""

from __future__ import annotations

from . import posets
from .perms import exterior, interior, is_monotone, leq_consecutive
from .words import inner_word, is_factor, is_flat, outer_word


def _column(top, bottoms, leq, outer, inner, single) -> list[int]:
    """mu(b, top) for each b of bottoms, every one below top, given the
    poset's order test, exterior, interior and single-cover test.  chain
    is the top's exterior chain as far as a bottom has needed it, and
    live[k] says whether the jump from chain[k] to chain[k + 1] survives
    the interior test; ends[k] holds the two bottoms of rank gap two
    under chain[k] with value 1, none when chain[k] has a single cover.
    Each bottom takes k jumps down the chain and stops at rank gap at
    most two, where its value is read, or dies, value 0, at a jump that
    fails."""
    chain, live, ends, column = [top], [], {}, []
    for b in bottoms:
        k, gap = 0, len(top) - len(b)
        while gap > 2:
            if k == len(live):
                t = chain[k]
                x = outer(t)
                chain.append(x)
                live.append(not leq(x, inner(t)))
            if not live[k] or not leq(b, chain[k + 1]):
                break
            k += 1
            gap = len(chain[k]) - len(b)
        if gap == 2:
            if k not in ends:
                t = chain[k]
                ends[k] = () if single(t) else (inner(t), outer(t))
            column.append(1 if b in ends[k] else 0)
        else:
            column.append(0 if gap > 2 else -1 if gap == 1 else 1)
    return column


def pattern_column(tau: tuple[int, ...], bottoms) -> list[int]:
    """mu(sigma, tau) in the consecutive pattern order for each sigma of
    bottoms, every one a consecutive pattern of tau (unchecked)."""
    return _column(tau, bottoms, leq_consecutive, exterior, interior, is_monotone)


def factor_column(w: tuple, bottoms) -> list[int]:
    """mu(u, w) in factor order for each u of bottoms, every one a factor
    of w (unchecked)."""
    return _column(w, bottoms, is_factor, outer_word, inner_word, is_flat)


def mobius_pattern(sigma: tuple[int, ...], tau: tuple[int, ...]) -> int:
    """
    Mobius function of [sigma, tau] in the consecutive pattern order.

    >>> mobius_pattern((1,), (2, 1, 3, 5, 4, 6))
    1
    >>> mobius_pattern((1, 2), (1, 2, 3, 4))
    0
    >>> mobius_pattern((1, 2, 3), (2, 1, 3, 5, 4))
    1
    """
    if not leq_consecutive(sigma, tau):
        raise posets.IncomparableError("sigma is not a consecutive pattern of tau")
    return pattern_column(tau, (sigma,))[0]


def mobius_factor(u: tuple, w: tuple) -> int:
    """
    Mobius function of [u, w] in factor order; u may be the empty word.

    >>> mobius_factor(("b",), ("a", "b", "b"))
    1
    >>> mobius_factor(("b",), ("a", "a", "b", "b"))
    0
    >>> mobius_factor(("a",), ("a", "a", "a"))
    0
    """
    if not is_factor(u, w):
        raise posets.IncomparableError("u is not a factor of w")
    return factor_column(w, (u,))[0]
