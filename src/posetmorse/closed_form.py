"""
Closed-form Mobius recursion, one body for both posets.

The consecutive pattern poset and factor order obey the same recursion:
exterior, interior and monotone for permutations play the roles of outer
word, inner word and flat for words (Bernini, Ferrari & Steingrimsson for
patterns, Bjorner for factor order).  Each entry point hands its poset's
four operators to the shared body.  It bottoms out within two ranks of
the top and otherwise either jumps to the exterior (outer word) or
returns zero, so evaluation touches a chain of at most |top| subproblems.
"""

from __future__ import annotations

from . import posets
from .perms import exterior, interior, is_monotone, leq_consecutive
from .words import inner_word, is_factor, is_flat, outer_word


def _mobius(bottom, top, leq, outer, inner, single) -> int:
    """mu(bottom, top) for comparable bottom <= top, given the poset's
    order test, exterior, interior and single-cover test."""
    while len(top) - len(bottom) > 2:
        x = outer(top)
        if not leq(bottom, x) or leq(x, inner(top)):
            return 0
        top = x
    gap = len(top) - len(bottom)
    if gap == 2:
        if not single(top) and bottom in (inner(top), outer(top)):
            return 1
        return 0
    return -1 if gap == 1 else 1


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
    return _mobius(sigma, tau, leq_consecutive, exterior, interior, is_monotone)


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
    return _mobius(u, w, is_factor, outer_word, inner_word, is_flat)
