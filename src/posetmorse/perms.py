"""
Permutations in one-line notation and the window operators of the
consecutive pattern order.

A permutation of length n is a tuple holding each of 1..n exactly once,
e.g. ``(2, 1, 3)``.  Comparison is by consecutive containment: sigma <= tau
when some contiguous window of tau, read left to right, has its letters in
the same relative order as sigma.

Text form: permutations of length at most nine render as digit strings
("213546"); longer ones switch to comma-separated integers.  Parsing
reads either form, of ASCII digits only.  Embeddings of a shorter
permutation inside a longer one are written as expansions, digit strings
padded with zeros outside the occupied window ("000213").

The down-set of tau is tau with those of tau[:-1] and tau[1:], standardized;
it and down_covers, interior, exterior and format_permutation are memoized
process-wide (8,192 entries): two standardize calls per new permutation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence


def standardize(seq: Sequence[int]) -> tuple[int, ...]:
    """
    The unique permutation whose letters compare like those of ``seq``.

    >>> standardize((5, 3, 4))
    (3, 1, 2)
    >>> standardize((5, 3, 4, 1))
    (4, 2, 3, 1)
    >>> standardize((7,))
    (1,)
    >>> standardize((1, 3, 5, 4))
    (1, 2, 4, 3)
    """
    if len(seq) == 0:
        raise ValueError("cannot standardize an empty sequence")
    order = sorted(range(len(seq)), key=seq.__getitem__)
    for a, b in zip(order, order[1:]):
        if seq[a] == seq[b]:
            raise ValueError(f"duplicate entry {seq[a]!r} in {tuple(seq)!r}")
    out = [0] * len(seq)
    for rank, idx in enumerate(order, start=1):
        out[idx] = rank
    return tuple(out)


def as_permutation(seq: Iterable[int]) -> tuple[int, ...]:
    """Validate that ``seq`` is a permutation of 1..n and return it as a tuple."""
    p = tuple(seq)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of 1..n: {p!r}")
    return p


def is_monotone(p: Sequence[int]) -> bool:
    """
    True for increasing or decreasing permutations; length one counts.

    >>> is_monotone((1, 2, 3))
    True
    >>> is_monotone((2, 1, 3))
    False
    >>> is_monotone((1,))
    True
    """
    if len(p) == 0:
        raise ValueError("empty sequence has no direction")
    return tuple(p) == tuple(range(1, len(p) + 1)) or tuple(p) == tuple(range(len(p), 0, -1))


@lru_cache(maxsize=8192)  # every pattern of length <= 7
def _window_patterns(tau: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """tau with the down-sets of its two longest proper windows; no cover rule."""
    if len(tau) == 1:
        return frozenset((tau,))
    return (frozenset((tau,)) | _window_patterns(standardize(tau[:-1]))
            | _window_patterns(standardize(tau[1:])))


def leq_consecutive(sigma: tuple[int, ...], tau: tuple[int, ...]) -> bool:
    """
    Containment in the consecutive pattern order.

    >>> leq_consecutive((2, 1, 3), (2, 1, 3, 5, 4, 6))
    True
    >>> leq_consecutive((2, 1, 3), (1, 2, 4, 3))
    False
    >>> leq_consecutive((1,), (2, 1))
    True
    """
    if len(sigma) > len(tau):
        return False
    return sigma in _window_patterns(tau)


@lru_cache(maxsize=8192)
def down_covers(tau: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """
    The permutations covered by tau, paired with the position of tau that
    each cover deletes.  Dropping the last letter comes first; a monotone
    tau has a single cover, taken by convention at position one so that the
    surviving letters form a suffix.

    >>> down_covers((2, 1, 3, 5, 4, 6))
    (((2, 1, 3, 5, 4), 6), ((1, 2, 4, 3, 5), 1))
    >>> down_covers((1, 2, 3))
    (((1, 2), 1),)
    >>> down_covers((2, 3, 1))
    (((1, 2), 3), ((2, 1), 1))
    """
    if len(tau) < 2:
        raise ValueError("a length-one permutation covers nothing")
    if is_monotone(tau):
        return ((standardize(tau[1:]), 1),)
    return ((standardize(tau[:-1]), len(tau)), (standardize(tau[1:]), 1))


@lru_cache(maxsize=8192)
def interior(tau: tuple[int, ...]) -> tuple[int, ...]:
    """
    The standard form of tau with both end letters removed.

    >>> interior((2, 1, 3, 5, 4))
    (1, 2, 3)
    >>> interior((2, 1, 3, 5, 4, 6))
    (1, 2, 4, 3)
    >>> interior((1, 3, 2))
    (1,)
    """
    if len(tau) <= 2:
        raise ValueError("interior needs length at least three")
    return standardize(tau[1:-1])


@lru_cache(maxsize=8192)
def exterior(tau: tuple[int, ...]) -> tuple[int, ...]:
    """
    The longest permutation that is the standard form of both a proper
    prefix and a suffix of tau.

    >>> exterior((2, 1, 3, 5, 4))
    (2, 1)
    >>> exterior((2, 1, 3, 5, 4, 6))
    (2, 1, 3)
    >>> exterior((1, 2))
    (1,)
    """
    if len(tau) < 2:
        raise ValueError("exterior needs length at least two")
    for k in range(len(tau) - 1, 0, -1):
        p = standardize(tau[:k])
        if p == standardize(tau[-k:]):
            return p
    raise AssertionError("unreachable: length-one affixes always agree")


@lru_cache(maxsize=8192)
def format_permutation(p: tuple[int, ...]) -> str:
    """
    Text form of a permutation, or of an expansion (zeros outside the
    occupied window).

    >>> format_permutation((2, 1, 3, 5, 4, 6))
    '213546'
    >>> format_permutation((0, 0, 0, 2, 1, 3))
    '000213'
    """
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


def parse_permutation(text: str) -> tuple[int, ...]:
    """
    Inverse of format_permutation, accepting both text forms: the text is
    split on commas, or into characters when it has none, and every part,
    stripped, must be a run of ASCII digits.

    >>> parse_permutation("213546")
    (2, 1, 3, 5, 4, 6)
    >>> parse_permutation("2,1,3")
    (2, 1, 3)
    """
    text = text.strip()
    parts = [part.strip() for part in (text.split(",") if "," in text else text)]
    if not parts or not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError(f"bad permutation text {text!r}")
    return as_permutation(map(int, parts))
