"""
The order isomorphism between words over {a, b} under factor order and
permutations avoiding 213 and 231 as classical patterns, ordered by
consecutive containment.

A word of length n-1 maps to a permutation of length n: reading left to
right, "a" takes the smallest unused value, "b" the largest, and the
leftover value lands in the final position.

>>> format_permutation(word_to_perm(parse_word("abbab")))
'165243'
>>> format_word(perm_to_word(parse_permutation("15234")))
'abaa'
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .perms import format_permutation, leq_consecutive, parse_permutation
from .words import format_word, is_factor, parse_word

_AB = ("a", "b")


def word_to_perm(w: tuple) -> tuple[int, ...]:
    """
    >>> word_to_perm(("b", "a", "b", "a", "b"))
    (6, 1, 5, 2, 4, 3)
    >>> word_to_perm(())
    (1,)
    """
    for s in w:
        if s not in _AB:
            raise ValueError(f"letter {s!r} is outside the two-letter alphabet")
    low, high = 1, len(w) + 1
    out = []
    for s in w:
        if s == "a":
            out.append(low)
            low += 1
        else:
            out.append(high)
            high -= 1
    out.append(low)  # low == high here
    return tuple(out)


def perm_to_word(p: tuple[int, ...]) -> tuple:
    """
    Inverse of word_to_perm.  Fails on permutations containing 213 or 231,
    reporting the first offending position.

    >>> perm_to_word((1, 2, 3, 4, 5))
    ('a', 'a', 'a', 'a')
    >>> perm_to_word((1,))
    ()
    """
    low, high = 1, len(p)
    out = []
    for i, v in enumerate(p[:-1]):
        if v == low:
            out.append("a")
            low += 1
        elif v == high:
            out.append("b")
            high -= 1
        else:
            raise ValueError(
                f"position {i + 1}: value {v} is neither the smallest nor the "
                f"largest remaining, so the permutation contains 213 or 231")
    return tuple(out)


def avoids_213_231(p: tuple[int, ...]) -> bool:
    """
    True when p contains neither 213 nor 231 classically; equivalently,
    every value before the last is the smallest or largest one remaining.

    >>> avoids_213_231((6, 1, 5, 2, 4, 3))
    True
    >>> avoids_213_231((2, 1, 3))
    False
    """
    try:
        perm_to_word(p)
    except ValueError:
        return False
    return True


class IsomorphismReport(NamedTuple):
    """Outcome of the exhaustive order-isomorphism check up to one length:
    the counts of word pairs whose order the map breaks, of words that do
    not round-trip and of lengths whose images are not the avoiders, and
    the avoiders of each length as (found, 2^(m-1))."""

    max_length: int
    words_checked: int
    pairs_checked: int
    order_violations: int
    roundtrip_failures: int
    image_mismatches: int
    avoider_counts: dict[int, tuple[int, int]]

    @property
    def ok(self) -> bool:
        return (not self.order_violations and not self.roundtrip_failures
                and not self.image_mismatches
                and all(got == want for got, want in self.avoider_counts.values()))


def verify_isomorphism(max_length: int) -> IsomorphismReport:
    """
    Exhaustively confirm, for permutations up to ``max_length``, that the
    map is a bijection onto the avoiders of each length, that avoiders of
    length m number 2^(m-1), and that factor order on words agrees with
    consecutive pattern order on their images.
    """
    if max_length < 2:
        raise ValueError("need max_length of at least two")
    if max_length > 8:
        raise ValueError("exhaustive check capped at length eight")
    images = {w: word_to_perm(w) for n in range(max_length)
              for w in itertools.product(_AB, repeat=n)}
    avoider_counts, image_mismatches = {}, 0
    for m in range(1, max_length + 1):
        avoiders = {p for p in itertools.permutations(range(1, m + 1))
                    if avoids_213_231(p)}
        avoider_counts[m] = (len(avoiders), 2 ** (m - 1))
        image_mismatches += {p for p in images.values() if len(p) == m} != avoiders
    return IsomorphismReport(
        max_length, words_checked=len(images), pairs_checked=len(images) ** 2,
        order_violations=sum(is_factor(u, w) != leq_consecutive(pu, pw)
                             for u, pu in images.items() for w, pw in images.items()),
        roundtrip_failures=sum(perm_to_word(p) != w for w, p in images.items()),
        image_mismatches=image_mismatches, avoider_counts=avoider_counts)


def isomorphism_text(report: IsomorphismReport) -> str:
    lines = [f"bijection check through length {report.max_length}",
             f"  words checked: {report.words_checked}",
             f"  ordered pairs checked: {report.pairs_checked}"]
    for m, (got, want) in sorted(report.avoider_counts.items()):
        lines.append(f"  avoiders of length {m}: {got} (expected {want})")
    lines.append("ok" if report.ok else
                 f"failed: {report.order_violations} order violations, "
                 f"{report.roundtrip_failures} round-trip failures, "
                 f"{report.image_mismatches} image mismatches")
    return "\n".join(lines) + "\n"


def isomorphism_json(report: IsomorphismReport) -> dict:
    return dict(report._asdict(), ok=report.ok)
