"""
Words over a finite ordered alphabet and the operators of factor order.

A word is a tuple of symbols; the empty tuple is the empty word, which is
below every word.  Factor order compares by contiguous containment:
u <= w when u appears as a block of consecutive letters of w.

Text form: words of one-character letters render as plain strings
("abb"), the empty word as "", others as comma-separated letters ("a,bb";
"bb" alone).  posets.check_alphabet rejects the alphabets in which two
words share a text.  The down-set of w is w with those of w[:-1] and
w[1:], as every proper factor lies in one of these two; it and
format_word are memoized process-wide (8,192 entries), so a sweep builds
each factor's set and writes each word's text once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

Word = tuple  # tuple of symbol strings


def as_word(symbols: Iterable[str], alphabet: Sequence[str] | None = None) -> Word:
    w = tuple(symbols)
    if alphabet is not None:
        for s in w:
            if s not in alphabet:
                raise ValueError(f"letter {s!r} is not in the alphabet {tuple(alphabet)!r}")
    return w


def is_factor(u: Word, w: Word) -> bool:
    """
    >>> is_factor(("b",), ("a", "b", "b"))
    True
    >>> is_factor(("a", "a"), ("a", "b", "a"))
    False
    >>> is_factor((), ("a",))
    True
    """
    n = len(u)
    return any(w[i:i + n] == u for i in range(len(w) - n + 1))


@lru_cache(maxsize=8192)  # every word over {a,b} of length <= 12
def _factor_set(w: Word) -> frozenset[Word]:
    """All factors of w, the empty word included: w with the factors of
    its two longest proper factors; no cover rule."""
    if not w:
        return frozenset(((),))
    return frozenset((w,)) | _factor_set(w[:-1]) | _factor_set(w[1:])


def is_flat(w: Word) -> bool:
    """
    True when every letter of w is the same.

    >>> is_flat(("a", "a", "a"))
    True
    >>> is_flat(("a", "b", "b"))
    False
    >>> is_flat(("b",))
    True
    """
    if len(w) == 0:
        raise ValueError("flatness is undefined for the empty word")
    return all(s == w[0] for s in w)


def inner_word(w: Word) -> Word:
    """
    w with its first and last letters removed.

    >>> inner_word(("a", "b", "b"))
    ('b',)
    >>> inner_word(("a", "b"))
    ()
    """
    if len(w) < 2:
        raise ValueError("inner word needs length at least two")
    return w[1:-1]


def outer_word(w: Word) -> Word:
    """
    The longest word that is both a proper prefix and a suffix of w
    (the longest border); possibly empty.

    >>> outer_word(("a", "b", "a"))
    ('a',)
    >>> outer_word(("a", "a", "b", "b"))
    ()
    >>> outer_word(("a", "a"))
    ('a',)
    """
    if len(w) == 0:
        raise ValueError("outer word is undefined for the empty word")
    for k in range(len(w) - 1, 0, -1):
        if w[:k] == w[-k:]:
            return w[:k]
    return ()


def down_covers_word(w: Word) -> tuple[tuple[Word, int], ...]:
    """
    The words covered by w, paired with the deleted position.  Dropping the
    last letter comes first; a flat word has a single cover, taken at
    position one so that the surviving letters form a suffix.

    >>> down_covers_word(("a", "b", "b"))
    ((('a', 'b'), 3), (('b', 'b'), 1))
    >>> down_covers_word(("a", "a", "a"))
    ((('a', 'a'), 1),)
    >>> down_covers_word(("b",))
    (((), 1),)
    """
    if len(w) == 0:
        raise ValueError("the empty word covers nothing")
    if is_flat(w):
        return ((w[1:], 1),)
    return ((w[:-1], len(w)), (w[1:], 1))


@lru_cache(maxsize=8192)
def format_word(w: Word) -> str:
    """
    >>> format_word(("a", "b", "b"))
    'abb'
    >>> format_word(())
    ''
    """
    if any(len(s) != 1 for s in w):
        return ",".join(w)
    return "".join(w)


def parse_word(text: str, alphabet: Sequence[str] | None = None) -> Word:
    """
    Inverse of format_word: a text that is a letter is that letter, and
    any other is split on commas, or into characters when it has none.
    "eps" and the Greek letter epsilon are the empty word, like "", unless
    they are a word over the alphabet.

    >>> parse_word("abb"), parse_word(""), parse_word("eps")
    (('a', 'b', 'b'), (), ())
    >>> parse_word("eps", ("e", "p", "s")), parse_word("ab", ("ab", "cd"))
    (('e', 'p', 's'), ('ab',))
    """
    text = text.strip()
    if text in tuple(alphabet or ()):
        return (text,)
    symbols = tuple(text.split(",")) if "," in text else tuple(text)
    if text in ("ε", "eps") and (alphabet is None or not set(symbols) <= set(alphabet)):
        return ()
    return as_word(symbols, alphabet)
