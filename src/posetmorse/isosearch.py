"""
Search for factor-order intervals isomorphic, as posets, to consecutive
pattern intervals.

Interval posets are summarized by an iterated-refinement certificate, the
sorted hashed colours of their elements, refined over the elements above
each element, which compares across structures; candidate pairs with
equal certificates are then confirmed or rejected by a backtracking
matcher on the full order relation, read off the same sets.  The
certificate is an invariant, not a complete canonical form, so the
matcher has the final word.  Each interval's structure is cut from the
one structure of its top's down-set (IntervalStructure.above).
Exploratory tooling: the catalog makes no claim beyond the sizes it was
run at.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .posets import (FactorPoset, IntervalStructure, PatternPoset,
                     interval_structure)
from .words import format_word


def colours(s: IntervalStructure) -> list:
    """Per-element colours, hashed from the up-degree, then with the sorted
    colours above until their number stops growing: hashes, not numbers
    per structure, so colours compare across structures."""
    labels = [hash(len(up)) for up in s.ups]
    count = 0
    while len(set(labels)) > count:
        count = len(set(labels))
        labels = [hash((labels[i], tuple(sorted(labels[j] for j in up))))
                  for i, up in enumerate(s.ups)]
    return labels


def certificate(labels: list) -> tuple:
    """Isomorphism-invariant summary of a structure: its sorted colours."""
    return tuple(sorted(labels))


def find_isomorphism(a: IntervalStructure, la: list, b: IntervalStructure,
                     lb: list) -> list[int] | None:
    """
    A bijection (as a list: image of each index of ``a``) preserving the
    order relation both ways, or None: each matched pair agrees with every
    earlier one on "above" and on "below", read as the other one's
    "above".  la and lb are the colours of a and b, whose certificates must
    be equal; backtracking matches only equal colours.
    """
    order = sorted(range(a.size), key=lambda i: (la[i], -len(a.ups[i])))
    image: list[int | None] = [None] * a.size
    used = [False] * b.size

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        i = order[k]
        for j in range(b.size):
            if used[j] or lb[j] != la[i]:
                continue
            ok = True
            for i2 in order[:k]:
                j2 = image[i2]
                if ((i2 in a.ups[i]) != (j2 in b.ups[j])
                        or (i in a.ups[i2]) != (j in b.ups[j2])):
                    ok = False
                    break
            if not ok:
                continue
            image[i] = j
            used[j] = True
            if extend(k + 1):
                return True
            image[i] = None
            used[j] = False
        return False

    return [int(v) for v in image] if extend(0) else None  # type: ignore[arg-type]


class CatalogEntry(NamedTuple):
    bottom: str
    top: str
    size: int
    matched: bool
    word_bottom: str | None = None
    word_top: str | None = None


class IsoSearchReport(NamedTuple):
    pattern_cap: int
    word_cap: int
    alphabet: tuple[str, ...]
    entries: list[CatalogEntry]

    @property
    def matched(self) -> int:
        return sum(e.matched for e in self.entries)


def _canonical_words(alphabet: tuple[str, ...], max_len: int):
    """Words whose letters first appear in alphabet order, removing
    relabelings that give isomorphic intervals."""
    for n in range(max_len + 1):
        for w in itertools.product(alphabet, repeat=n):
            firsts = list(dict.fromkeys(w))
            if firsts == list(alphabet[:len(firsts)]):
                yield w


def run_iso_search(pattern_cap: int = 4, word_cap: int = 4,
                   alphabet: tuple[str, ...] = ("a", "b")) -> IsoSearchReport:
    """
    For each pattern interval with top length at most pattern_cap, look for
    a factor-order interval over ``alphabet`` with top length at most
    word_cap that is isomorphic to it.  The pattern cap must be at least 1,
    so that some interval is searched, and the word cap at least 0.  The
    caps are the only size bound: the posets searched have no guardrail.
    """
    for name, cap, least in (("pattern", pattern_cap, 1), ("word", word_cap, 0)):
        if cap < least:
            raise ValueError(f"{name} cap must be at least {least}, got {cap}")
    wposet = FactorPoset(alphabet, max_top=None)
    by_cert: dict[tuple, list[tuple[tuple, tuple, IntervalStructure, list]]] = {}
    for u, w, s in _intervals(wposet, _canonical_words(alphabet, word_cap)):
        c = colours(s)
        by_cert.setdefault(certificate(c), []).append((u, w, s, c))

    pposet = PatternPoset(max_top=None)
    taus = (tau for d in range(1, pattern_cap + 1) for tau in pposet.elements_of_rank(d))
    entries = []
    for sigma, tau, s in _intervals(pposet, taus):
        c = colours(s)
        match = next(((u, w) for u, w, ws, wc in by_cert.get(certificate(c), ())
                      if find_isomorphism(s, c, ws, wc) is not None), None)
        entries.append(CatalogEntry(
            pposet.format(sigma), pposet.format(tau), s.size, match is not None,
            *map(wposet.format, match or ())))  # unmatched: None, None
    return IsoSearchReport(pattern_cap, word_cap, alphabet, entries)


def _intervals(poset, tops):
    """Every [b, top] under each of tops with its structure, the bottoms
    by length and then as tuples, each cut from the one structure of its
    top's down-set."""
    for top in tops:
        full = interval_structure(poset, poset.minimum, top)
        at = {e: i for i, e in enumerate(full.elements)}
        for b in sorted(at, key=lambda e: (len(e), e)):
            yield b, top, full.above(at[b])


def iso_search_json(report: IsoSearchReport) -> dict:
    return {
        "pattern_cap": report.pattern_cap,
        "word_cap": report.word_cap,
        "alphabet": format_word(report.alphabet),
        "total": len(report.entries),
        "matched": report.matched,
        "entries": [e._asdict() for e in report.entries],
    }


def iso_search_text(report: IsoSearchReport) -> str:
    lines = [
        f"isomorphism search: pattern tops to {report.pattern_cap}, "
        f"word tops to {report.word_cap} over {{{','.join(report.alphabet)}}}",
        f"intervals: {len(report.entries)}, matched: {report.matched}",
    ]
    for e in report.entries:
        if e.matched:
            lines.append(f"  [{e.bottom}, {e.top}]  ~  "
                         f"[{e.word_bottom or 'eps'}, {e.word_top or 'eps'}]")
        else:
            lines.append(f"  [{e.bottom}, {e.top}]  unmatched")
    return "\n".join(lines) + "\n"
