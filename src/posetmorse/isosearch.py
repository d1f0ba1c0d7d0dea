"""
Search for factor-order intervals isomorphic, as posets, to consecutive
pattern intervals.

Interval posets are summarized by an iterated-refinement certificate
(a canonical-form hash); candidate pairs with equal certificates are then
confirmed or rejected by a backtracking matcher on the full order
relation.  The certificate is an invariant, not a complete canonical form,
so the matcher has the final word.  Exploratory tooling: the catalog makes
no claim beyond the sizes it was run at.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .posets import (FactorPoset, IntervalStructure, PatternPoset,
                     interval_structure)


def certificate(s: IntervalStructure) -> tuple:
    """Isomorphism-invariant summary by iterated neighborhood refinement."""
    return (s.size, tuple(sorted(_refined_labels(s))))


def _refined_labels(s: IntervalStructure) -> list:
    """Per-element colours, refined from (up-degree, down-degree) by the
    colours above and below until the partition stops splitting."""
    labels = [(len(s.ups[i]), len(s.downs[i])) for i in range(s.size)]
    for _round in range(s.size):
        refined = [
            (labels[i],
             tuple(sorted(labels[j] for j in s.ups[i])),
             tuple(sorted(labels[j] for j in s.downs[i])))
            for i in range(s.size)
        ]
        canon = {v: k for k, v in enumerate(sorted(set(refined)))}
        new = [canon[r] for r in refined]
        if new == labels:
            break
        labels = new
    return labels


def find_isomorphism(a: IntervalStructure, b: IntervalStructure) -> list[int] | None:
    """
    A bijection (as a list: image of each index of ``a``) preserving the
    order relation both ways, or None.  Backtracking with refinement labels
    pruning the candidate sets.
    """
    la, lb = _refined_labels(a), _refined_labels(b)
    if sorted(la) != sorted(lb):
        return None
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
                        or (i2 in a.downs[i]) != (j2 in b.downs[j])):
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


@dataclass
class CatalogEntry:
    bottom: str
    top: str
    size: int
    matched: bool
    word_bottom: str | None = None
    word_top: str | None = None


@dataclass
class IsoSearchReport:
    pattern_cap: int
    word_cap: int
    alphabet: str
    entries: list[CatalogEntry] = field(default_factory=list)

    @property
    def matched(self) -> int:
        return sum(1 for e in self.entries if e.matched)


def _canonical_words(alphabet: tuple[str, ...], max_len: int):
    """Words whose letters first appear in alphabet order, removing
    relabelings that give isomorphic intervals."""
    for n in range(max_len + 1):
        for w in itertools.product(alphabet, repeat=n):
            seen: list[str] = []
            ok = True
            for s in w:
                if s not in seen:
                    if s != alphabet[len(seen)]:
                        ok = False
                        break
                    seen.append(s)
            if ok:
                yield w


def run_iso_search(pattern_cap: int = 4, word_cap: int = 4,
                   alphabet: tuple[str, ...] = ("a", "b")) -> IsoSearchReport:
    """
    For each pattern interval with top length at most pattern_cap, look for
    a factor-order interval over ``alphabet`` with top length at most
    word_cap that is isomorphic to it.
    """
    wposet = FactorPoset(alphabet)
    by_cert: dict[tuple, list[tuple[tuple, tuple, IntervalStructure]]] = {}
    for w in _canonical_words(alphabet, word_cap):
        for u in sorted(wposet.down_set(w), key=lambda e: (len(e), e)):
            s = interval_structure(wposet, u, w)
            by_cert.setdefault(certificate(s), []).append((u, w, s))

    pposet = PatternPoset()
    report = IsoSearchReport(pattern_cap=pattern_cap, word_cap=word_cap,
                             alphabet="".join(alphabet))
    for d in range(1, pattern_cap + 1):
        for tau in pposet.elements_of_rank(d):
            for sigma in sorted(pposet.down_set(tau), key=lambda e: (len(e), e)):
                s = interval_structure(pposet, sigma, tau)
                entry = CatalogEntry(
                    bottom=pposet.format(sigma), top=pposet.format(tau),
                    size=s.size, matched=False)
                for u, w, ws in by_cert.get(certificate(s), []):
                    if find_isomorphism(s, ws) is not None:
                        entry.matched = True
                        entry.word_bottom = wposet.format(u)
                        entry.word_top = wposet.format(w)
                        break
                report.entries.append(entry)
    return report


def iso_search_json(report: IsoSearchReport) -> dict:
    return {
        "pattern_cap": report.pattern_cap,
        "word_cap": report.word_cap,
        "alphabet": report.alphabet,
        "total": len(report.entries),
        "matched": report.matched,
        "entries": [
            {
                "bottom": e.bottom,
                "top": e.top,
                "size": e.size,
                "matched": e.matched,
                "word_bottom": e.word_bottom,
                "word_top": e.word_top,
            }
            for e in report.entries
        ],
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
