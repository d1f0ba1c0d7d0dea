"""
Text and JSON renderings of chain and Morse reports.

The table layout interleaves embedding and label columns: chain id, then
e0, l1, e1, ..., ln, en, with embeddings printed as zero-padded
expansions.  Skipped-interval families are drawn with brackets: "[" goes
in front of the first element of each member and "]" after the last, and
overlapping members simply interleave their brackets.  The same brackets
are woven into the chain id between the labels that flank each element.
"""

from __future__ import annotations

import json

from .chains import MaximalChain
from .morse import MorseReport, Span, morse_report


def bracketed_id(labels: tuple[int, ...], spans: tuple[Span, ...] = ()) -> str:
    starts = {i for i, _ in spans}
    ends = {j for _, j in spans}
    if not labels:
        return ""
    parts = [str(labels[0])]
    for t in range(1, len(labels)):
        seg = "[" if t in starts else ""
        seg += "-"
        if t in ends:
            seg += "]"
        parts.append(seg + str(labels[t]))
    return "".join(parts)


def _chain_cells(poset, chain: MaximalChain, spans: tuple[Span, ...] = ()) -> list[str]:
    starts = {i for i, _ in spans}
    ends = {j for _, j in spans}
    top_len = chain.windows[0][1]
    cells = [bracketed_id(chain.labels, spans)]
    for i, (elem, window) in enumerate(zip(chain.elements, chain.windows)):
        if i > 0:
            cells.append(str(chain.labels[i - 1]))
        text = poset.expansion_text(elem, window, top_len)
        if i in starts:
            text = "[" + text
        if i in ends:
            text = text + "]"
        cells.append(text)
    return cells


def render_columns(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in [header] + rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def chain_table(poset, chains: list[MaximalChain],
                spans_per_chain: list[tuple[Span, ...]] | None = None) -> str:
    steps = chains[0].steps if chains else 0
    header = ["chain id", "e0"]
    for i in range(1, steps + 1):
        header.extend([f"l{i}", f"e{i}"])
    rows = []
    for idx, chain in enumerate(chains):
        spans = spans_per_chain[idx] if spans_per_chain is not None else ()
        rows.append(_chain_cells(poset, chain, spans))
    return render_columns(header, rows)


def interval_label(poset, bottom, top) -> str:
    return f"[{poset.format(bottom)}, {poset.format(top)}]"


def interval_json(poset, bottom, top) -> dict:
    """The keys that name an interval in every JSON output."""
    return {"poset": poset.tag, "bottom": poset.format(bottom),
            "top": poset.format(top)}


def _family_tables(poset, report: MorseReport) -> list[str]:
    """The minimal skipped-interval table and the disjoint-family table."""
    label = interval_label(poset, report.bottom, report.top)
    chains = [d.chain for d in report.chains]
    out = [f"minimal skipped intervals for {label}", ""]
    out.append(chain_table(poset, chains, [d.msis for d in report.chains]))
    differing = [d for d in report.chains if d.family != d.msis]
    out.append("")
    if differing:
        out.append(f"disjoint interval family for {label} "
                   "(chains where it differs from the minimal family)")
        out.append("")
        out.append(chain_table(poset, [d.chain for d in differing],
                               [d.family for d in differing]))
    else:
        out.append("disjoint interval family: equal to the minimal family "
                   "on every chain")
    return out


def morse_report_text(poset, report: MorseReport) -> str:
    """Two bracketed tables plus a summary block."""
    out = _family_tables(poset, report)
    out.append("")
    out.append(f"chains: {len(report.chains)}")
    crit = [d for d in report.chains if d.critical]
    if crit:
        ids = ", ".join(
            f"{bracketed_id(d.chain.labels, d.family)} (dimension {d.dim})"
            for d in crit)
        out.append(f"critical chains: {len(crit)}: {ids}")
    else:
        out.append("critical chains: 0")
    out.append(f"mobius: {report.mobius}")
    out.append(f"homotopy: {report.homotopy or 'degenerate (rank gap below two)'}")
    return "\n".join(out) + "\n"


def table1_text() -> str:
    """
    The reference table for the interval [1, 213546] in the pattern poset:
    all thirteen maximal chains with embeddings, labels, and bracketed
    skipped-interval families.
    """
    from .posets import PatternPoset

    poset = PatternPoset()
    report = morse_report(poset, (1,), (2, 1, 3, 5, 4, 6))
    return "\n".join(_family_tables(poset, report)) + "\n"


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def chain_json(poset, chain: MaximalChain) -> dict:
    top_len = chain.windows[0][1]
    return {
        "id": bracketed_id(chain.labels),
        "labels": list(chain.labels),
        "elements": [poset.format(e) for e in chain.elements],
        "expansions": [
            poset.expansion_text(e, w, top_len)
            for e, w in zip(chain.elements, chain.windows)
        ],
        "windows": [list(w) for w in chain.windows],
    }


def chains_json(poset, bottom, top, chains: list[MaximalChain]) -> dict:
    return {
        **interval_json(poset, bottom, top),
        "count": len(chains),
        "chains": [chain_json(poset, c) for c in chains],
    }


def morse_report_json(poset, report: MorseReport) -> dict:
    return {
        **interval_json(poset, report.bottom, report.top),
        "rank_gap": report.rank_gap,
        "mobius": report.mobius,
        "critical_count": report.critical_count,
        "homotopy": report.homotopy,
        "chains": [
            dict(chain_json(poset, d.chain),
                 msis=[list(s) for s in d.msis],
                 disjoint_family=[list(s) for s in d.family],
                 critical=d.critical,
                 critical_dim=d.dim)
            for d in report.chains
        ],
    }
