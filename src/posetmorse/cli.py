"""
Command-line front end.

mobius and crosscheck judge the routes by one rule, crosscheck's
Routes.problems; only crosscheck goes on to the chain laws.  A command
imports only what it runs: iso-search and bijection load their modules.

Exit codes: 0 success, 1 invariant mismatch (a route check, a chain law,
or a crosscheck --cache record that differs from brute force), 2
incomparable input, 3 parse error or usage error, 4 size guardrail
exceeded (pass --force to lift it), 5 a crosscheck worker process died
(killed from outside, say by the OOM killer), 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import replace
from functools import cache

from . import render
from .chains import maximal_chains
from .crosscheck import (WorkerDied, crosscheck_json, crosscheck_text, evaluate,
                         run_crosscheck)
from .morse import morse_report, morse_summary
from .posets import (FactorPoset, IncomparableError, MobiusCache,
                     PatternPoset, SizeLimitError, check_alphabet)
from .perms import format_permutation, parse_permutation
from .words import format_word, parse_word


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, like every other parse error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


_FLAGS = {
    "--poset": dict(choices=("pattern", "factor"), default="pattern",
                    help="which poset to work in"),
    "--alphabet": dict(default="ab",
                       help="letters for factor order (string or comma list)"),
    "--max-size": dict(type=int, default=5, metavar="N", help="largest top rank"),
    "--format": dict(choices=("text", "json"), default="text", dest="fmt",
                     help="output format"),
    "--cache": dict(metavar="PATH", help="brute-force Mobius cache file"),
    "--jobs": dict(type=int, metavar="J", help="worker processes"),
    "--force": dict(action="store_true", help="lift the size guardrails"),
}


def _add_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_FLAGS[flag])


def parse_alphabet(text: str) -> tuple[str, ...]:
    """An --alphabet text split on commas, or into characters, and checked."""
    letters = text.split(",") if "," in text else list(text)
    return check_alphabet(letters, text)


def make_poset(args):
    """The poset named by --poset, with its size guardrail unless --force."""
    poset = (PatternPoset() if args.poset == "pattern"
             else FactorPoset(alphabet=parse_alphabet(args.alphabet)))
    return replace(poset, max_top=None) if args.force else poset


def _emit(args, text_fn, json_obj) -> None:
    if args.fmt == "json":
        sys.stdout.write(render.dump_json(json_obj))
    else:
        sys.stdout.write(text_fn())


def parse_interval(args):
    """The poset, bottom and top of an interval subcommand; the route it
    calls checks the pair (poset.check_pair) before it does anything else."""
    poset = make_poset(args)
    return poset, poset.parse(args.bottom), poset.parse(args.top)


def cmd_mobius(args) -> int:
    poset, bottom, top = parse_interval(args)
    routes = evaluate(poset, bottom, top)
    closed, brute, euler = routes.closed, routes.brute, routes.euler
    methods = {
        "closed_form": closed,
        "morse": routes.report.mobius,
        "bruteforce": brute,
        "euler": euler,
    }
    agree = not routes.problems()

    def text() -> str:
        lines = [f"interval {render.interval_label(poset, bottom, top)} "
                 f"in the {poset.kind} poset"]
        lines.append(f"  closed form: {closed}")
        lines.append(f"  morse sum:   {routes.report.mobius}")
        lines.append(f"  brute force: {brute}")
        if euler is not None:
            lines.append(f"  euler char:  {euler}")
        if agree:
            lines.append(f"mobius: {closed}")
        else:
            lines.append("mismatch: methods disagree")
        return "\n".join(lines) + "\n"

    _emit(args, text, {
        **render.interval_json(poset, bottom, top),
        "rank_gap": routes.report.rank_gap,
        "methods": methods,
        "agree": agree,
        "mobius": closed if agree else None,
    })
    return 0 if agree else 1


def cmd_chains(args) -> int:
    poset, bottom, top = parse_interval(args)
    chains = maximal_chains(poset, bottom, top)

    def text() -> str:
        head = (f"{len(chains)} maximal chains of "
                f"{render.interval_label(poset, bottom, top)}\n")
        return head + render.chain_table(poset, chains) + "\n"

    _emit(args, text, render.chains_json(poset, bottom, top, chains))
    return 0


def cmd_morse_report(args) -> int:
    poset, bottom, top = parse_interval(args)
    report = morse_report(poset, bottom, top)
    _emit(args, lambda: render.morse_report_text(poset, report),
          render.morse_report_json(poset, report))
    return 0


def cmd_homotopy(args) -> int:
    poset, bottom, top = parse_interval(args)
    report = morse_summary(poset, bottom, top)
    homotopy = report.homotopy_type()
    _emit(args, lambda: f"{homotopy}\n", {
        **render.interval_json(poset, bottom, top),
        "homotopy": homotopy,
        "mobius": report.mobius,
    })
    return 0


def cmd_bijection(args) -> int:
    from .bijection import perm_to_word, verify_isomorphism, word_to_perm

    if args.mode == "map":
        w = parse_word(args.word, ("a", "b"))
        p = word_to_perm(w)
        _emit(args, lambda: format_permutation(p) + "\n", {
            "word": format_word(w),
            "permutation": format_permutation(p),
        })
        return 0
    if args.mode == "unmap":
        p = parse_permutation(args.perm)
        w = perm_to_word(p)
        _emit(args, lambda: (format_word(w) or "eps") + "\n", {
            "permutation": format_permutation(p),
            "word": format_word(w),
        })
        return 0
    report = verify_isomorphism(args.max_length)

    def text() -> str:
        lines = [f"bijection check through length {report.max_length}",
                 f"  words checked: {report.words_checked}",
                 f"  ordered pairs checked: {report.pairs_checked}"]
        for m in sorted(report.avoider_counts):
            got, want = report.avoider_counts[m]
            lines.append(f"  avoiders of length {m}: {got} (expected {want})")
        lines.append("ok" if report.ok else
                     f"failed: {len(report.order_violations)} order "
                     f"violations, {len(report.roundtrip_failures)} "
                     f"round-trip failures, {len(report.image_mismatches)} "
                     "image mismatches")
        return "\n".join(lines) + "\n"

    _emit(args, text, {
        "max_length": report.max_length,
        "words_checked": report.words_checked,
        "pairs_checked": report.pairs_checked,
        "order_violations": len(report.order_violations),
        "roundtrip_failures": len(report.roundtrip_failures),
        "image_mismatches": len(report.image_mismatches),
        "avoider_counts": {str(m): list(v)
                           for m, v in report.avoider_counts.items()},
        "ok": report.ok,
    })
    return 0 if report.ok else 1


def cmd_crosscheck(args) -> int:
    poset = make_poset(args)
    with (contextlib.closing(MobiusCache(args.cache)) if args.cache
          else contextlib.nullcontext()) as cache:
        report = run_crosscheck(poset, args.max_size, cache, jobs=args.jobs)
    _emit(args, lambda: crosscheck_text(report),
          crosscheck_json(report))
    return 0 if report.ok else 1


def cmd_table1(args) -> int:
    sys.stdout.write(render.table1_text())
    return 0


def cmd_iso_search(args) -> int:
    from .isosearch import iso_search_json, iso_search_text, run_iso_search

    alphabet = parse_alphabet(args.alphabet)
    for name, cap, limit in (("pattern", args.pattern_cap, 5), ("word", args.word_cap, 8)):
        if cap > limit and not args.force:
            raise SizeLimitError(f"{name} cap {cap} above guardrail {limit}")
    report = run_iso_search(args.pattern_cap, args.word_cap, alphabet)
    _emit(args, lambda: iso_search_text(report), iso_search_json(report))
    return 0


@cache  # built once per process: each add_argument makes a HelpFormatter
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="posetmorse",
        description="Mobius functions and homotopy types of intervals in "
                    "the consecutive pattern poset and in factor order, "
                    "via closed forms, discrete Morse theory, and brute "
                    "force.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
            ("mobius", cmd_mobius, "Mobius value by every method"),
            ("chains", cmd_chains, "maximal chains with labels"),
            ("morse-report", cmd_morse_report,
             "chains, skipped intervals, critical cells"),
            ("homotopy", cmd_homotopy, "homotopy type of the open interval")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("bottom")
        p.add_argument("top")
        _add_flags(p, "--poset", "--alphabet", "--format", "--force")
        p.set_defaults(func=func)

    p = sub.add_parser("bijection",
                       help="factor order vs pattern containment on "
                            "{213,231}-avoiders")
    p.set_defaults(func=cmd_bijection)
    bsub = p.add_subparsers(dest="mode", required=True)
    bsub.add_parser("map", help="word over {a,b} to permutation").add_argument("word")
    bsub.add_parser("unmap", help="avoiding permutation to word").add_argument("perm")
    bsub.add_parser("verify", help="exhaustive order-isomorphism check").add_argument(
        "--max-length", type=int, default=6, metavar="N")
    for mode_parser in bsub.choices.values():
        _add_flags(mode_parser, "--format")

    p = sub.add_parser("crosscheck",
                       help="run every method on every interval up to a cap")
    _add_flags(p, "--poset", "--alphabet", "--max-size", "--format", "--cache",
               "--jobs", "--force")
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("table1",
                       help="reference table for the interval [1, 213546]")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("iso-search",
                       help="look for factor intervals isomorphic to "
                            "pattern intervals")
    p.add_argument("--pattern-cap", type=int, default=4, metavar="N")
    p.add_argument("--word-cap", type=int, default=4, metavar="N")
    _add_flags(p, "--alphabet", "--format", "--force")
    p.set_defaults(func=cmd_iso_search)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IncomparableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except WorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    try:
        raise SystemExit(main())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        raise SystemExit(130)


if __name__ == "__main__":
    run()
