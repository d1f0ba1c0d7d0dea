"""
In-memory tracing of the posetmorse layers, installed from outside the
package by replacing module attributes with wrappers.

Layer-boundary functions record spans: (id, parent id, name, start ns,
end ns, interval id).  Hot leaf functions, called up to millions of times
per sweep, record only a call count and inclusive time, so that a traced
sweep stays within memory; their time is part of the caller's self time.
A recursive call of a function that already has an open span passes
straight through, so totals count outermost calls only.

A tracer dumps its spans and counters as one JSON file per process per
pass into its output directory.  Pool workers forked from a traced process
inherit the wrappers; each call of crosscheck._worker starts from an empty
trace and dumps what it recorded, so worker spans reach the trace too.
`layer_metrics` reads the dumps and derives the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path
from time import perf_counter_ns as _now

# Span-level functions: metric prefix -> (module, attribute).  A class
# attribute is written "Class.method".
SPANS = {
    "cli.main": ("cli", "main"),
    "crosscheck.run_crosscheck": ("crosscheck", "run_crosscheck"),
    "crosscheck.worker": ("crosscheck", "_interval_records"),
    "crosscheck.check_interval": ("crosscheck", "check_interval"),
    "crosscheck.naive_chain_count": ("crosscheck", "naive_chain_count"),
    "morse.morse_report": ("morse", "morse_report"),
    "morse.minimal_skipped_intervals": ("morse", "minimal_skipped_intervals"),
    "morse.skipped_intervals": ("morse", "skipped_intervals"),
    "morse.disjoint_family": ("morse", "disjoint_family"),
    "morse.msis_fast_pattern": ("morse", "msis_fast_pattern"),
    "chains.maximal_chains": ("chains", "maximal_chains"),
    "chains.is_poset_lex": ("chains", "is_poset_lex"),
    "chains.classify_steps": ("chains", "classify_steps"),
    "posets.interval_elements": ("posets", "interval_elements"),
    "posets.mobius_bruteforce": ("posets", "mobius_bruteforce"),
    "posets.euler_characteristic": ("posets", "euler_characteristic"),
    "posets.MobiusCache.load": ("posets", "MobiusCache._load"),
    "closed_form.mobius": ("closed_form", "mobius_pattern"),
    "closed_form.mobius#factor": ("closed_form", "mobius_factor"),
}
# Spans that start a new interval id.
INTERVAL_ROOTS = {"cli.main", "crosscheck.check_interval"}

# Counted leaf functions: counter name -> (module, attribute, timed).
COUNTERS = {
    "perms.standardize": ("perms", "standardize", True),
    "perms.leq_consecutive": ("perms", "leq_consecutive", False),
    "perms.exterior": ("perms", "exterior", True),
    "posets.leq": ("posets", "PatternPoset.leq", False),
    "posets.leq#factor": ("posets", "FactorPoset.leq", False),
    "posets.MobiusCache.get": ("posets", "MobiusCache.get", False),
    "posets.MobiusCache.put": ("posets", "MobiusCache.put", True),
}
# Every function of the words module; words.total_s is the time spent in
# outermost calls of any of them.
WORDS = ("as_word", "is_factor", "_factor_set", "is_flat", "inner_word", "outer_word",
         "down_covers_word", "format_word", "parse_word")

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "crosscheck.check_interval.calls": "count",
    "crosscheck.check_interval.self_s": "s",
    "crosscheck.naive_chain_count.total_s": "s",
    "crosscheck.run_crosscheck.self_s": "s",
    "crosscheck.worker.busy_s": "s",
    "crosscheck.parallel_efficiency": "ratio",
    "morse.morse_report.calls": "count",
    "morse.morse_report.total_s": "s",
    "morse.morse_report.self_s": "s",
    "morse.skipped_intervals.total_s": "s",
    "morse.minimal_skipped_intervals.self_s": "s",
    "morse.disjoint_family.total_s": "s",
    "morse.skipped_intervals.runs_tested": "count",
    "morse.skipped_intervals.found": "count",
    "morse.skipped_intervals.useful_ratio": "ratio",
    "morse.msis_fast_pattern.calls": "count",
    "morse.msis_fast_pattern.total_s": "s",
    "chains.maximal_chains.calls": "count",
    "chains.maximal_chains.total_s": "s",
    "chains.maximal_chains.chains_listed": "count",
    "chains.is_poset_lex.total_s": "s",
    "chains.classify_steps.total_s": "s",
    "posets.interval_elements.calls": "count",
    "posets.interval_elements.total_s": "s",
    "posets.interval_elements.calls_per_interval": "calls/interval",
    "posets.mobius_bruteforce.calls": "count",
    "posets.mobius_bruteforce.total_s": "s",
    "posets.euler_characteristic.calls": "count",
    "posets.euler_characteristic.total_s": "s",
    "posets.leq.calls": "count",
    "posets.MobiusCache.get.calls": "count",
    "posets.MobiusCache.hit_ratio": "ratio",
    "posets.MobiusCache.put.calls": "count",
    "posets.MobiusCache.put.total_s": "s",
    "posets.MobiusCache.load_s": "s",
    "posets.MobiusCache.file_records": "count",
    "closed_form.mobius.calls": "count",
    "closed_form.mobius.total_s": "s",
    "perms.standardize.calls": "count",
    "perms.standardize.total_s": "s",
    "perms.leq_consecutive.calls": "count",
    "perms.exterior.calls": "count",
    "perms.exterior.total_s": "s",
    "words.down_covers_word.calls": "count",
    "words.outer_word.calls": "count",
    "words.is_factor.calls": "count",
    "words.total_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Spans and counters of one process, kept in memory until `dump`."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.cells: dict[str, list[int]] = {}  # name -> [calls, ns, extra]
        self.dumps = 0
        self.next_id = 0
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.open: set[str] = set()
        self.interval = 0
        for cell in self.cells.values():
            cell[:] = [0, 0, 0]

    def cell(self, name: str) -> list[int]:
        return self.cells.setdefault(name, [0, 0, 0])

    def dump(self) -> None:
        """Write this process's trace since the last reset, then reset."""
        Path(self.out_dir).mkdir(parents=True, exist_ok=True)
        self.dumps += 1
        path = Path(self.out_dir) / f"{self.pid}-{self.dumps}.json"
        path.write_text(json.dumps({"pid": self.pid, "spans": self.spans,
                                    "cells": {k: v for k, v in self.cells.items() if any(v)}}))
        self.reset()

    def span(self, name: str, fn, after=None):
        metric = name.split("#")[0]
        new_interval = metric in INTERVAL_ROOTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if metric in self.open:
                return fn(*args, **kwargs)
            self.next_id += 1
            sid = self.next_id
            parent = self.stack[-1] if self.stack else 0
            if new_interval:
                self.interval += 1
            interval = self.interval
            self.stack.append(sid)
            self.open.add(metric)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                self.stack.pop()
                self.open.discard(metric)
                self.spans.append((sid, parent, metric, start, end, interval))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn, timed: bool, after=None):
        cell = self.cell(name.split("#")[0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            if not timed:
                result = fn(*args, **kwargs)
            else:
                start = _now()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    cell[1] += _now() - start
            if after is not None:
                after(cell, result)
            return result

        return wrapper

    def words_counter(self, name: str, fn):
        cell, group = self.cell(f"words.{name}"), self.cell("words")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            if group[2]:
                return fn(*args, **kwargs)
            group[2] = 1
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                group[1] += _now() - start
                group[2] = 0

        return wrapper

    def worker(self, fn):
        """crosscheck._worker: trace each chunk afresh and dump it."""

        @functools.wraps(fn)
        def wrapper(args):
            if os.getpid() != self.pid:
                self.reset()
            try:
                return fn(args)
            finally:
                self.dump()

        return wrapper


def _replace(owner_name: str, attr: str, make) -> None:
    """Replace the function at owner.attr, and every other module attribute
    of the package bound to the same object, by make(function)."""
    owner = sys.modules[f"posetmorse.{owner_name}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        setattr(cls, meth, make(cls.__dict__[meth]))
        return
    fn = getattr(owner, attr)
    wrapped = make(fn)
    for name, module in list(sys.modules.items()):
        if name == "posetmorse" or name.startswith("posetmorse."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)


def install(out_dir: str) -> Tracer:
    """Import every posetmorse module and wrap each traced function."""
    import posetmorse.cli  # noqa: F401  (imports every traced module)

    tracer = Tracer(out_dir)
    skipped = tracer.cell("morse.skipped_intervals.runs_tested")
    found = tracer.cell("morse.skipped_intervals.found")
    listed = tracer.cell("chains.maximal_chains.chains_listed")
    hits = tracer.cell("posets.MobiusCache.hits")

    def after_skipped(args, result):
        chain, earlier = args[0], args[1]
        if earlier:
            skipped[0] += chain.steps * (chain.steps - 1) // 2
        found[0] += len(result)

    def after_chains(args, result):
        listed[0] += len(result)

    def after_get(cell, result):
        if result is not None:
            hits[0] += 1

    after = {"morse.skipped_intervals": after_skipped,
             "chains.maximal_chains": after_chains}
    for name, (module, attr) in SPANS.items():
        _replace(module, attr, lambda fn, name=name: tracer.span(name, fn, after.get(name)))
    for name, (module, attr, timed) in COUNTERS.items():
        hook = after_get if name == "posets.MobiusCache.get" else None
        _replace(module, attr, lambda fn, name=name, timed=timed, hook=hook:
                 tracer.counter(name, fn, timed, hook))
    for attr in WORDS:
        _replace("words", attr, lambda fn, attr=attr: tracer.words_counter(attr, fn))
    _replace("crosscheck", "_worker", tracer.worker)
    return tracer


def _load(pass_dir: Path) -> dict:
    """Calls, total ns and self ns per span name, summed counter cells, and
    the process ids, over every dump of one pass."""
    out: dict = {"calls": {}, "total": {}, "own": {}, "cells": {}, "pids": set()}
    for path in sorted(pass_dir.glob("*.json")):
        dump = json.loads(path.read_text())
        out["pids"].add(dump["pid"])
        child_ns: dict[int, int] = {}
        for _sid, parent, _name, start, end, _interval in dump["spans"]:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        for sid, _parent, name, start, end, _interval in dump["spans"]:
            for key, value in (("calls", 1), ("total", end - start),
                               ("own", end - start - child_ns.get(sid, 0))):
                out[key][name] = out[key].get(name, 0) + value
        for name, cell in dump["cells"].items():
            acc = out["cells"].setdefault(name, [0, 0])
            acc[0] += cell[0]
            acc[1] += cell[1]
    return out


def layer_metrics(pass_dirs: list[Path], intervals: int, jobs: int,
                  file_records: int, overhead_frac: float) -> dict[str, float]:
    """
    Per-layer metrics over all passes of one traced repetition.  `intervals`
    is the number of intervals those passes computed.  The cache hit ratio
    is that of the last pass, the warm one where hits are possible.  With
    jobs > 1, every pass must hold dumps of its pool workers.
    """
    passes = [_load(d) for d in pass_dirs]
    if jobs > 1 and any(len(p["pids"]) < 2 for p in passes):
        raise RuntimeError(f"no pool worker trace reached {pass_dirs}")

    def span(kind: str, name: str) -> int:
        return sum(p[kind].get(name, 0) for p in passes)

    def cell(name: str, k: int = 0, of: list[dict] = passes) -> int:
        return sum(p["cells"].get(name, [0, 0])[k] for p in of)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    busy = span("total", "crosscheck.worker")
    found = cell("morse.skipped_intervals.found")
    special = {
        "crosscheck.worker.busy_s": busy / 1e9,
        "crosscheck.parallel_efficiency": ratio(
            busy, jobs * span("total", "crosscheck.run_crosscheck")),
        "morse.skipped_intervals.useful_ratio": ratio(
            found, cell("morse.skipped_intervals.runs_tested")),
        "posets.interval_elements.calls_per_interval": ratio(
            span("calls", "posets.interval_elements"), intervals),
        "posets.MobiusCache.hit_ratio": ratio(
            cell("posets.MobiusCache.hits", of=passes[-1:]),
            cell("posets.MobiusCache.get", of=passes[-1:])),
        "posets.MobiusCache.load_s": span("total", "posets.MobiusCache.load") / 1e9,
        "posets.MobiusCache.file_records": file_records,
        "trace.overhead_frac": overhead_frac,
    }
    out: dict[str, float] = {}
    for name in LAYER_METRICS:
        prefix, _, kind = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif kind == "calls":
            out[name] = span("calls", prefix) or cell(prefix)
        elif kind == "total_s":
            out[name] = (span("total", prefix) or cell(prefix, 1)) / 1e9
        elif kind == "self_s":
            out[name] = span("own", prefix) / 1e9
        else:
            out[name] = cell(name)
    return out
