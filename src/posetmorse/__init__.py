"""
Mobius functions and homotopy types of intervals in the consecutive
pattern poset on permutations and in factor order on words.

Three independent routes to every Mobius value: a closed-form recursion,
a sum over critical chains from a discrete Morse matching on the order
complex, and brute-force recursion over the interval.  mobius_bruteforce
and euler_characteristic take an interval_structure and return a column
indexed like its elements, the value of [x, top] for every element x, so
entry 0 is that of the interval itself.  The morse module also reads off
the homotopy type.  The bijection module realizes factor
order on {a,b}* inside the pattern poset via permutations avoiding 213
and 231.
"""

import importlib

__version__ = "0.1.0"

# The public names and the module of each.  They load on first use, so
# that `python -m posetmorse` reaches __main__, which turns a Ctrl-C into
# exit 130, before anything heavy is imported.
_HOMES = {name: module for module, names in (
    ("closed_form", "mobius_factor mobius_pattern"),
    ("crosscheck", "run_crosscheck"),
    ("morse", "homotopy_type mobius_morse"),
    ("posets", "FactorPoset IncomparableError PatternPoset SizeLimitError "
               "euler_characteristic interval_structure mobius_bruteforce"),
) for name in names.split()}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
