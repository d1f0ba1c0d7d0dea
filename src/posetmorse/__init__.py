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

from .closed_form import mobius_factor, mobius_pattern
from .crosscheck import run_crosscheck
from .morse import homotopy_type, mobius_morse
from .posets import (FactorPoset, IncomparableError, PatternPoset,
                     SizeLimitError, euler_characteristic, interval_structure,
                     mobius_bruteforce)

__version__ = "0.1.0"

__all__ = [
    "FactorPoset",
    "IncomparableError",
    "PatternPoset",
    "SizeLimitError",
    "euler_characteristic",
    "homotopy_type",
    "interval_structure",
    "mobius_bruteforce",
    "mobius_factor",
    "mobius_morse",
    "mobius_pattern",
    "run_crosscheck",
]
