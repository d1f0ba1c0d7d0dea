"""
Mobius functions and homotopy types of intervals in the consecutive
pattern poset on permutations and in factor order on words.

Three independent routes to every Mobius value: a closed-form recursion,
a sum over critical chains from a discrete Morse matching on the order
complex, and brute-force recursion over the interval.  The morse module
also reads off the homotopy type.  The bijection module realizes factor
order on {a,b}* inside the pattern poset via permutations avoiding 213
and 231.
"""

from .bijection import (IsomorphismReport, avoids_213_231, perm_to_word,
                        verify_isomorphism, word_to_perm)
from .chains import (MaximalChain, StepClass, chain_id_text, classify_steps,
                     is_poset_lex, maximal_chains)
from .closed_form import mobius_factor, mobius_pattern
from .crosscheck import CrosscheckReport, IntervalRecord, run_crosscheck
from .isosearch import IsoSearchReport, find_isomorphism, run_iso_search
from .morse import (ChainMorseData, HomotopyType, MorseReport, critical_data,
                    disjoint_family, homotopy_type, minimal_skipped_intervals,
                    mobius_morse, morse_report, msis_fast_pattern,
                    skipped_intervals)
from .perms import (exterior, interior, is_monotone, leq_consecutive,
                    occurrences, standardize)
from .posets import (FactorPoset, IncomparableError, IntervalStructure,
                     MobiusCache, PatternPoset, SizeLimitError,
                     euler_characteristic, interval_elements,
                     interval_structure, mobius_bruteforce)
from .words import inner_word, is_factor, is_flat, outer_word

__version__ = "0.1.0"

__all__ = [
    "ChainMorseData",
    "CrosscheckReport",
    "FactorPoset",
    "HomotopyType",
    "IncomparableError",
    "IntervalRecord",
    "IntervalStructure",
    "IsoSearchReport",
    "IsomorphismReport",
    "MaximalChain",
    "MobiusCache",
    "MorseReport",
    "PatternPoset",
    "SizeLimitError",
    "StepClass",
    "avoids_213_231",
    "chain_id_text",
    "classify_steps",
    "critical_data",
    "disjoint_family",
    "euler_characteristic",
    "exterior",
    "find_isomorphism",
    "homotopy_type",
    "inner_word",
    "interior",
    "interval_elements",
    "interval_structure",
    "is_factor",
    "is_flat",
    "is_monotone",
    "is_poset_lex",
    "leq_consecutive",
    "maximal_chains",
    "minimal_skipped_intervals",
    "mobius_bruteforce",
    "mobius_factor",
    "mobius_morse",
    "mobius_pattern",
    "morse_report",
    "msis_fast_pattern",
    "occurrences",
    "outer_word",
    "perm_to_word",
    "run_crosscheck",
    "run_iso_search",
    "skipped_intervals",
    "standardize",
    "verify_isomorphism",
    "word_to_perm",
]
