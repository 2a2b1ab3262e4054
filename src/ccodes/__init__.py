"""Exact enumeration of binary linear congruence codes.

A binary linear congruence code is the set of binary k-tuples c with
a_1 c_1 + ... + a_k c_k = b (mod n). This package computes weight
enumerators, weight distributions and cardinalities of such codes and of
the named families built on them (Varshamov-Tenengolts, Levenshtein,
Helberg, shifted VT), always through exact integer arithmetic, with
floating-point character sums and brute-force enumeration as independent
cross-checks.
"""

from .arith import (
    binomial_row,
    divisors,
    factor,
    moebius,
    ramanujan_sum,
    ramanujan_sum_direct,
    totient,
)
from .codes import (
    CodeSpec,
    ParityCodeSpec,
    helberg_multipliers,
    make_helberg,
    make_levenshtein,
    make_svt,
    make_vt,
)
from .enumerator import (
    WeightEnumerator,
    closed_form_gap,
    lehmer_count,
    size,
    size_upper_bound,
    svt_sizes_charsum_float,
    vt_q_size,
    vt_size,
    vt_weight_count,
    vt_weight_enumerator_closed,
    weight_enumerator,
    weight_enumerator_charsum_float,
    weight_enumerator_closed,
    weight_enumerator_fold,
    weight_enumerators,
)
from .errors import (
    CapExceeded,
    CongruenceCodeError,
    IntegralityFailure,
    InvariantViolation,
    NonExactDivision,
    OutOfDomain,
)
from .oracle import (
    Codebook,
    brute_count_qary,
    brute_weight_enumerator,
    build_codebook,
    check_single_deletion,
)
from .polyring import residue_product

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CapExceeded",
    "Codebook",
    "CodeSpec",
    "CongruenceCodeError",
    "IntegralityFailure",
    "InvariantViolation",
    "NonExactDivision",
    "OutOfDomain",
    "ParityCodeSpec",
    "WeightEnumerator",
    "binomial_row",
    "brute_count_qary",
    "brute_weight_enumerator",
    "build_codebook",
    "check_single_deletion",
    "closed_form_gap",
    "divisors",
    "factor",
    "helberg_multipliers",
    "lehmer_count",
    "make_helberg",
    "make_levenshtein",
    "make_svt",
    "make_vt",
    "moebius",
    "ramanujan_sum",
    "ramanujan_sum_direct",
    "residue_product",
    "size",
    "size_upper_bound",
    "svt_sizes_charsum_float",
    "totient",
    "vt_q_size",
    "vt_size",
    "vt_weight_count",
    "vt_weight_enumerator_closed",
    "weight_enumerator",
    "weight_enumerator_charsum_float",
    "weight_enumerator_closed",
    "weight_enumerator_fold",
    "weight_enumerators",
]
