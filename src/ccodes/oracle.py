"""Brute-force ground truth by exhaustive enumeration.

Nothing here shares logic with the residue fold or the closed forms; these
routines enumerate tuples, test the congruence and tally, so every formula
in the package has a dumb independent check at desk scale. All caps are
hard errors, never silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .codes import CodeSpec
from .enumerator import WeightEnumerator
from .errors import CapExceeded

__all__ = [
    "Codebook",
    "build_codebook",
    "brute_weight_enumerator",
    "brute_count_zn",
    "brute_count_qary",
    "check_single_deletion",
]

_MAX_TUPLE_BITS = 24  # binary cap: the 2^k-int residue table peaked at 657 MB RSS at k=24
_MAX_GRID = 10**7  # q-ary enumeration cap: q^k tuples
_MAX_DELETION_LEN = 16


@dataclass(frozen=True)
class Codebook:
    """A materialized binary code: distinct bit-packed words of length k.

    Bit i-1 of a word (least significant first) holds symbol s_i.
    """

    k: int
    words: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("word length must be >= 0")
        if len(set(self.words)) != len(self.words):
            raise ValueError("codebook words must be distinct")
        for w in self.words:
            if not 0 <= w < (1 << self.k):
                raise ValueError(f"word {w} does not fit in {self.k} bits")

    @classmethod
    def from_strings(cls, strings: Sequence[str]) -> "Codebook":
        """Build from bit strings like '1001', first character = s_1."""
        if not strings:
            return cls(0, ())
        k = len(strings[0])
        words = []
        for s in strings:
            if len(s) != k or set(s) - {"0", "1"}:
                raise ValueError(f"bad codeword string {s!r}")
            words.append(sum(1 << i for i, ch in enumerate(s) if ch == "1"))
        return cls(k, tuple(words))

    def to_strings(self) -> list[str]:
        return [
            "".join("1" if (w >> i) & 1 else "0" for i in range(self.k))
            for w in self.words
        ]


def _residue_table(coeffs: Sequence[int], n: int, k: int) -> list[int]:
    # rs[x] = weighted sum of the tuple encoded by x, reduced mod n
    a = [c % n for c in coeffs]
    rs = [0] * (1 << k)
    for x in range(1, 1 << k):
        low = x & -x
        r = rs[x ^ low] + a[low.bit_length() - 1]
        if r >= n:
            r -= n
        rs[x] = r
    return rs


def brute_weight_enumerator(spec: CodeSpec) -> WeightEnumerator:
    """Enumerate all 2^k binary tuples and tally code membership by weight.

    Capped at k <= 24: time and memory both grow as 2^k, and the residue
    table alone peaks near 660 MB at k = 24.
    """
    k = spec.length
    if k > _MAX_TUPLE_BITS:
        raise CapExceeded(f"2^{k} tuples exceeds the 2^{_MAX_TUPLE_BITS} cap")
    rs = _residue_table(spec.coefficients, spec.modulus, k)
    b = spec.residue
    counts = [0] * (k + 1)
    for x, r in enumerate(rs):
        if r == b:
            counts[x.bit_count()] += 1
    return WeightEnumerator(k, counts)


def build_codebook(spec: CodeSpec) -> Codebook:
    """Materialize every codeword of a spec, bit-packed. Same k <= 24 cap."""
    k = spec.length
    if k > _MAX_TUPLE_BITS:
        raise CapExceeded(f"2^{k} tuples exceeds the 2^{_MAX_TUPLE_BITS} cap")
    rs = _residue_table(spec.coefficients, spec.modulus, k)
    b = spec.residue
    return Codebook(k, tuple(x for x, r in enumerate(rs) if r == b))


def _odometer_count(coeffs: Sequence[int], n: int, b: int, k: int, q: int) -> int:
    # lexicographic sweep of {0..q-1}^k with partial congruence sums
    if k == 0 or q == 1:
        return 1 if b == 0 else 0
    a = [c % n for c in coeffs]
    digits = [0] * k
    psum = [0] * (k + 1)
    count = 0
    lo = 0
    while True:
        for i in range(lo, k):
            psum[i + 1] = (psum[i] + a[i] * digits[i]) % n
        if psum[k] == b:
            count += 1
        i = k - 1
        while i >= 0 and digits[i] == q - 1:
            digits[i] = 0
            i -= 1
        if i < 0:
            return count
        digits[i] += 1
        lo = i


def brute_count_zn(coeffs: Iterable[int], n: int, b: int, k: int) -> int:
    """Exhaustive count of solutions over Z_n^k. Capped at n^k <= 10^7."""
    a = list(coeffs)
    if len(a) != k:
        raise ValueError("coefficient list length must equal k")
    if n < 1:
        raise ValueError("modulus must be >= 1")
    if n**k > _MAX_GRID:
        raise CapExceeded(f"{n}^{k} tuples exceeds the {_MAX_GRID} cap")
    return _odometer_count(a, n, b % n, k, n)


def brute_count_qary(coeffs: Iterable[int], n: int, b: int, k: int, q: int) -> int:
    """Exhaustive count over {0..q-1}^k of tuples with the congruence mod n.

    Capped at q^k <= 10^7.
    """
    a = list(coeffs)
    if len(a) != k:
        raise ValueError("coefficient list length must equal k")
    if n < 1:
        raise ValueError("modulus must be >= 1")
    if q < 1:
        raise ValueError("alphabet size must be >= 1")
    if q**k > _MAX_GRID:
        raise CapExceeded(f"{q}^{k} tuples exceeds the {_MAX_GRID} cap")
    return _odometer_count(a, n, b % n, k, q)


def check_single_deletion(book: Codebook) -> bool:
    """True iff no two distinct codewords share a one-symbol-deleted subsequence.

    Every codeword of length k yields up to k subsequences of length k-1;
    the code corrects one deletion exactly when these balls are pairwise
    disjoint. Capped at k <= 16.
    """
    if book.k > _MAX_DELETION_LEN:
        raise CapExceeded(f"length {book.k} exceeds the {_MAX_DELETION_LEN} cap")
    owner: dict[int, int] = {}
    for w in book.words:
        for i in range(book.k):
            low = w & ((1 << i) - 1)
            sub = ((w >> (i + 1)) << i) | low
            if owner.setdefault(sub, w) != w:
                return False
    return True
