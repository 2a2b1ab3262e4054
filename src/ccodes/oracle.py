"""Brute-force ground truth by exhaustive enumeration.

Nothing here shares logic with the residue fold or the closed forms; these
routines enumerate tuples, test the congruence and tally, so every formula
in the package has a dumb independent check at desk scale. All caps are
hard errors, never silent truncation.

Binary codes share one kernel: it streams all 2^k tuples in chunks of 2^14
and gives each tuple its own (residue, weight) key. brute_weight_enumerator
tallies the keys of every residue in one pass per modulus; build_codebook
keeps the tuples of one residue. Neither holds a 2^k-entry table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress, count
from typing import Iterable, Iterator, Sequence

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

_MAX_TUPLE_BITS = 24  # binary cap, for time: about 3 s and 18 MB peak RSS at k=24
_CHUNK_BITS = 14  # tuples per chunk 2^14: the chunk's keys stay near 0.5 MB
_TALLY_MAX = 1 << 16  # an all-residue tally has at most n(k+1) keys; past this, keep one residue
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


def _subset_keys(coeffs: Sequence[int], width: int, wrap: int) -> list[int]:
    # keys of the subsets x of coeffs, in the binary order of x, by list doubling
    keys = [0]
    for a in coeffs:
        step = width * a + 1
        keys += [(x + step) % wrap for x in keys]
    return keys


def _chunks(coeffs: Sequence[int], n: int, shift: int) -> Iterator[tuple[int, list[int]]]:
    """Yield (first word, keys) chunk by chunk over every binary k-tuple, in order.

    The key of tuple x is (k+1)·((a·x - shift) mod n) + wt(x). Weights stay
    below k+1, so adding a low key to a prefix key and reducing mod (k+1)·n
    gives the tuple's key. The first c = min(k, 14) coordinates vary within
    a chunk and the rest pick it, so memory is 2^c + 2^(k-c) keys. Raises
    CapExceeded past the 2^24-tuple cap before building anything.
    """
    k = len(coeffs)
    if k > _MAX_TUPLE_BITS:
        raise CapExceeded(f"2^{k} tuples exceeds the 2^{_MAX_TUPLE_BITS} cap")
    width, c = k + 1, min(k, _CHUNK_BITS)
    wrap = width * n
    low = _subset_keys(coeffs[:c], width, wrap)
    for h, prefix in enumerate(_subset_keys(coeffs[c:], width, wrap)):
        d = prefix - width * shift
        yield h << c, low if d == 0 else [(x + d) % wrap for x in low]  # low is reduced


# (coefficients reduced mod n, n, shift) and the tally of the last
# brute_weight_enumerator call; residue sweeps enumerate once per modulus.
_last_tally: tuple[tuple[tuple[int, ...], int, int], Counter] | None = None


def brute_weight_enumerator(spec: CodeSpec) -> WeightEnumerator:
    """Enumerate all 2^k binary tuples and tally code membership by weight.

    One pass tallies every residue by (residue, weight) and is reused while
    consecutive calls share coefficients mod n and n, so a residue sweep
    enumerates once per modulus. When n(k+1) exceeds 2^16 the tally could
    grow toward 2^k entries, so only the asked residue is kept. Tuples are
    streamed in chunks of 2^14. Capped at k <= 24 for time; at k = 24 with
    modulus 10^9+7 a child process peaked at 18 MB RSS, 16 MB of it the
    interpreter.
    """
    global _last_tally
    k = spec.length
    n = spec.modulus
    width = k + 1
    every = n * width <= _TALLY_MAX
    shift = 0 if every else spec.residue  # (k, n) fix the path, so the key needs no flag
    key = (tuple(a % n for a in spec.coefficients), n, shift)
    memo = _last_tally  # one read, so a concurrent caller cannot swap it midway
    if memo is None or memo[0] != key:
        memo = _last_tally = None  # free the old tally before building the next
        tally = Counter()
        for _, keys in _chunks(key[0], n, shift):
            tally.update(keys if every else filter(width.__gt__, keys))
        memo = _last_tally = key, tally
    base = width * (spec.residue - shift)
    return WeightEnumerator(k, [memo[1][base + t] for t in range(width)])


def build_codebook(spec: CodeSpec) -> Codebook:
    """Materialize every codeword of a spec, bit-packed.

    Streams the same chunks as brute force, so only the codewords are held
    (18 MB peak RSS at k = 24 with modulus 10^9+7). Same k <= 24 cap.
    """
    width = spec.length + 1
    words: list[int] = []
    for first, keys in _chunks(spec.coefficients, spec.modulus, spec.residue):
        words += compress(count(first), map(width.__gt__, keys))
    return Codebook(spec.length, tuple(words))


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
