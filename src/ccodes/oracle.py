"""Brute-force ground truth by exhaustive enumeration.

Nothing here shares logic with the residue fold or the closed forms; these
routines enumerate tuples, test the congruence and tally, so every formula
in the package has a dumb independent check at desk scale. All caps are
hard errors, never silent truncation.

Binary codes share one kernel: it streams all 2^k tuples in chunks of 2^14
and gives each tuple its own (residue, weight) key. brute_weight_enumerator
tallies the keys of every residue in one pass per modulus; build_codebook
keeps the tuples of one residue. Neither holds a 2^k-entry table. The
q-ary counts tally every residue of {0..q-1}^k the same way, one pass per
coefficients mod n, n and q, in chunks of at most 2^14 tuples; past
modulus 2^16 they count only the asked residue.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, count, product
from typing import Iterable, Iterator, Sequence

from ._record import Record
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
_TALLY_MAX = 1 << 16  # all-residue tallies have n(k+1) keys (binary), n (q-ary); past this, keep one
_MAX_GRID = 10**7  # q-ary enumeration cap: q^k tuples
_MAX_DELETION_LEN = 16


class Codebook(Record):
    """A materialized binary code: distinct bit-packed words of length k.

    Bit i-1 of a word (least significant first) holds symbol s_i.
    """

    __slots__ = ("k", "words")
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


def _digit_residues(coeffs: Sequence[int], n: int, q: int) -> list[int]:
    # the residue of every tuple over {0..q-1}, one entry per tuple
    residues = [0]
    for a in coeffs:
        residues = [(r + a * d) % n for d in range(q) for r in residues]
    return residues


def _qary_chunks(coeffs: Sequence[int], n: int, q: int) -> Iterator[list[int]]:
    """Yield the residues of every tuple over {0..q-1}^k, at most 2^14 at a time.

    The first c coordinates, q^c <= 2^14 tuples, vary within a chunk and
    the rest, streamed, pick it. When q > 2^14 (c = 0) the first
    coordinate's digits are cut into blocks of 2^14 instead.
    """
    step = 1 << _CHUNK_BITS
    c = 0
    while c < len(coeffs) and q ** (c + 1) <= step:
        c += 1
    if c == 0 and coeffs:
        a = coeffs[0]
        lows: Iterable[list[int]] = (
            [(a * d) % n for d in range(lo, min(q, lo + step))] for lo in range(0, q, step))
        c = 1
    else:
        lows = [_digit_residues(coeffs[:c], n, q)]
    rest = coeffs[c:]
    for low in lows:
        for digits in product(range(q), repeat=len(rest)):
            d = sum(a * x for a, x in zip(rest, digits)) % n
            yield low if d == 0 else [(r + d) % n for r in low]


# (coefficients reduced mod n, n, q, kept residue) and the residue tally of
# the last q-ary count; residue sweeps enumerate once per modulus.
_last_qary: tuple[tuple[tuple[int, ...], int, int, int | None], Counter] | None = None


def _qary_count(coeffs: Sequence[int], n: int, b: int, q: int) -> int:
    """Tuples over {0..q-1}^k with the congruence, from one tally per modulus.

    Each tuple's residue is tallied on its own. A tally of every residue
    has at most n keys; when n exceeds 2^16 only residue b is counted, and
    b joins the memo key.
    """
    global _last_qary
    every = n <= _TALLY_MAX
    key = (tuple(a % n for a in coeffs), n, q, None if every else b)
    memo = _last_qary  # one read, so a concurrent caller cannot swap it midway
    if memo is None or memo[0] != key:
        memo = _last_qary = None  # free the old tally before building the next
        tally = Counter()
        for residues in _qary_chunks(key[0], n, q):
            if every:
                tally.update(residues)
            else:
                tally[b] += residues.count(b)
        memo = _last_qary = key, tally
    return memo[1][b]


def brute_count_zn(coeffs: Iterable[int], n: int, b: int, k: int) -> int:
    """Exhaustive count of solutions over Z_n^k. Capped at n^k <= 10^7.

    One pass tallies every residue and is reused while consecutive calls
    share coefficients mod n and n; past n = 2^16 a pass counts one residue.
    """
    a = list(coeffs)
    if len(a) != k:
        raise ValueError("coefficient list length must equal k")
    if n < 1:
        raise ValueError("modulus must be >= 1")
    if n**k > _MAX_GRID:
        raise CapExceeded(f"{n}^{k} tuples exceeds the {_MAX_GRID} cap")
    return _qary_count(a, n, b % n, n)


def brute_count_qary(coeffs: Iterable[int], n: int, b: int, k: int, q: int) -> int:
    """Exhaustive count over {0..q-1}^k of tuples with the congruence mod n.

    One pass tallies every residue and is reused while consecutive calls
    share coefficients mod n, n and q; past n = 2^16 a pass counts one
    residue. Capped at q^k <= 10^7.
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
    return _qary_count(a, n, b % n, q)


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
