"""Brute-force ground truth by exhaustive enumeration.

Nothing here shares logic with the residue fold or the closed forms; these
routines enumerate tuples, test the congruence and count, so every formula
in the package has a dumb independent check at desk scale. All caps are
hard errors, never silent truncation.

Binary codes share one enumeration: the tuples of the first c = min(k, 14)
coordinates are listed once, and each of the 2^(k-c) prefixes over the
other coordinates picks them, so no 2^k-entry table is held.
brute_weight_enumerator counts one residue b per call: it keeps the low
tuples' residues grouped by weight, one str character per tuple (an int
in a list past modulus 0x110000), and for each prefix counts the entries
that make a·x = b, a C-level str.count that still tests every tuple on its
own. While the modulus is at most the 2^c low tuples, a coefficient a
is added to every residue of a weight class by one C-level str.translate
through the alphabet chr(0)..chr(n-1) rotated by a; past that the
n-character alphabet would outweigh the residues, so they are summed in a
list and joined. build_codebook keeps, for each prefix, the low tuples
whose residue completes b. The q-ary counts enumerate {0..q-1}^k for every
call: the residues of the first c coordinates, the most with q^c <= 2^14,
are listed once, and each residue p over the other coordinates counts
those equal to b - p.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from itertools import compress, count

from ._record import Record
from .codes import CodeSpec, _residue
from .enumerator import WeightEnumerator
from .errors import CapExceeded

__all__ = [
    "Codebook",
    "build_codebook",
    "brute_plan",
    "brute_weight_enumerator",
    "brute_count_qary",
    "check_single_deletion",
]

# Binary cap, for time. At k = 24 (child process, Python 3.11, x86-64) the
# five residues of modulus 5 took about 0.2 s whole-process and 15 MB peak RSS;
# in process one residue took 0.02 s at modulus 25, 0.003 s at 1000, and a
# codebook 1.5 s at 10^9+7.
_MAX_TUPLE_BITS = 24
_CHUNK_BITS = 14  # low tuples 2^14: their residues stay near 0.5 MB
_CHARS = 0x110000  # moduli up to this hold a residue as one str character
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


def _digit_sums(steps: Sequence[int], wrap: int, q: int) -> list[int]:
    # the sums mod wrap of d·steps over every digit tuple d in {0..q-1}^len(steps), first
    # digit fastest (for q = 2, the subsets x of steps in the binary order of x)
    keys = [0]
    for step in steps:
        keys += [(x + d * step) % wrap for d in range(1, q) for x in keys]
    return keys


def _check_tuples(k: int) -> None:
    if k > _MAX_TUPLE_BITS:
        raise CapExceeded(f"2^{k} tuples exceeds the 2^{_MAX_TUPLE_BITS} cap")


def _cells(coeffs: Sequence[int], n: int) -> tuple[list, list[int]]:
    """The low tuples' residues by weight, and the high prefixes' keys.

    cells[w] has one entry per tuple of weight w over the first
    c = min(k, 14) coordinates: chr(residue) in a str when n <= 0x110000,
    the int residue in a list beyond. Up to n = 2^c a class plus a is the
    class translated through the alphabet rotated by a; past it the rotated
    alphabet could dwarf the 2^c residues (a child verify at n = 10^6 and
    k = 2 peaked at 102 MB, against 18 MB for the list), so the residues
    are summed one by one. The prefixes are the keys (k+1)·residue + weight
    of the tuples over the other coordinates. Raises CapExceeded past the
    2^24-tuple cap before building anything.
    """
    k = len(coeffs)
    _check_tuples(k)
    c = min(k, _CHUNK_BITS)
    prefixes = _digit_sums([(k + 1) * a + 1 for a in coeffs[c:]], (k + 1) * n, 2)
    if n <= 1 << c:  # the n-character alphabet costs no more than the 2^c residues
        alphabet = "".join(map(chr, range(n)))
        cells = [chr(0)]
        for a in coeffs[:c]:  # weight w: the old class w, and class w-1 plus a
            plus_a = alphabet[a % n:] + alphabet[:a % n]  # chr(r) -> chr((r + a) % n)
            cells = [x + y.translate(plus_a) for x, y in zip(cells + [""], [""] + cells)]
        return cells, prefixes
    cells = [[0]]
    for a in coeffs[:c]:
        cells = [x + [(r + a) % n for r in y] for x, y in zip(cells + [[]], [[]] + cells)]
    if n <= _CHARS:
        cells = ["".join(map(chr, cell)) for cell in cells]
    return cells, prefixes


def _count(cells: list, prefixes: list[int], n: int, b: int, width: int) -> list[int]:
    # test a·x = b mod n for every tuple, one str.count per prefix and low weight
    pick = chr if n <= _CHARS else int
    counts = [0] * width
    for key in prefixes:
        p, v = divmod(key, width)
        target = pick((b - p) % n)
        for w, cell in enumerate(cells, v):
            counts[w] += cell.count(target)
    return counts


def brute_plan(code: CodeSpec) -> Callable[[int], WeightEnumerator]:
    """b -> brute_weight_enumerator of code's residue b, from one grouping of its low tuples."""
    k, n = code.length, code.modulus
    cells, prefixes = _cells([a % n for a in code.coefficients], n)
    return lambda b: WeightEnumerator(k, _count(cells, prefixes, n, _residue(b, n), k + 1))


def brute_weight_enumerator(spec: CodeSpec) -> WeightEnumerator:
    """Enumerate all 2^k binary tuples and count code membership by weight.

    Every call counts its one residue: for every tuple it tests the
    congruence, a C-level str.count over the low tuples of each weight
    under each high prefix; brute_plan groups those once per code. At
    k = 24 a residue costs 0.02 s at modulus 25 and 0.005 s at 2621, so a
    sweep of 25 residues takes 0.5 s. The trade: all 2621 residues of
    k = 24, n = 2621 took 11-14 s, where one tally of every residue took 3 s.
    Tuples are never held as a 2^k-entry table. Capped at k <= 24 for
    time; at k = 24 a child process peaked at 15 MB RSS, most of it the
    interpreter.
    """
    return brute_plan(spec)(spec.residue)


def build_codebook(spec: CodeSpec) -> Codebook:
    """Materialize every codeword of a spec, bit-packed.

    The residues of the tuples over the first c = min(k, 14) coordinates
    are listed once; each of the 2^(k-c) prefixes over the others keeps
    those equal to b minus its own residue, so only the codewords are
    held (1.5 s and 15 MB peak RSS in a child at k = 24 with modulus
    10^9+7). Same k <= 24 cap.
    """
    coeffs, n, b = spec.coefficients, spec.modulus, spec.residue
    k = len(coeffs)
    _check_tuples(k)
    c = min(k, _CHUNK_BITS)
    low = _digit_sums(coeffs[:c], n, 2)
    words: list[int] = []
    for h, p in enumerate(_digit_sums(coeffs[c:], n, 2)):
        words += compress(count(h << c), map(((b - p) % n).__eq__, low))
    return Codebook(k, tuple(words))


def _qary_count(coeffs: Sequence[int], n: int, b: int, q: int) -> int:
    # tuples over {0..q-1}^k with the congruence, each tuple's residue tested on its own: the
    # first c coordinates, the most with q^c <= 2^14, are listed once, and each residue p over
    # the others counts the listed residues equal to b - p
    c = next(j for j in range(len(coeffs), -1, -1) if q**j <= 1 << _CHUNK_BITS)
    if c == 0 and coeffs:  # q > 2^14, so the q^k cap leaves k = 1: its digits one at a time
        return sum(coeffs[0] * d % n == b for d in range(q))
    low = _digit_sums(coeffs[:c], n, q)
    return sum(low.count((b - p) % n) for p in _digit_sums(coeffs[c:], n, q))


def brute_count_qary(coeffs: Iterable[int], n: int, b: int, k: int, q: int) -> int:
    """Exhaustive count over {0..q-1}^k of tuples with the congruence mod n.

    Every call enumerates all q^k tuples and counts its one residue. Capped
    at q^k <= 10^7.
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
