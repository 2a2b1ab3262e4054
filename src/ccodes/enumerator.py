"""Weight enumerators, sizes and counting formulas for congruence codes.

The authoritative paths are exact integer arithmetic with no rounding:
the closed divisor-sum form for the codes whose coefficients are 1..k mod n
with n dividing k + 1 (VT codes among them), and otherwise the residue fold
in ``polyring`` or its meet-in-the-middle split for one residue, as the
cap and the route cost model in ``polyring`` allow and prefer. The fold
and the closed form are checked against each other, and the literal
floating-point character sums here (and brute force in ``oracle``) check
both; those never replace them.

Character-sum background, with e(x) = exp(2 pi i x): the enumerator of the
code a_1 c_1 + ... + a_k c_k = b (mod n) is

    W(z) = (1/n) * sum_{m=1}^{n} e(-b m / n) * prod_j (1 + z e(a_j m / n)),

setting z = 1 collapses the product to cosines and yields an absolute-value
upper bound on the size; splitting it by weight parity adds a sine product
and yields the even and odd sizes. All three sums share one float driver and its
table of phases; the two trigonometric sums read cos and sin off e(t/2n) in one
row builder, and the enumerator sum, which needs only the even phases e(2s/2n),
keeps its polynomial one over a table of n. When the coefficients
run through 1..k mod n and n divides k + 1, the average telescopes into a
Ramanujan-sum closed form over the divisors of n, which depends on b only
through gcd(b, n); VT_b(n) is the case of modulus n + 1 = k + 1.
"""

from __future__ import annotations

import cmath
import math
from functools import reduce
from operator import add, attrgetter, mul
from collections.abc import Callable, Iterable, Iterator, Sequence

from ._record import Record
from .arith import binomial_row, divisors, ramanujan_sum
from .codes import CodeSpec, ParityCodeSpec
from .errors import CapExceeded, IntegralityFailure, NonExactDivision, OutOfDomain
from .polyring import cap_error, mitm_is_cheaper, residue_product, residue_slot, row_counts

__all__ = [
    "WeightEnumerator",
    "weight_enumerator",
    "weight_enumerators",
    "closed_plan",
    "fold_plan",
    "mitm_plan",
    "charsum_float_plan",
    "svt_float_plan",
    "weight_enumerator_closed",
    "weight_enumerator_fold",
    "weight_enumerator_mitm",
    "weight_enumerator_charsum_float",
    "size",
    "size_upper_bound",
    "lehmer_count",
    "closed_form_gap",
    "vt_weight_enumerator_closed",
    "vt_weight_count",
    "vt_size",
    "vt_q_size",
    "svt_sizes_charsum_float",
]


class WeightEnumerator(Record):
    """Weight distribution N_0..N_k of a binary code of block length k.

    counts[t] is the number of codewords of Hamming weight t; each N_t is
    bounded by C(k, t), which also forces the total to stay within 2^k.
    """

    __slots__ = ("k", "counts")
    k: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        k, counts = self.k, self.counts
        if k < 0 or len(counts) != k + 1:
            raise ValueError("counts must list N_0..N_k")
        # C(k, t) = C(k, k - t): half a row bounds N_t and N_{k-t}. Every index
        # of the lower half is below every index of the upper half, and k - t
        # falls as t grows, so the lowest failing index is the first failing
        # N_t, else the last failing N_{k-t}.
        bad = None
        for t, low, top, bound in zip(range(k // 2 + 1), counts, reversed(counts),
                                      binomial_row(k)):
            if not 0 <= low <= bound:
                bad = t
                break
            if not 0 <= top <= bound:
                bad = k - t
        if bad is not None:
            raise ValueError(f"N_{bad} = {counts[bad]} impossible at length {k}")

    def size(self) -> int:
        """Number of codewords, W(1)."""
        return sum(self.counts)

    def evaluate(self, z):
        """W(z) by Horner; any numeric z."""
        acc = 0 * z
        for c in reversed(self.counts):
            acc = acc * z + c
        return acc

    def pretty(self, var: str = "z") -> str:
        return pretty_counts(self.counts, var)


def pretty_counts(counts: Iterable[int], var: str = "z") -> str:
    """Ascending form of the non-negative counts N_0, N_1, ..., e.g. '1 + 2z^2 + z^4'."""
    terms = []
    for t, c in enumerate(counts):
        if c:
            power = "" if t == 0 else var if t == 1 else f"{var}^{t}"
            terms.append(power if c == 1 and t else f"{c}{power}")
    return " + ".join(terms) or "0"


def weight_enumerator(spec: CodeSpec | ParityCodeSpec) -> WeightEnumerator:
    """Exact weight enumerator: the closed form, the fold or meeting in the middle.

    A shifted VT spec gets its base code's counts, the other weight parity
    zeroed. The route is weight_enumerators' for one residue, and a call
    keeps nothing for the next.
    """
    if isinstance(spec, ParityCodeSpec):
        w = weight_enumerator(spec.base)
        return WeightEnumerator(w.k, [c * (t % 2 == spec.parity) for t, c in enumerate(w.counts)])
    return next(weight_enumerators(spec, (spec.residue,)))


def weight_enumerators(code: CodeSpec, residues: Sequence[int]) -> Iterator[WeightEnumerator]:
    """The exact enumerator of code at each residue asked, from one plan of code.

    code's own residue is not read. The closed form answers in its domain,
    once per gcd class; else the fold, if it fits under its cap and two
    residues or more are asked or the cost model (mitm_is_cheaper) prefers it
    for one; else meeting in the middle, for fewer than n residues. The call
    charges the residues to their route's cap and raises CapExceeded at once,
    before anything is built; the plan is built when the first answer is read.
    """
    def answers(route=_route(code, residues)) -> Iterator[WeightEnumerator]:
        yield from map(route(code), residues)

    return answers()


def _route(code: CodeSpec,
           residues: Sequence[int]) -> Callable[[CodeSpec], Callable[[int], WeightEnumerator]]:
    # The exact route of code's plans for the residues asked, charged to its cap; builds
    # nothing. The closed form is charged a row per gcd class asked: tau(n) for them all.
    # Past the fold's cap, n residues or more, the whole code, raise the fold's error
    # rather than meet in the middle n times. Slices count them: len() refuses a huge range.
    n = code.modulus
    if not closed_form_gap(code):
        _check_closed(code.length, n, len({math.gcd(b, n) for b in residues}))
        return _closed_plan
    error = cap_error([code.coefficients], n)
    if error is None:
        if residues[1:2] or not mitm_is_cheaper(tuple(a % n for a in code.coefficients), n):
            return fold_plan
    elif residues[n - 1:n]:
        raise error
    return mitm_plan


def fold_plan(code: CodeSpec) -> Callable[[int], WeightEnumerator]:
    """b -> code's enumerator at residue b, each read off one fold of code built here.

    The fold costs one big-integer add per reached residue and coefficient, at
    most reach(coefficients, n) per coefficient, so huge moduli stay exact.
    """
    k, rows = code.length, residue_product(code.coefficients, code.modulus)
    return lambda b: WeightEnumerator(k, row_counts(rows.get(b, 0), k))


def weight_enumerator_fold(spec: CodeSpec) -> WeightEnumerator:
    """Exact weight enumerator from the residue fold (fold_plan), ``verify``'s exact method."""
    return fold_plan(spec)(spec.residue)


def mitm_plan(code: CodeSpec) -> Callable[[int], WeightEnumerator]:
    """b -> code's enumerator at residue b by meeting in the middle (``polyring.residue_slot``).

    It keeps nothing between residues, and holds about 2^ceil(k/2) rows per
    half instead of the fold's 2^k.
    """
    coeffs, n, k = code.coefficients, code.modulus, code.length
    return lambda b: WeightEnumerator(k, residue_slot(coeffs, n, b))


def weight_enumerator_mitm(spec: CodeSpec) -> WeightEnumerator:
    """Exact weight enumerator by meeting in the middle (mitm_plan)."""
    return mitm_plan(spec)(spec.residue)


# The float routes build one table of phases before they loop, n for the
# enumerator sum and 2n for the others, and their time grows with the n·k·rows
# cells of their products: k+1 rows for the enumerator sum, 2 for the svt sum, 1
# for the size bound. In a fresh process (Python 3.11, a shared 2-vCPU x86-64
# host) the enumerator sum took 69-80 ns a cell: 1.5-1.8 s for 18 coefficients
# at n = 2^16 (2.2e7 cells, 21 MB peak RSS) and 2.4-2.5 s for 22 (3.3e7). VT(n)
# holds about n^3 cells: VT(3000), 2.7e10 of them, would take over half an hour.
_MAX_FLOAT_MODULUS = 1 << 16
_MAX_FLOAT_WORK = 1 << 25

# What a cell of the other float routes costs, in enumerator-sum cells; each
# route's cell cap is _MAX_FLOAT_WORK divided by its cost. At n = 2^16 with
# random coefficients, in fresh processes on the host above, the enumerator sum
# took 69-80 ns a cell, the svt sum 356-450 ns and the size bound 214-271 ns.
# At these caps each route stops within about 3 s: the enumerator sum took
# 2.4-2.5 s for 22 coefficients, the svt sum 2.4-3.0 s for 51 and the bound
# 2.4-3.0 s for 170.
_SVT_CELL_COST = 5
_BOUND_CELL_COST = 3

# Cells (m values times product rows) in one block of the column-wise float
# sums. Building every m at once peaked at 66 MB RSS at the float cap with 18
# coefficients and 122 MB with 40; blocks of 2^16 cells keep both near 24 MB,
# and blocks of 2^14 or 2^15 cells were no faster.
_FLOAT_CELLS = 1 << 16

# Cells of all the blocks that a float plan may keep, so that a residue sweep
# past one block also builds its rows once. A plan this full peaked at 25 MB
# child RSS against 20 MB without it, with 12 or 40 coefficients; 2^19 cells
# peaked at 35 MB. The plan also keeps its table of n or 2n phases, at
# most 2^17 complex numbers (about 5 MB) at n = 2^16, which every call builds
# anyway: a four-residue sweep of the svt sum at n = 2^16 and the two sweeps
# above peaked at the same RSS with the table kept as without it.
_FLOAT_MEMO_CELLS = 1 << 18


def _check_float(n: int, k: int, rows: int, cost: int = 1) -> None:
    if n > _MAX_FLOAT_MODULUS:
        raise CapExceeded(f"modulus {n} exceeds the float cap of {_MAX_FLOAT_MODULUS}")
    cap = _MAX_FLOAT_WORK // cost
    if n * k * rows > cap:
        raise CapExceeded(f"{n * k * rows} float cells exceeds the cap of {cap}")


def _float_scale(k: int, n: int) -> float:
    # 2^k / n; a float holds 2^k only for k < 1024
    try:
        return 2.0**k / n
    except OverflowError:
        raise IntegralityFailure(f"scale 2^{k} / {n} overflows a float") from None


def _rounded(what: str, raws: Iterable[complex]) -> tuple[list[int], float]:
    # the rounded real parts and the largest |raw - rounded|; IntegralityFailure past 1e-6,
    # then from 2^52 on, where neighbouring floats lie 1 or more apart and rounding hides errors
    ints, dev = [], 0.0
    for raw in raws:
        r = round(raw.real)
        dev = max(dev, abs(raw - r))
        ints.append(r)
    if dev > 1e-6:
        raise IntegralityFailure(f"{what} off integer by {dev:g}")
    if max(map(abs, ints)) >= 1 << 52:
        raise IntegralityFailure(f"{what} reaches 2^52, where a float stops resolving integers")
    return ints, dev


def _stepped(phases: list, a: int, ms: range) -> list:
    # [phases[a * m % len(phases)] for m in ms], with a * m stepped through by a range
    size = len(phases)
    if not a:
        return [phases[0]] * len(ms)
    return [phases[s % size] for s in range(a * ms.start, a * ms.stop, a)]


def _float_plan(code: CodeSpec, width: int, size: int, build: Callable[..., list[list]],
                reads: tuple = ()) -> Callable[[int], list[complex]]:
    """eta -> [sum_{m=1}^{n} e(eta m / size) row_t[m] for each of width rows], n = code.modulus.

    size is n or 2n, and phases[t] = e(t / size), each from the cmath.exp
    argument of entry t * 2n / size of a table of e(t / 2n), so a table of n
    holds the even phases of a table of 2n bit for bit. build(ms, *tables)
    gives a block's rows, each a list over ms, from the phase table mapped
    through each f of reads, or from the phase table itself without reads. A
    block of consecutive m holds at most _FLOAT_CELLS cells, or one m. When
    all n * width cells fit in _FLOAT_MEMO_CELLS the table and the blocks are
    built here, once for every eta, else at each call. At eta = 0 every phase
    is exactly 1+0j, so each real part is the float sum of the rows.
    """
    n = code.modulus
    step = max(1, _FLOAT_CELLS // width)

    def tabled() -> tuple[list, Iterable]:
        phases = [cmath.exp(1j * math.pi * t / n) for t in range(0, 2 * n, 2 * n // size)]
        tables = [list(map(read, phases)) for read in reads] or [phases]
        blocks = (range(start, min(start + step, n + 1)) for start in range(1, n + 1, step))
        return phases, ((ms, build(ms, *tables)) for ms in blocks)

    if n * width <= _FLOAT_MEMO_CELLS:
        phases, built = tabled()
        kept = phases, list(built)
        tabled = lambda: kept  # noqa: E731

    def sums(eta: int) -> list[complex]:
        phases, built = tabled()
        acc = [0j] * width
        for ms, rows in built:
            row_phases = _stepped(phases, eta, ms)
            for t, row in enumerate(rows):  # a left fold: sum() compensates from Python 3.12 on
                acc[t] = reduce(add, map(mul, row_phases, row), acc[t])
        return acc

    return sums


def _trig_plan(code: CodeSpec, reads: tuple) -> Callable[[int], list[complex]]:
    """two_eta -> [sum_{m=1}^{n} e(eta m / n) prod_j f(e(a_j m / 2n)) for each f of reads].

    eta comes as the integer two_eta = 2 eta, and each f reads the table of
    e(t / 2n) = cos(pi t / n) + i sin(pi t / n). The products are built
    column-wise, one row per f; every m sees the same multiplications in the
    same order as a product on its own.
    """
    n2 = 2 * code.modulus
    coeffs = [a % n2 for a in code.coefficients]

    def build(ms: range, *tables: list) -> list[list]:
        rows = [[1.0] * len(ms) for _ in tables]
        for a in coeffs:
            rows = [list(map(mul, row, _stepped(table, a, ms))) for row, table in zip(rows, tables)]
        return rows

    return _float_plan(code, len(reads), n2, build, reads)


def charsum_float_plan(code: CodeSpec) -> Callable[[int], tuple[WeightEnumerator, float]]:
    """b -> weight_enumerator_charsum_float at residue b, from one set of products of code."""
    k, n = code.length, code.modulus
    _check_float(n, k, k + 1)

    def build(ms: range, phases: list) -> list[list]:
        # the products column-wise over the table of the n phases e(s / n): row t holds the
        # z^t coefficient of every product of the block, and each coefficient updates the rows
        # from the top down, a C-level map a row. Every m sees the same operations in the same
        # order as a product built on its own
        ones = [1 + 0j] * len(ms)
        rows = [ones]
        for a in code.coefficients:
            w = _stepped(phases, a % n, ms)
            # row t gains w times row t-1, from the top down; w times 1+0j is w bit for bit
            rows.append(w if rows[-1] is ones else list(map(mul, w, rows[-1])))
            for t in range(len(rows) - 2, 0, -1):
                prev = rows[t - 1]
                rows[t] = list(map(add, rows[t], w if prev is ones else map(mul, w, prev)))
        return rows

    sums = _float_plan(code, k + 1, n, build)

    def charsum(b: int) -> tuple[WeightEnumerator, float]:
        raws = [x / n for x in sums(-b)]
        if not all(map(cmath.isfinite, raws)):  # the products' coefficients passed the float range
            raise IntegralityFailure(f"character sum of {k} coefficients overflows a float")
        counts, dev = _rounded("character sum", raws)
        return WeightEnumerator(k, counts), dev

    return charsum


def weight_enumerator_charsum_float(spec: CodeSpec) -> tuple[WeightEnumerator, float]:
    """Literal complex evaluation of the character-sum enumerator.

    Averages prod_j (1 + z e(a_j m / n)) against e(-b m / n) over
    m = 1..n in floating point, rounds every coefficient to the nearest
    integer and returns the rounded enumerator together with the largest
    distance |raw - rounded| seen (imaginary leakage included). Raises
    IntegralityFailure when that distance exceeds 1e-6, a coefficient
    overflows a float (past about 1030 coefficients) or reaches 2^52, where
    rounding stops showing an error, and CapExceeded,
    before building anything, past the float modulus or cell cap. Advisory
    path; exact results come from weight_enumerator.
    """
    return charsum_float_plan(spec)(spec.residue)


def size(spec: CodeSpec | ParityCodeSpec) -> int:
    """Exact codeword count, W(1); of one weight parity for a shifted VT spec."""
    return weight_enumerator(spec).size()


def size_upper_bound(spec: CodeSpec) -> float:
    """Upper bound (2^k / n) * sum_m prod_j |cos(pi a_j m / n)| on the size.

    The svt sum's kernel with one |cos| table and unit phases. Before
    building anything: CapExceeded past the float modulus or cell cap, then
    IntegralityFailure when 2^k overflows a float (k >= 1024).
    """
    k = len(spec.coefficients)
    n = spec.modulus
    _check_float(n, k, 1, _BOUND_CELL_COST)
    scale = _float_scale(k, n)
    [acc] = _trig_plan(spec, (lambda phase: abs(phase.real),))(0)
    return scale * acc.real


def lehmer_count(coeffs: Iterable[int], n: int, b: int) -> int:
    """Solutions of a_1 x_1 + ... + a_k x_k = b (mod n) over all of Z_n^k.

    With l = gcd(a_1, ..., a_k, n): zero when l does not divide b, else
    l * n^(k-1).
    """
    if n < 1:
        raise ValueError("modulus must be >= 1")
    a = list(coeffs)
    k = len(a)
    l = math.gcd(n, *a)
    if (b % n) % l:
        return 0
    if k == 0:
        return 1
    return l * n ** (k - 1)


def closed_form_gap(spec: CodeSpec) -> str:
    """Why weight_enumerator_closed does not cover spec; "" when it does.

    Its domain: the modulus n divides k + 1, and among the coefficients
    reduced mod n every nonzero residue occurs (k + 1) / n times and 0 occurs
    (k + 1) / n - 1 times, as in 1..k, in any order and with any signs. VT
    codes, Helberg codes with s = 1 and Levenshtein codes with n | k + 1 lie
    in it. O(k + n).
    """
    coeffs, n = spec.coefficients, spec.modulus
    k = len(coeffs)
    if (k + 1) % n:
        return f"modulus {n} does not divide k+1 = {k + 1}"
    occurs = [0] * n
    for a in coeffs:
        occurs[a % n] += 1
    occurs[0] += 1  # 1..k mod n holds every residue (k + 1) / n times, less one 0
    if occurs.count((k + 1) // n) != n:
        return f"coefficients mod {n} are not 1..{k} mod {n}"
    return ""


def closed_plan(code: CodeSpec) -> Callable[[int], WeightEnumerator]:
    """b -> code's enumerator at residue b from the closed form, once per gcd class.

    A new class gcd(b, n) is charged a row for itself and one for each class
    kept before it is built, so the plan stays under the cap (_check_closed)
    whatever it is asked. OutOfDomain, with closed_form_gap's reason, outside
    the form's domain.
    """
    if gap := closed_form_gap(code):
        raise OutOfDomain(gap)
    return _closed_plan(code)


def _closed_plan(code: CodeSpec) -> Callable[[int], WeightEnumerator]:
    # closed_plan of a code in the domain, which the caller has checked
    k, n, classes = code.length, code.modulus, {}

    def closed(b: int) -> WeightEnumerator:
        g = math.gcd(b, n)  # n for b = 0
        w = classes.get(g)
        if w is None:
            _check_closed(k, n, len(classes) + 1)
            w = classes[g] = _closed_form(k, n, g)
        return w

    return closed


def weight_enumerator_closed(spec: CodeSpec) -> WeightEnumerator:
    """Exact weight enumerator from the closed divisor sum over the divisors of n (closed_plan)."""
    return closed_plan(spec)(spec.residue)


# The closed form's cap, on the bits of its row of k+2 integers: the divisor sum
# n (1 + z) W_b(z) and its partial sums stay below n 2^(k+1) a coefficient, so a
# row is charged (k+2) (k+1 + the bits of n), and a sweep one row per gcd class.
# Child peak RSS and time (Python 3.11, x86-64) of table --quantity size at b = 0:
# VT(20000) 52 MB and 0.40 s, VT(30000) 99 MB and 0.71 s, VT(40000) 165 MB and
# 1.2 s; at --b all, the two classes of VT(28350) 178 MB. The cap admits VT(n) up
# to n = 40122, and two-class sweeps up to VT(28350), near the fold cap's 171-179 MB.
_MAX_CLOSED_BITS = 3 << 29


def _check_closed(k: int, n: int, classes: int = 1) -> None:
    # CapExceeded when classes rows of the closed form at (k, n) pass _MAX_CLOSED_BITS
    bits = classes * (k + 2) * (k + 1 + n.bit_length())
    if bits > _MAX_CLOSED_BITS:
        raise CapExceeded(f"up to {bits} closed-form bits exceeds the cap of {_MAX_CLOSED_BITS}")


def _closed_form(k: int, n: int, b: int) -> WeightEnumerator:
    """W_b(z) = (1/n) sum_{d | n} c_d(b) (1 - (-z)^d)^((k+1)/d) / (1 + z), n | k + 1.

    Expands each divisor's term one binomial row at a time, then divides by
    n and by z+1, the latter as a running alternating sum. Both divisions
    are exact for every k, n and b of the domain, and both are checked:
    NonExactDivision here signals a bug. Each quotient overwrites the divisor
    sum it came from, and the list becomes the enumerator's counts, so the
    route holds one row of k+2 big integers, not two. Raises CapExceeded
    past _MAX_CLOSED_BITS before it allocates the row.
    """
    _check_closed(k, n)
    total = [0] * (k + 2)
    for d in divisors(n):
        c = ramanujan_sum(d, b)
        if c == 0:
            continue
        # c (1 + z^d)^((k+1)/d) for odd d, c (1 - z^d)^((k+1)/d) for even d
        odd = c if d % 2 else -c
        for i, binom in enumerate(binomial_row((k + 1) // d)):
            total[d * i] += (odd if i % 2 else c) * binom
    quotient = 0  # coefficient of z^i in the quotient by 1 + z, then the remainder
    for i, coeff in enumerate(total):
        v, rem = divmod(coeff, n)
        if rem:  # VT_b(n) has modulus n+1
            raise NonExactDivision(f"divisor sum not divisible by {'n+1' if n == k + 1 else 'n'}")
        quotient = total[i] = v - quotient
    if total.pop():
        raise NonExactDivision("divisor sum not divisible by 1 + z")
    return WeightEnumerator(k, total)


def _check_vt(n: int, b: int) -> None:
    if n < 1:
        raise ValueError("VT length must be >= 1")
    if not 0 <= b <= n:
        raise ValueError(f"residue {b} not in [0, {n + 1})")


def vt_weight_enumerator_closed(n: int, b: int) -> WeightEnumerator:
    """Closed-form VT_b(n) weight enumerator via Ramanujan sums.

    The closed form of weight_enumerator_closed with k = n and modulus n+1,
    under the same cap, evaluated afresh on every call.
    """
    _check_vt(n, b)
    return _closed_form(n, n + 1, b)


def _divisor_sum(n: int, b: int, term: Callable[[int], int], denominator: int,
                 message: str) -> int:
    """(sum over d | n of c_d(b) term(d)) / denominator, with c_d(b) only where term(d) != 0.

    The closed counts divide exactly for every valid input, so a remainder
    signals a bug: NonExactDivision with the caller's message.
    """
    total = sum(ramanujan_sum(d, b) * t for d in divisors(n) if (t := term(d)))
    v, rem = divmod(total, denominator)
    if rem:
        raise NonExactDivision(message)
    return v


def vt_weight_count(n: int, b: int, t: int) -> int:
    """Number of weight-t words in VT_b(n), without building the enumerator.

    N_t = ((-1)^t / (n+1)) * sum_{d | n+1} (-1)^floor(t/d) c_d(b)
          * C((n+1)/d - 1, floor(t/d)).
    """
    _check_vt(n, b)
    if not 0 <= t <= n:
        raise ValueError(f"weight {t} not in [0, {n}]")
    q = n + 1
    return _divisor_sum(q, b, lambda d: (-1) ** (t + t // d) * math.comb(q // d - 1, t // d),
                        q, "weight-class sum not divisible by n+1")


def vt_size(n: int, b: int) -> int:
    """|VT_b(n)| = (1 / (2(n+1))) * sum over odd d | n+1 of c_d(b) 2^((n+1)/d)."""
    _check_vt(n, b)
    return _divisor_sum(n + 1, b, lambda d: (1 << ((n + 1) // d)) if d % 2 else 0,
                        2 * (n + 1), "size sum not divisible by 2(n+1)")


def vt_q_size(n: int, b: int, q: int) -> int:
    """q-ary VT code size over the divisors of n+1 coprime to q.

    Counts n-tuples over {0..q-1} with sum_j j*x_j = b (mod n+1); q = 2
    reduces to vt_size, q = 1 leaves only the all-zero tuple.
    """
    if q < 1:
        raise ValueError("alphabet size must be >= 1")
    _check_vt(n, b)
    return _divisor_sum(n + 1, b, lambda d: q ** ((n + 1) // d) if math.gcd(d, q) == 1 else 0,
                        q * (n + 1), "q-ary size sum not divisible by q(n+1)")


def svt_float_plan(code: CodeSpec) -> Callable[[int], tuple[int, int, float]]:
    """b -> svt_sizes_charsum_float of code's residue b, from one set of products of code."""
    k, n = code.length, code.modulus
    _check_float(n, k, 2, _SVT_CELL_COST)
    scale = _float_scale(k - 1, n)
    sums = _trig_plan(code, (attrgetter("real"), attrgetter("imag")))
    i_k, sign, total = (1, 1j, -1, -1j)[k % 4], -1 if k % 2 else 1, sum(code.coefficients)

    def svt(b: int) -> tuple[int, int, float]:
        acc_a, acc_b = sums(total - 2 * b)
        b_term = i_k * acc_b  # i^k * prod(sin) terms
        (even, odd), dev = _rounded("parity character sum", (scale * (acc_a + sign * b_term),
                                                             scale * (acc_a - sign * b_term)))
        if even < 0 or odd < 0:
            raise IntegralityFailure(f"parity character sum off integer by {dev:g}")
        return even, odd, dev

    return svt


def svt_sizes_charsum_float(spec: ParityCodeSpec) -> tuple[int, int, float]:
    """Floating-point parity-split sizes from the cosine/sine product form.

    With A_m = prod_j cos(pi a_j m / n) and B_m = prod_j i sin(pi a_j m / n),
    the even count is (2^(k-1)/n) sum_m e(eta m / n) (A_m + (-1)^k B_m) and
    the odd count flips the sign of the B_m term; eta = -b + (sum_j a_j)/2.
    Both products come from one column-wise pass of the bound's kernel.
    Returns (even, odd, max residual), or IntegralityFailure past 1e-6 or
    when a size reaches 2^52, where rounding stops showing an error.
    Before building anything: CapExceeded past the float modulus or cell
    cap, then IntegralityFailure when 2^(k-1) overflows a float (k >= 1025).
    """
    return svt_float_plan(spec.base)(spec.base.residue)
