"""The residue-indexed product fold of weight generating polynomials.

The fold splits the weight generating polynomial of all binary tuples
across the residues of a congruence sum: slot r collects z^weight over the
tuples whose weighted sum is r mod n.

Folding in one coefficient a is

    slot[r] <- slot[r] + z * slot[(r - a) mod n]

which is multiplication by (1 + z x^a) in the group ring Z[z][Z_n]. After
the whole coefficient list has been folded, slot b holds exactly the
integers that the averaged complex character sum would produce, with no
floating point and no rounding anywhere.

Each slot is packed into one Python integer, the coefficient of z^t in bits
[t(k+1), (t+1)(k+1)): Kronecker substitution of z = 2^(k+1). No coefficient
exceeds C(k, t) < 2^(k+1), so fields never carry into each other, and
multiplying by z is a shift by k+1 bits. A fold step is then one big-integer
add per residue. The slots sit in a dict keyed by the residues that some
tuple reaches, at most reach(coeffs, n) = min(n, 2^k, 1 + the sum of the
reduced coefficients) of them, so one fold serves every modulus; an
unreached residue has no row and stands for the zero polynomial.

The one kernel, residue_plan(coeffs, n, split), folds the two parts
coeffs[:split] and coeffs[split:] once each, at the full width k+1, and
answers each residue b asked with one join: the sum of L[r] * R[(b - r) mod n]
over the part with fewer reached residues. The packed product is exact as
the fold is: every coefficient of the result counts tuples of one weight, so
stays below 2^(k+1). With split = k the second part is the empty tuple's one
row, {0: 1}, and the join reads the fold's row at b; with split = ceil(k/2)
it meets in the middle (Horowitz and Sahni, J. ACM 1974), about 2^ceil(k/2)
rows per part instead of 2^k. The packed rows never leave this module: a
plan answers the counts N_0..N_k.

A plan checks the bits that its parts' rows could hold before it allocates
anything and raises CapExceeded past the one cap, _MAX_BITS; cap_error gives
that verdict to callers that only need to know. The cost model that picks a
split for one residue (mitm_is_cheaper) prices row adds and products by the
same width, so the packed format, its cap and its costs all live here.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .codes import _residue
from .errors import CapExceeded, InvariantViolation

__all__ = [
    "cap_error",
    "mitm_is_cheaper",
    "reach",
    "residue_plan",
]

# The one cap of a fold: the packed bits it may hold, checked on reach times
# (k+1)^2, the bits of reach rows that each hold k+1 fields of k+1 bits; k
# counts every coefficient of the spec, so both parts of a plan are charged
# full-width rows. As reach <= 2^k, the cap admits at most 2^20 rows, at
# k = 20; raised past (2^20+1) * 22^2 it would admit more, and the memory
# would have to be measured again. Child peak RSS and time
# (Python 3.11, x86-64): the fold of 20 coefficients mod 10^9+7, 2^20 rows of
# 21^2 bits, took 171 MB and 0.9 s, and Helberg(26, 2) 179 MB. VT(n) folds
# grow about as n^3 in memory and n^4 in time: n = 400 took 32 MB and 1.4 s,
# n = 700 110 MB and 9.1 s, n = 800 159 MB and 22 s; the cap lets them
# through up to n = 776. It stops the Helberg(27, 2) fold (296 MB, 1.5 s) and
# meeting in the middle on 40 coefficients mod 10^9+7 (2^20 rows per half,
# 382 MB, 2.8 s).
_MAX_BITS = 7 << 26


def _check_mass(rows: Iterable[int], k: int, width: int) -> None:
    # The slots split all 2^k tuples, so weight class t sums to C(k, t) over
    # the slots: packed, the slot total is (1 + z)^k at z = 2^width.
    if sum(rows) != (1 + (1 << width)) ** k:
        raise InvariantViolation(f"fold of {k} coefficients lost or gained tuples")


def reach(coeffs: Iterable[int], modulus: int) -> int:
    """Bound on the residues mod modulus that subsets of coeffs reach.

    Reduced coefficients lie in [0, n), so every subset sum lies in
    [0, sum], and there are 2^k subsets: min(n, 2^k, 1 + sum) residues.
    """
    a_list = [a % modulus for a in coeffs]
    return min(modulus, 1 << len(a_list), 1 + sum(a_list))


def cap_error(parts: Iterable[Iterable[int]], modulus: int) -> CapExceeded | None:
    """The CapExceeded that a fold of some part would raise, or None if none would.

    The parts together are the spec's k coefficients; a fold of any part
    passes the cap when its rows of (k+1)^2 bits could hold more than
    _MAX_BITS bits. Reads only reach(part, modulus) and k, so it allocates
    nothing; residue_plan checks its two parts this way, the first part
    first.
    """
    parts = [list(part) for part in parts]
    width = 1 + sum(map(len, parts))
    for part in parts:
        bits = reach(part, modulus) * width * width
        if bits > _MAX_BITS:  # a count from 10^18 on prints as the power of 2 below it
            shown = bits if bits < 10**18 else f"2^{bits.bit_length() - 1}+"
            return CapExceeded(f"up to {shown} packed bits exceeds the cap of {_MAX_BITS}")
    return None


# Route costs, in units of one row add of a narrow packed row, about 160 ns
# (Python 3.11 on x86-64). Measured there: an add costs one unit more per 1600
# bits of row; a product of rows of x and y bits costs about
# (x * y) ** 0.85 / 14000 units; meeting in the middle pays about 20 units of
# fixed overhead for its second fold and the join.
_ADD_BITS = 1600
_PRODUCT_SCALE = 14000
_MITM_OVERHEAD = 20


def _fold_cost(coeffs: tuple[int, ...], n: int, width: int) -> float:
    # Fold step i adds one row per residue reached by the first i - 1
    # coefficients, each row up to i fields of width bits wide. No route holds
    # _MAX_BITS rows, so no more are priced: a float holds every cost.
    cost, total, doubling = 0.0, 0, 1
    for i, a in enumerate(coeffs, 1):
        cost += min(n, doubling, 1 + total, _MAX_BITS) * (1 + i * width / _ADD_BITS)
        total += a
        doubling = min(2 * doubling, n)
    return cost


def mitm_is_cheaper(coeffs: tuple[int, ...], n: int) -> bool:
    """The route cost model for one residue of reduced coefficients mod n.

    A fold of the k coefficients (residue_plan at split k) is charged its
    row adds; its rows double each step until they reach min(n, 1 + the
    coefficient sum), and widen by one field of k + 1 bits. Meeting in the
    middle (split ceil(k/2)) is charged the folds of both halves, one
    product per row the left half could reach, and a fixed overhead; the
    join walks the half with fewer reached residues, so that term is an
    upper bound. With n >= 2^k
    that is about 2^ceil(k/2) rows against 2^k; when n is small enough that
    both halves fill it, the routes do the same adds and the join decides,
    so the fold wins as k grows (VT(200)).
    """
    k = len(coeffs)
    half = (k + 1) // 2
    width = k + 1
    left, right = coeffs[:half], coeffs[half:]
    product = 1 + ((half + 1) * (k - half + 1) * width * width) ** 0.85 / _PRODUCT_SCALE
    mitm = (_fold_cost(left, n, width) + _fold_cost(right, n, width)
            + min(reach(left, n), _MAX_BITS) * product + _MITM_OVERHEAD)
    return mitm < _fold_cost(coeffs, n, width)


def _fold(a_list: list[int], modulus: int, width: int) -> dict[int, int]:
    # packed rows of the reached residues, starting from the empty tuple at 0
    rows = {0: 1}
    for a in a_list:
        new = rows.copy()
        for r, x in rows.items():
            key = (r + a) % modulus
            new[key] = new.get(key, 0) + (x << width)
        rows = new
    _check_mass(rows.values(), len(a_list), width)
    return rows


def residue_plan(coeffs: Iterable[int], modulus: int,
                 split: int) -> Callable[[int], tuple[int, ...]]:
    """b -> the counts N_0..N_k at residue b, one join of two parts of coeffs folded here once.

    The parts are coeffs[:split] and coeffs[split:], each folded with the
    mass check, one big-integer add per reached residue and coefficient: at
    split = k the second part is the empty tuple's one row and the join
    reads the fold, at split = ceil(k/2) it meets in the middle. coeffs may
    be any iterable, read once; negative coefficients are reduced mod the
    modulus first, which does not change the code. Raises CapExceeded, before
    building anything, when either part could hold more than _MAX_BITS bits
    in rows of (k+1)^2 bits; each call raises ValueError for b outside
    [0, modulus).
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    a_list = [a % modulus for a in coeffs]
    parts, width = (a_list[:split], a_list[split:]), len(a_list) + 1
    if error := cap_error(parts, modulus):
        raise error
    walked, other = sorted((_fold(part, modulus, width) for part in parts), key=len)
    mask = (1 << width) - 1

    def counts(b: int) -> tuple[int, ...]:
        b = _residue(b, modulus)
        row = sum(x * other.get((b - r) % modulus, 0) for r, x in walked.items())
        return tuple(row >> shift & mask for shift in range(0, width * width, width))

    return counts
