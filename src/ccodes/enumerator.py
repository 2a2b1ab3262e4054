"""Weight enumerators, sizes and counting formulas for congruence codes.

The authoritative path is exact: the residue fold in ``polyring`` produces
integer weight distributions with no rounding. Each closed form or literal
floating-point character sum here is an independent route to the same
numbers and exists to be checked against the fold (and against brute
force in ``oracle``), never to replace it.

Character-sum background, with e(x) = exp(2 pi i x): the enumerator of the
code a_1 c_1 + ... + a_k c_k = b (mod n) is

    W(z) = (1/n) * sum_{m=1}^{n} e(-b m / n) * prod_j (1 + z e(a_j m / n)),

setting z = 1 collapses the product to cosines and yields both the size
formula and an absolute-value upper bound; for the VT family the average
telescopes into Ramanujan-sum closed forms over the divisors of n+1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

from .arith import divisors, factor, ramanujan_sum
from .codes import CodeSpec, ParityCodeSpec
from .errors import IntegralityFailure, NonExactDivision
from .polyring import IntPolynomial, ResiduePolynomial, residue_product

__all__ = [
    "WeightEnumerator",
    "weight_enumerator",
    "weight_enumerator_charsum_float",
    "size",
    "size_cosine_float",
    "size_upper_bound",
    "lehmer_count",
    "vt_weight_enumerator_closed",
    "vt_weight_count",
    "vt_size",
    "vt_q_size",
    "svt_sizes",
    "svt_sizes_charsum_float",
]


@dataclass(frozen=True)
class WeightEnumerator:
    """Weight distribution N_0..N_k of a binary code of block length k.

    counts[t] is the number of codewords of Hamming weight t; each N_t is
    bounded by C(k, t), which also forces the total to stay within 2^k.
    """

    k: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        if self.k < 0 or len(self.counts) != self.k + 1:
            raise ValueError("counts must list N_0..N_k")
        for t, c in enumerate(self.counts):
            if not 0 <= c <= math.comb(self.k, t):
                raise ValueError(f"N_{t} = {c} impossible at length {self.k}")

    def size(self) -> int:
        """Number of codewords, W(1)."""
        return sum(self.counts)

    def evaluate(self, z):
        """W(z) by Horner; any numeric z."""
        acc = 0 * z
        for c in reversed(self.counts):
            acc = acc * z + c
        return acc

    def polynomial(self) -> IntPolynomial:
        return IntPolynomial(self.counts)

    def pretty(self, var: str = "z") -> str:
        return self.polynomial().pretty(var)


# (coefficients reduced mod n, n) and the fold of the last weight_enumerator
# call; sweeps ask for every residue of one modulus in a row, so they fold once.
_last_fold: tuple[tuple[tuple[int, ...], int], ResiduePolynomial] | None = None


def weight_enumerator(spec: CodeSpec) -> WeightEnumerator:
    """Exact weight enumerator via the residue fold.

    The fold costs one big-integer add per reached residue and coefficient,
    at most min(n, 2^k) per coefficient, so huge-modulus instances stay exact
    and cheap. It is reused while consecutive calls share coefficients and
    modulus. The VT closed form is an independent route, compared with this
    one by ``verify`` and the tests, not here.
    """
    global _last_fold
    k = len(spec.coefficients)
    n = spec.modulus
    key = (tuple(a % n for a in spec.coefficients), n)
    fold = _last_fold  # one read, so a concurrent caller cannot swap it midway
    if fold is None or fold[0] != key:
        fold = _last_fold = None  # free the old fold before building the next
        fold = _last_fold = key, residue_product(key[0], n)
    poly = fold[1].slot(spec.residue)
    counts = list(poly.coeffs) + [0] * (k + 1 - len(poly.coeffs))
    return WeightEnumerator(k, counts)


def weight_enumerator_charsum_float(spec: CodeSpec) -> tuple[WeightEnumerator, float]:
    """Literal complex evaluation of the character-sum enumerator.

    Averages prod_j (1 + z e(a_j m / n)) against e(-b m / n) over
    m = 1..n in floating point, rounds every coefficient to the nearest
    integer and returns the rounded enumerator together with the largest
    distance |raw - rounded| seen (imaginary leakage included). Raises
    IntegralityFailure when that distance exceeds 1e-6. Advisory path;
    exact results come from weight_enumerator.
    """
    k = len(spec.coefficients)
    n = spec.modulus
    b = spec.residue
    roots = [cmath.exp(2j * math.pi * t / n) for t in range(n)]
    a_red = [a % n for a in spec.coefficients]
    acc = [0j] * (k + 1)
    for m in range(1, n + 1):
        p = [1 + 0j]
        for a in a_red:
            w = roots[(a * m) % n]
            p = [p[0]] + [p[t] + w * p[t - 1] for t in range(1, len(p))] + [w * p[-1]]
        phase = roots[(-b * m) % n]
        for t in range(k + 1):
            acc[t] += phase * p[t]
    rounded: list[int] = []
    max_dev = 0.0
    for t in range(k + 1):
        raw = acc[t] / n
        r = round(raw.real)
        dev = abs(raw - r)
        if dev > max_dev:
            max_dev = dev
        rounded.append(r)
    if max_dev > 1e-6:
        raise IntegralityFailure(f"character sum off integer by {max_dev:g}")
    return WeightEnumerator(k, rounded), max_dev


def size(spec: CodeSpec) -> int:
    """Exact codeword count, W(1)."""
    return weight_enumerator(spec).size()


def size_cosine_float(spec: CodeSpec) -> tuple[int, float]:
    """Code size through the cosine-product character sum.

    Evaluates (2^k / n) * sum_m e(eta m / n) * prod_j cos(pi a_j m / n)
    where eta = -b + (a_1 + ... + a_k) / 2 is carried as the exact
    half-integer 2*eta. The raw value must be real and nonnegative up to
    tolerance; the rounded size and |raw - rounded| are returned, with
    IntegralityFailure past 1e-6 relative tolerance.
    """
    k = len(spec.coefficients)
    n = spec.modulus
    two_eta = sum(spec.coefficients) - 2 * spec.residue
    n2 = 2 * n
    phases = [cmath.exp(1j * math.pi * t / n) for t in range(n2)]
    cosines = [math.cos(math.pi * t / n) for t in range(n2)]
    acc = 0j
    for m in range(1, n + 1):
        prod = 1.0
        for a in spec.coefficients:
            prod *= cosines[(a * m) % n2]
        acc += phases[(two_eta * m) % n2] * prod
    raw = acc * (2.0**k / n)
    r = round(raw.real)
    dev = abs(raw - r)
    tol = 1e-6 * max(1.0, abs(r))
    if dev > tol or raw.real < -tol or r < 0:
        raise IntegralityFailure(f"cosine size {raw!r} fails integrality")
    return r, dev


def size_upper_bound(spec: CodeSpec) -> float:
    """Upper bound (2^k / n) * sum_m prod_j |cos(pi a_j m / n)| on the size."""
    k = len(spec.coefficients)
    n = spec.modulus
    n2 = 2 * n
    abscos = [abs(math.cos(math.pi * t / n)) for t in range(n2)]
    acc = 0.0
    for m in range(1, n + 1):
        prod = 1.0
        for a in spec.coefficients:
            prod *= abscos[(a * m) % n2]
        acc += prod
    return (2.0**k / n) * acc


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


def vt_weight_enumerator_closed(n: int, b: int) -> WeightEnumerator:
    """Closed-form VT_b(n) weight enumerator via Ramanujan sums.

    Expands sum_{d | n+1} c_d(b) (1 - (-z)^d)^((n+1)/d) with binomial
    coefficients, then divides by n+1 and by z+1. Both divisions are exact
    for every valid (n, b); NonExactDivision here signals a bug.
    """
    if n < 1:
        raise ValueError("VT length must be >= 1")
    if not 0 <= b <= n:
        raise ValueError(f"residue {b} not in [0, {n + 1})")
    q = n + 1
    total = [0] * (q + 1)
    for d in divisors(factor(q)):
        c = ramanujan_sum(d, b)
        if c == 0:
            continue
        e = q // d
        if d % 2:
            # (1 + z^d)^e
            for i in range(e + 1):
                total[d * i] += c * math.comb(e, i)
        else:
            # (1 - z^d)^e
            for i in range(e + 1):
                total[d * i] += c * (-1) ** i * math.comb(e, i)
    scaled = []
    for coeff in total:
        v, rem = divmod(coeff, q)
        if rem:
            raise NonExactDivision("divisor sum not divisible by n+1")
        scaled.append(v)
    quotient = IntPolynomial(scaled).div_exact(IntPolynomial((1, 1)))
    counts = list(quotient.coeffs)
    counts += [0] * (q - len(counts))
    return WeightEnumerator(n, counts)


def vt_weight_count(n: int, b: int, t: int) -> int:
    """Number of weight-t words in VT_b(n), without building the enumerator.

    N_t = ((-1)^t / (n+1)) * sum_{d | n+1} (-1)^floor(t/d) c_d(b)
          * C((n+1)/d - 1, floor(t/d)).
    """
    if n < 1:
        raise ValueError("VT length must be >= 1")
    if not 0 <= b <= n:
        raise ValueError(f"residue {b} not in [0, {n + 1})")
    if not 0 <= t <= n:
        raise ValueError(f"weight {t} not in [0, {n}]")
    q = n + 1
    s = sum(
        (-1) ** (t // d) * ramanujan_sum(d, b) * math.comb(q // d - 1, t // d)
        for d in divisors(factor(q))
    )
    num = -s if t % 2 else s
    v, rem = divmod(num, q)
    if rem:
        raise NonExactDivision("weight-class sum not divisible by n+1")
    return v


def vt_size(n: int, b: int) -> int:
    """|VT_b(n)| = (1 / (2(n+1))) * sum over odd d | n+1 of c_d(b) 2^((n+1)/d)."""
    if n < 1:
        raise ValueError("VT length must be >= 1")
    if not 0 <= b <= n:
        raise ValueError(f"residue {b} not in [0, {n + 1})")
    q = n + 1
    s = sum(
        ramanujan_sum(d, b) * (1 << (q // d))
        for d in divisors(factor(q))
        if d % 2
    )
    v, rem = divmod(s, 2 * q)
    if rem:
        raise NonExactDivision("size sum not divisible by 2(n+1)")
    return v


def vt_q_size(n: int, b: int, q: int) -> int:
    """q-ary VT code size over the divisors of n+1 coprime to q.

    Counts n-tuples over {0..q-1} with sum_j j*x_j = b (mod n+1); q = 2
    reduces to vt_size, q = 1 leaves only the all-zero tuple.
    """
    if q < 1:
        raise ValueError("alphabet size must be >= 1")
    if n < 1:
        raise ValueError("length must be >= 1")
    if not 0 <= b <= n:
        raise ValueError(f"residue {b} not in [0, {n + 1})")
    period = n + 1
    s = sum(
        ramanujan_sum(d, b) * q ** (period // d)
        for d in divisors(factor(period))
        if math.gcd(d, q) == 1
    )
    v, rem = divmod(s, q * period)
    if rem:
        raise NonExactDivision("q-ary size sum not divisible by q(n+1)")
    return v


def svt_sizes(spec: ParityCodeSpec) -> tuple[int, int]:
    """(even, odd) weight-parity split of the base code's codeword count.

    even = (W(1) + W(-1)) / 2 and odd = (W(1) - W(-1)) / 2 on the exact
    enumerator; the halving is exact for any genuine weight distribution.
    """
    w = weight_enumerator(spec.base)
    s1 = w.size()
    sm1 = w.evaluate(-1)
    even, rem = divmod(s1 + sm1, 2)
    if rem:
        raise NonExactDivision("parity split not integral")
    return even, s1 - even


def svt_sizes_charsum_float(spec: ParityCodeSpec) -> tuple[int, int, float]:
    """Floating-point parity-split sizes from the cosine/sine product form.

    With A_m = prod_j cos(pi a_j m / n) and B_m = prod_j i sin(pi a_j m / n),
    the even count is (2^(k-1)/n) sum_m e(eta m / n) (A_m + (-1)^k B_m) and
    the odd count flips the sign of the B_m term; eta = -b + (sum_j a_j)/2.
    Returns (even, odd, max residual), IntegralityFailure past 1e-6.
    """
    base = spec.base
    k = len(base.coefficients)
    n = base.modulus
    two_eta = sum(base.coefficients) - 2 * base.residue
    n2 = 2 * n
    phases = [cmath.exp(1j * math.pi * t / n) for t in range(n2)]
    cosines = [math.cos(math.pi * t / n) for t in range(n2)]
    sines = [math.sin(math.pi * t / n) for t in range(n2)]
    acc_a = 0j
    acc_b = 0j
    for m in range(1, n + 1):
        pc = 1.0
        ps = 1.0
        for a in base.coefficients:
            t = (a * m) % n2
            pc *= cosines[t]
            ps *= sines[t]
        ph = phases[(two_eta * m) % n2]
        acc_a += ph * pc
        acc_b += ph * ps
    scale = 2.0 ** (k - 1) / n
    b_term = (1, 1j, -1, -1j)[k % 4] * acc_b  # i^k * prod(sin) terms
    sign = -1 if k % 2 else 1
    even_raw = scale * (acc_a + sign * b_term)
    odd_raw = scale * (acc_a - sign * b_term)
    even = round(even_raw.real)
    odd = round(odd_raw.real)
    dev = max(abs(even_raw - even), abs(odd_raw - odd))
    if dev > 1e-6 or even < 0 or odd < 0:
        raise IntegralityFailure(f"parity character sum off integer by {dev:g}")
    return even, odd, dev
