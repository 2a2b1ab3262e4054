"""Multiplicative number theory primitives and binomial rows.

Trial-division factorization into (prime, exponent) pairs, divisor
enumeration, the Moebius function, Euler's totient, and Ramanujan sums
computed two independent ways: exactly, as the product over the prime
powers p^e exactly dividing n of

    c_{p^e}(m) = p^e [p^e | m] - p^(e-1) [p^(e-1) | m],

and numerically, as the literal sum of the m-th powers of the primitive
n-th roots of unity. The numeric path exists only to cross-check the exact
one; nothing downstream consumes it. moebius and totient (the Moebius
divisor sum) do not go through ramanujan_sum, so c_n(1) = mu(n) and
c_n(0) = phi(n) compare independent implementations.

binomial_row(e) streams C(e, 0), ..., C(e, e), each entry from the last by
C(e, i+1) = C(e, i) (e - i) / (i + 1), so a whole row costs e small-by-big
multiplications instead of e separate math.comb calls (at e = 4096, a few
ms against about 1.3 s). The VT closed form and the bound check of
WeightEnumerator read their rows from it; vt_weight_count keeps math.comb
so it stays an independent check on these rows.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator

from .errors import IntegralityFailure

__all__ = [
    "factor",
    "divisors",
    "moebius",
    "totient",
    "ramanujan_sum",
    "ramanujan_sum_direct",
    "binomial_row",
]


def factor(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of a positive integer, primes increasing.

    Trial division up to sqrt(n). Rejects n < 1; factor(1) is ().
    """
    if n < 1:
        raise ValueError("factor() requires n >= 1")
    m = n
    fs: list[tuple[int, int]] = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            fs.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        fs.append((m, 1))
    return tuple(fs)


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, in increasing order."""
    out = [1]
    for p, e in factor(n):
        out = [d * p**i for i in range(e + 1) for d in out]
    out.sort()
    return out


def moebius(n: int) -> int:
    """mu(n): 1 for n=1, 0 when a square divides n, else (-1)^(prime count)."""
    fs = factor(n)
    if any(e >= 2 for _, e in fs):
        return 0
    return -1 if len(fs) % 2 else 1


def totient(n: int) -> int:
    """Euler's phi through the Moebius divisor sum phi(n) = sum_{d|n} mu(n/d) d."""
    return sum(moebius(n // d) * d for d in divisors(n))


def ramanujan_sum(n: int, m: int) -> int:
    """c_n(m) as the product of c_{p^e}(m) = p^e [p^e | m] - p^(e-1) [p^(e-1) | m].

    The product runs over the prime powers p^e exactly dividing n, from one
    factor(n); c_n(m) is multiplicative in n. m may be any integer, and
    every prime power divides 0, so c_n(0) = phi(n).
    """
    if n < 1:
        raise ValueError("ramanujan_sum() requires n >= 1")
    c = 1
    for p, e in factor(n):
        q = p ** (e - 1)
        if m % q:
            return 0
        c *= q * p - q if m % (q * p) == 0 else -q
    return c


def ramanujan_sum_direct(n: int, m: int) -> float:
    """c_n(m) as the literal complex sum over j coprime to n of e(j m / n).

    Floating point on purpose: this is the independent check on
    ramanujan_sum. The accumulated imaginary part must stay below
    1e-9 * n or IntegralityFailure is raised.
    """
    if n < 1:
        raise ValueError("ramanujan_sum_direct() requires n >= 1")
    total = 0j
    for j in range(1, n + 1):
        if math.gcd(j, n) == 1:
            total += cmath.exp(2j * math.pi * ((j * m) % n) / n)
    if abs(total.imag) > 1e-9 * n:
        raise IntegralityFailure(
            f"imaginary part {total.imag!r} of the c_{n}({m}) sum exceeds tolerance"
        )
    return total.real


def binomial_row(e: int) -> Iterator[int]:
    """Yield C(e, 0), C(e, 1), ..., C(e, e) for e >= 0.

    Each entry comes from the previous one by C(e, i+1) = C(e, i) (e - i) / (i + 1);
    the product is always divisible by i + 1, so the row stays exact.
    """
    if e < 0:
        raise ValueError("binomial_row() requires e >= 0")
    c = 1
    for i in range(e):
        yield c
        c = c * (e - i) // (i + 1)
    yield c
