import cmath
import math
import random
from types import SimpleNamespace

import pytest

from ccodes import (
    IntegralityFailure,
    binomial_row,
    divisors,
    factor,
    moebius,
    ramanujan_sum,
    ramanujan_sum_direct,
    totient,
)
from ccodes import arith

# === factorization ===


def test_factor_examples():
    assert factor(1) == ()
    assert factor(12) == ((2, 2), (3, 1))
    assert factor(97) == ((97, 1),)
    assert factor(2**10) == ((2, 10),)


def test_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        factor(0)
    with pytest.raises(ValueError):
        factor(-6)


def test_factor_reconstructs_value():
    rng = random.Random(1)
    ns = list(range(1, 300)) + [rng.randint(1, 10**6) for _ in range(50)]
    for n in ns:
        fs = factor(n)
        assert math.prod(p**e for p, e in fs) == n
        primes = [p for p, _ in fs]
        assert primes == sorted(set(primes))
        assert all(e >= 1 for _, e in fs)


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(7) == [1, 7]


def test_divisor_count_matches_factorization():
    for n in range(1, 500):
        expected = math.prod(e + 1 for _, e in factor(n))
        ds = divisors(n)
        assert len(ds) == expected
        assert ds == sorted(ds)
        assert all(n % d == 0 for d in ds)


# === moebius and totient ===


def test_moebius_examples():
    assert moebius(1) == 1
    assert moebius(2) == -1
    assert moebius(4) == 0
    assert moebius(6) == 1
    assert moebius(12) == 0
    assert moebius(30) == -1


def test_moebius_rejects_zero():
    with pytest.raises(ValueError):
        moebius(0)


def test_totient_examples():
    assert totient(1) == 1
    assert totient(2) == 1
    assert totient(6) == 2
    assert totient(12) == 4
    assert totient(97) == 96


def test_totient_divisor_sum_equals_product_formula():
    # the divisor-sum definition must agree with prod(p^e - p^(e-1))
    for n in range(1, 2001):
        prod = math.prod(p**e - p ** (e - 1) for p, e in factor(n))
        assert totient(n) == prod


# === ramanujan sums ===


def test_ramanujan_examples():
    assert ramanujan_sum(5, 0) == 4
    assert ramanujan_sum(5, 1) == -1
    assert ramanujan_sum(6, 2) == -1
    assert ramanujan_sum(6, 3) == -2
    assert ramanujan_sum(1, 7) == 1


def kluyver(n, m):
    """Reference c_n(m) by Kluyver's divisor sum over d | gcd(m, n) of mu(n/d) d."""
    g = math.gcd(m, n)
    return sum(moebius(n // d) * d for d in range(1, g + 1) if g % d == 0)


def test_ramanujan_matches_kluyver():
    for n in range(1, 301):
        for m in range(-n, 2 * n + 1):
            assert ramanujan_sum(n, m) == kluyver(n, m), (n, m)


def test_ramanujan_factors_once(monkeypatch):
    calls = {"factor": 0, "moebius": 0, "divisors": 0}

    def counted(name):
        fn = getattr(arith, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(arith, name, counted(name))
    assert ramanujan_sum(360, 120) == -48  # c_8(120) c_9(120) c_5(120) = 4 * -3 * 4
    assert calls == {"factor": 1, "moebius": 0, "divisors": 0}


def test_ramanujan_rejects_bad_modulus():
    with pytest.raises(ValueError):
        ramanujan_sum(0, 1)


def test_ramanujan_periodic_and_symmetric():
    rng = random.Random(2)
    for n in range(1, 80):
        for _ in range(5):
            m = rng.randint(-(10**6), 10**6)
            assert ramanujan_sum(n, m) == ramanujan_sum(n, m % n)
            assert ramanujan_sum(n, -m) == ramanujan_sum(n, m)


def test_ramanujan_identities():
    for n in range(1, 501):
        assert ramanujan_sum(n, 0) == totient(n)
        assert ramanujan_sum(n, 1) == moebius(n)
    for n in range(1, 201):
        phi = totient(n)
        for m in range(n):
            assert ramanujan_sum(n, m) <= phi


def test_ramanujan_direct_examples():
    assert ramanujan_sum_direct(1, 7) == pytest.approx(1.0)
    assert ramanujan_sum_direct(8, 0) == pytest.approx(4.0)
    assert ramanujan_sum_direct(6, 2) == pytest.approx(-1.0)


def test_ramanujan_direct_matches_kluyver():
    for n in range(1, 61):
        for m in range(n):
            exact = ramanujan_sum(n, m)
            direct = ramanujan_sum_direct(n, m)
            assert abs(direct - exact) < 1e-9 * n, (n, m)


def test_ramanujan_direct_rejects_bad_modulus():
    with pytest.raises(ValueError):
        ramanujan_sum_direct(0, 3)


def test_ramanujan_direct_raises_on_an_imaginary_part(monkeypatch):
    # each of the 4 terms of c_5(1) given an imaginary part of 1: the sum's 4.0 is caught
    monkeypatch.setattr(arith, "cmath", SimpleNamespace(
        exp=lambda z: complex(cmath.exp(z).real, 1.0)))
    with pytest.raises(IntegralityFailure,
                       match=r"^imaginary part 4\.0 of the c_5\(1\) sum exceeds tolerance$"):
        ramanujan_sum_direct(5, 1)


def test_integrality_failure_is_importable():
    # the direct sum can only fail integrality through a bug, so just check
    # the exception type wiring
    assert issubclass(IntegralityFailure, Exception)


# === binomial rows ===


def test_binomial_row_matches_comb():
    for e in range(301):
        assert list(binomial_row(e)) == [math.comb(e, i) for i in range(e + 1)], e
    # rows are symmetric, so comparing the first half with math.comb and the
    # row with its reverse checks every entry of the e = 4096 row
    row = list(binomial_row(4096))
    assert row[:2049] == [math.comb(4096, i) for i in range(2049)]
    assert row == row[::-1]


def test_binomial_row_rejects_negative():
    with pytest.raises(ValueError):
        next(binomial_row(-1))
