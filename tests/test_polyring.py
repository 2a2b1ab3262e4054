import math
import random
from itertools import product

import pytest

from ccodes import (
    CapExceeded,
    InvariantViolation,
    residue_product,
)
from ccodes import polyring
from ccodes.polyring import cap_error, reach, residue_slot, row_counts

# === residue_product ===


def brute_slots(coeffs, n):
    k = len(coeffs)
    slots = [[0] * (k + 1) for _ in range(n)]
    for bits in product((0, 1), repeat=k):
        s = sum(a * c for a, c in zip(coeffs, bits)) % n
        slots[s][sum(bits)] += 1
    return [tuple(row) for row in slots]


def slots(coeffs, n):
    """Every residue's counts N_0..N_k, read off the fold's rows."""
    rows = residue_product(coeffs, n)
    return [row_counts(rows.get(r, 0), len(coeffs)) for r in range(n)]


def test_residue_product_two_coefficients():
    assert slots([1, 2], 3) == [(1, 0, 1), (0, 1, 0), (0, 1, 0)]


def test_residue_product_empty_fold():
    assert residue_product([], 5) == {0: 1}
    assert slots([], 5) == [(1,)] + [(0,)] * 4


def test_residue_product_vt_shape():
    assert slots([1, 2, 3, 4], 5)[0] == (1, 0, 2, 0, 1)


def test_residue_product_zero_coefficients():
    # every zero coefficient just doubles each row by (1 + z)
    assert slots([0, 0, 0], 4) == [(1, 3, 3, 1)] + [(0, 0, 0, 0)] * 3


def test_residue_product_mass_and_oracle():
    # k = 0, zero coefficients and n past 2^k among the draws
    rng = random.Random(4)
    for _ in range(60):
        k = rng.randint(0, 9)
        n = rng.randint(1, 40)
        coeffs = [rng.choice((0, rng.randint(-40, 40))) for _ in range(k)]
        expected = brute_slots(coeffs, n)
        assert slots(coeffs, n) == expected


def test_residue_product_order_invariant():
    rng = random.Random(5)
    for _ in range(20):
        k = rng.randint(1, 8)
        n = rng.randint(1, 10)
        coeffs = [rng.randint(-15, 15) for _ in range(k)]
        shuffled = coeffs[:]
        rng.shuffle(shuffled)
        assert residue_product(coeffs, n) == residue_product(shuffled, n)


def test_residue_product_reduces_mod_n():
    assert residue_product([-2, 5], 3) == residue_product([1, 2], 3)


def test_residue_product_bad_modulus():
    with pytest.raises(ValueError):
        residue_product([1], 0)


def test_packed_folds_widest_field():
    # modulus 1 puts every tuple in one slot: N_t = C(40, t), up to C(40, 20)
    binomials = tuple(math.comb(40, t) for t in range(41))
    assert row_counts(residue_product([0] * 40, 1)[0], 40) == binomials


def test_residue_product_huge_modulus():
    # only the 4 reached residues are stored; any other residue counts no tuple
    big = 10**9 + 7
    rows = residue_product([3, -5], big)
    assert sorted(rows) == [0, 3, big - 5, big - 2]
    assert row_counts(rows[0], 2) == (1, 0, 0)
    assert row_counts(rows[3], 2) == (0, 1, 0)
    assert row_counts(rows[big - 5], 2) == (0, 1, 0)
    assert row_counts(rows[big - 2], 2) == (0, 0, 1)
    assert row_counts(rows.get(1, 0), 2) == row_counts(rows.get(big - 1, 0), 2) == (0, 0, 0)


def test_row_counts_reads_k_plus_one_fields():
    # fields of k+1 bits, N_0 first: 1 + 2z + z^2 at k = 2 is 1 + 2*8 + 64
    assert row_counts(1 + (2 << 3) + (1 << 6), 2) == (1, 2, 1)
    assert row_counts(0, 0) == (0,)
    for bad in (1 << 9, -1):  # a fourth field of 3 bits, and a negative row
        with pytest.raises(ValueError, match="^not a packed row of 2 coefficients$"):
            row_counts(bad, 2)


def test_fold_mass_check():
    # the fold of [1] mod 2 is slot 0 = 1, slot 1 = z, packed with 2-bit fields
    polyring._check_mass([1, 1 << 2], 1, 2)
    with pytest.raises(InvariantViolation):
        polyring._check_mass([1, 1 << 2, 1], 1, 2)
    with pytest.raises(InvariantViolation):
        polyring._check_mass([1, 1], 1, 2)


def test_residue_slot_examples():
    assert residue_slot([1, 2], 3, 0) == (1, 0, 1)
    assert residue_slot([], 5, 0) == (1,) and residue_slot([], 5, 3) == (0,)
    assert residue_slot([0] * 40, 1, 0) == tuple(math.comb(40, t) for t in range(41))
    big = 10**9 + 7
    assert residue_slot([3, -5, 7], big, big - 2) == (0, 0, 1, 0)
    assert residue_slot([3, -5, 7], big, 1) == (0, 0, 0, 0)
    for bad in ((0, 0), (3, 3), (3, -1)):
        with pytest.raises(ValueError):
            residue_slot([1], *bad)


def test_slots_hold_k_plus_one_counts():
    # the subset sums of 1,1,2 are 0..4: mod 5 every residue is reached, mod 11
    # residues 5..10 are not
    for n in (5, 11):
        for r, counts in enumerate(slots([1, 1, 2], n)):
            assert len(counts) == len(residue_slot([1, 1, 2], n, r)) == 4
    assert slots([1, 1, 2], 5)[1] == residue_slot([1, 1, 2], 5, 1) == (0, 2, 0, 0)
    assert slots([1, 1, 2], 11)[7] == residue_slot([1, 1, 2], 11, 7) == (0,) * 4


def test_residue_slot_matches_fold():
    rng = random.Random(9)
    for _ in range(60):
        k = rng.randint(0, 11)
        n = rng.choice((rng.randint(1, 60), 1 << rng.randint(0, 12), 10**9 + 7))
        coeffs = [rng.choice((0, rng.randint(-90, 90))) for _ in range(k)]
        rows = residue_product(coeffs, n)
        for b in rng.sample(range(n), min(n, 8)):
            assert residue_slot(coeffs, n, b) == row_counts(rows.get(b, 0), k)


def test_reach_bounds_the_rows():
    assert reach([], 7) == 1
    assert reach([1, 2, 4, 8], 100) == 16  # 2^k
    assert reach([1, 2, 4, 8], 5) == 5  # n
    assert reach(range(1, 31), 10**9) == 466  # 1 + the coefficient sum
    assert reach([10**9 + 1] * 3, 10**9) == 4  # reduced first: subset sums 0..3


def test_bit_cap_at_the_bound(monkeypatch):
    folded = []
    fold = polyring._fold
    monkeypatch.setattr(polyring, "_fold", lambda a, *rest: folded.append(len(a)) or fold(a, *rest))
    # 8191 ones reach every residue mod 7 or 8: rows of 8192^2 bits, 7 rows exactly at the cap
    assert 7 * 8192**2 == polyring._MAX_BITS
    assert cap_error([[1] * 8191], 7) is None
    with pytest.raises(CapExceeded, match=f"up to {8 * 8192**2} packed bits exceeds the cap of "
                                          f"{polyring._MAX_BITS}"):
        raise cap_error([[1] * 8191], 8)
    with pytest.raises(CapExceeded, match="packed bits"):
        residue_product([1] * 8191, 8)
    # a count below 10^18 prints in full; from 10^18 on, as the power of 2 below it,
    # from the bit length alone: a reach of 2^3000 residues allocates nothing
    assert str(cap_error([[1 << 48] * 48], 1 << 49)) == (
        f"up to {(1 << 48) * 49**2} packed bits exceeds the cap of {polyring._MAX_BITS}")
    assert (1 << 48) * 49**2 < 10**18 <= (1 << 49) * 50**2 < 1 << 61
    assert str(cap_error([[1 << 48] * 49], 1 << 49)) == (
        f"up to 2^60+ packed bits exceeds the cap of {polyring._MAX_BITS}")
    assert str(cap_error([[10**900] * 3000], 10**1000)) == (
        f"up to 2^3023+ packed bits exceeds the cap of {polyring._MAX_BITS}")
    # each half is charged rows of the whole spec's width, 8192^2 bits
    assert cap_error([[1] * 4096, [1] * 4095], 7) is None
    with pytest.raises(CapExceeded, match=f"up to {8 * 8192**2} packed bits"):
        residue_slot([1] * 8191, 8, 0)
    # VT(800): its fold and its halves alike, before anything is folded
    with pytest.raises(CapExceeded, match=f"up to {801**3} packed bits"):
        residue_slot(range(1, 801), 801, 0)
    assert folded == []


def test_bit_cap_admits_at_most_2_20_rows():
    # a part reaches at most 2^k residues in rows of (k+1)^2 bits: the cap peaks at k = 20
    rows = [min(1 << k, polyring._MAX_BITS // (k + 1) ** 2) for k in range(100)]
    assert max(rows) == rows[20] == 1 << 20
    # 2^20 rows at k = 20 pass the cap, and 2^20 + 1 rows at k = 21 do not
    assert cap_error([[1 << i for i in range(20)]], 1 << 20) is None
    assert cap_error([[1 << i for i in range(21)]], (1 << 20) + 1) is not None


def test_row_cap_comes_before_any_fold(monkeypatch):
    folded = []
    fold = polyring._fold
    monkeypatch.setattr(polyring, "_fold", lambda a, *rest: folded.append(len(a)) or fold(a, *rest))

    def cap(rows, k):  # rows of (k+1)^2 bits
        monkeypatch.setattr(polyring, "_MAX_BITS", rows * (k + 1) ** 2)

    cap(16, 4)
    assert row_counts(residue_product([1, 2, 4, 8], 100)[15], 4) == (0, 0, 0, 0, 1)
    cap(16, 8)
    assert residue_slot([1, 2, 4, 8, 16, 32, 64, 128], 1000, 255) == (0,) * 8 + (1,)
    assert folded == [4, 4, 4]
    cap(16, 5)
    with pytest.raises(CapExceeded, match=f"up to {17 * 6**2} packed bits exceeds the cap of "
                                          f"{16 * 6**2}"):
        residue_product([1, 2, 4, 8, 16], 17)
    # the left half reaches 32 residues: neither half is folded
    cap(16, 9)
    with pytest.raises(CapExceeded, match=f"up to {32 * 10**2} packed bits"):
        residue_slot([1, 2, 4, 8, 16, 32, 64, 128, 256], 1000, 0)
    assert folded == [4, 4, 4]
