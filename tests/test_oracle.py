import random
from itertools import product

import pytest

from ccodes import (
    CapExceeded,
    Codebook,
    CodeSpec,
    brute_count_qary,
    brute_count_zn,
    brute_weight_enumerator,
    build_codebook,
    check_single_deletion,
    make_levenshtein,
    make_vt,
)


def test_brute_weight_enumerator_vt4():
    w = brute_weight_enumerator(make_vt(4, 0))
    assert w.counts == (1, 0, 2, 0, 1)
    assert w.size() == 4


def test_brute_weight_enumerator_cap():
    with pytest.raises(CapExceeded):
        brute_weight_enumerator(CodeSpec(tuple(range(1, 32)), 97, 0))
    # k = 25 is one past the cap: refused before any table is built
    spec = CodeSpec(tuple(range(1, 26)), 10**9 + 7, 0)
    with pytest.raises(CapExceeded, match="2\\^25 tuples exceeds the 2\\^24 cap"):
        brute_weight_enumerator(spec)
    with pytest.raises(CapExceeded):
        build_codebook(spec)


def test_build_codebook_vt4():
    book = build_codebook(make_vt(4, 0))
    assert sorted(book.to_strings()) == ["0000", "0110", "1001", "1111"]
    book1 = build_codebook(make_vt(4, 1))
    assert sorted(book1.to_strings()) == ["0101", "1000", "1110"]


def test_codebook_validation():
    with pytest.raises(ValueError):
        Codebook(2, (1, 1))
    with pytest.raises(ValueError):
        Codebook(2, (4,))
    with pytest.raises(ValueError):
        Codebook.from_strings(["01", "2"])
    roundtrip = Codebook.from_strings(["1001", "0110"])
    assert roundtrip.to_strings() == ["1001", "0110"]


def test_brute_count_zn_examples():
    assert brute_count_zn([2, 4], 6, 2, 2) == 12
    assert brute_count_zn([2, 4], 6, 1, 2) == 0
    assert brute_count_zn([1], 5, 3, 1) == 1


def test_brute_count_zn_cap_and_validation():
    with pytest.raises(CapExceeded):
        brute_count_zn([1] * 8, 10, 0, 8)
    with pytest.raises(ValueError):
        brute_count_zn([1, 2], 5, 0, 3)


def test_brute_count_qary():
    assert brute_count_qary([1, 2], 3, 0, 2, 3) == 3
    assert brute_count_qary([1, 2, 3, 4], 5, 0, 4, 2) == 4
    # q = 1 leaves only the all-zero tuple
    assert brute_count_qary([1, 2, 3], 4, 0, 3, 1) == 1
    assert brute_count_qary([1, 2, 3], 4, 2, 3, 1) == 0
    with pytest.raises(CapExceeded):
        brute_count_qary([1] * 24, 5, 0, 24, 2)


def test_brute_count_qary_matches_itertools():
    rng = random.Random(6)
    for _ in range(25):
        k = rng.randint(0, 5)
        n = rng.randint(1, 7)
        q = rng.randint(1, 4)
        b = rng.randint(0, n - 1)
        coeffs = [rng.randint(-9, 9) for _ in range(k)]
        want = sum(
            1
            for xs in product(range(q), repeat=k)
            if sum(a * x for a, x in zip(coeffs, xs)) % n == b
        )
        assert brute_count_qary(coeffs, n, b, k, q) == want


def test_brute_matches_fold_on_random_specs():
    from ccodes import weight_enumerator

    rng = random.Random(7)
    for _ in range(30):
        k = rng.randint(1, 10)
        n = rng.randint(1, 30)
        spec = CodeSpec(
            tuple(rng.randint(-50, 50) for _ in range(k)), n, rng.randint(0, n - 1)
        )
        assert brute_weight_enumerator(spec).counts == weight_enumerator(spec).counts


# === single-deletion ball disjointness ===


def test_check_single_deletion_vt():
    assert check_single_deletion(build_codebook(make_vt(8, 0)))


def test_check_single_deletion_counterexample():
    # both words lose a symbol to give "0", so the balls collide
    assert not check_single_deletion(Codebook.from_strings(["00", "01"]))
    assert check_single_deletion(Codebook.from_strings(["00"]))


def test_check_single_deletion_levenshtein():
    for k in range(2, 7):
        for n in (k + 1, k + 2):
            for b in range(n):
                book = build_codebook(make_levenshtein(k, n, b))
                assert check_single_deletion(book), (k, n, b)


def test_check_single_deletion_cap():
    with pytest.raises(CapExceeded):
        check_single_deletion(Codebook(17, (0,)))
