import random
import tracemalloc
from collections import Counter
from itertools import product

import pytest

from ccodes import (
    CapExceeded,
    Codebook,
    CodeSpec,
    brute_count_qary,
    brute_weight_enumerator,
    build_codebook,
    check_single_deletion,
    make_levenshtein,
    make_vt,
    oracle,
)

P = 10**9 + 7
C = oracle._CHUNK_BITS


def literal_tally(coeffs, n):
    """(residue, weight) -> number of binary tuples, one tuple at a time."""
    tally = Counter()
    for x in range(1 << len(coeffs)):
        bits = [(x >> i) & 1 for i in range(len(coeffs))]
        tally[sum(a * c for a, c in zip(coeffs, bits)) % n, sum(bits)] += 1
    return tally


def draw(k, seed):
    # small coefficients with a zero and negatives, so residues collide and wrap
    rng = random.Random(seed)
    return (0,) + tuple(rng.randint(-40, 40) for _ in range(k - 1)) if k else ()


def spread(k, lo, hi, seed):
    # k coefficients drawn from [lo, hi), so residues spread over the modulus
    rng = random.Random(seed)
    return tuple(rng.randrange(lo, hi) for _ in range(k))


# (coefficients, modulus, whether residues_to_check samples the residues: n > 5000)
TALLY_CASES = [
    (draw(C - 1, 1), 11, False),
    (draw(C, 2), 1, False),
    (draw(C + 1, 3), 23, False),
    (draw(10, 4), 3001, False),  # n > 2^k: most residues unreached
    (draw(0, 5), 5, False),
    (draw(C + 1, 6), P, True),  # huge modulus: int residues in lists
    (spread(C + 1, 10**8, 10**9, 7), P, True),
]
CHAR = 0x110000  # the largest modulus whose residues are str characters
SURROGATES = range(0xD800, 0xE000)  # characters that no UTF-8 text holds; str counts them too
ENCODING_CASES = [
    ((CHAR - 1,) + spread(C, 0, CHAR, 8), CHAR, True),
    ((CHAR,) + spread(C, 0, CHAR + 1, 9), CHAR + 1, True),
    (spread(C + 1, 0, 60000, 10), 60000, True),
    ((), CHAR + 1, True),
    (draw(C - 2, 11), 1, False),
]


def residues_to_check(reached, n):
    if n <= 5000:
        return list(range(n))
    reached = sorted(reached)
    unreached = next(r for r in range(n) if r not in reached)
    surrogates = [r for r in reached if r in SURROGATES][:3]
    return reached[:6] + reached[-2:] + surrogates + [unreached]


@pytest.mark.parametrize("coeffs, n, sampled", TALLY_CASES + ENCODING_CASES)
def test_brute_tally_equals_literal_loop(coeffs, n, sampled):
    tally = literal_tally(coeffs, n)
    k = len(coeffs)
    check = residues_to_check({r for r, _ in tally}, n)
    assert (len(check) < n) == sampled
    for b in check:
        got = brute_weight_enumerator(CodeSpec(coeffs, n, b))
        assert got.counts == tuple(tally[b, t] for t in range(k + 1)), b


@pytest.mark.parametrize("coeffs, n, _", TALLY_CASES + ENCODING_CASES)
def test_residue_count_equals_literal_loop(coeffs, n, _):
    k = len(coeffs)
    cells, prefixes = oracle._cells(coeffs, n)
    assert isinstance(cells[0], str) == (n <= CHAR)
    assert len(cells) == min(k, C) + 1 and len(prefixes) == 1 << (k - min(k, C))
    tally = literal_tally(coeffs, n)
    reached = {r for r, _ in tally}
    check = residues_to_check(reached, n)
    if n == 60000:
        check += [r for r in SURROGATES if r in reached]
    for b in check:
        want = [tally[b, t] for t in range(k + 1)]
        assert oracle._count(cells, prefixes, n, b, k + 1) == want, b


def list_cells(coeffs, n):
    # the low tuples' residues by weight, one int per tuple in a list
    cells = [[0]]
    for a in coeffs[:C]:
        cells = [x + [(r + a) % n for r in y] for x, y in zip(cells + [[]], [[]] + cells)]
    return cells


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 256, 257, 1 << C, (1 << C) + 1, 60000,
                               CHAR, CHAR + 1])
def test_cells_hold_the_list_paths_residues(n):
    # up to n = 2^c the cells are rotated by str.translate, past it built as int lists;
    # either way each tuple's residue is the list path's, surrogates included
    for k in range(C - 1, C + 3):
        rng = random.Random(n * 100 + k)
        coeffs = tuple(rng.randrange(-2 * n, 2 * n) for _ in range(k))
        want = list_cells(coeffs, n)
        if n <= CHAR:
            want = ["".join(map(chr, cell)) for cell in want]
        assert oracle._cells(coeffs, n)[0] == want, k


def test_brute_huge_modulus_keeps_off_the_alphabet():
    # n = 10^6 is past the 2^2 low tuples of k = 2, so no n-character alphabet is built
    tracemalloc.start()
    try:
        w = brute_weight_enumerator(CodeSpec((3, 5), 10**6, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.counts == (0, 0, 1)
    # one rotated alphabet of 10^6 four-byte characters alone takes 4 MB
    assert peak < 1 << 20


@pytest.mark.parametrize("coeffs, n", [case[:2] for case in TALLY_CASES + ENCODING_CASES])
def test_build_codebook_equals_literal_filter(coeffs, n):
    rs = [sum(a for i, a in enumerate(coeffs) if x >> i & 1) % n
          for x in range(1 << len(coeffs))]
    for b in residues_to_check(set(rs), n)[:4]:
        want = tuple(x for x, r in enumerate(rs) if r == b)
        assert build_codebook(CodeSpec(coeffs, n, b)).words == want


def test_brute_tally_memo_key(monkeypatch):
    runs = []
    cells, count = oracle._cells, oracle._count

    def counting_cells(coeffs, n):
        runs.append(("cells", tuple(coeffs), n))
        return cells(coeffs, n)

    def counting_count(*args):
        runs.append(("count",))
        return count(*args)

    monkeypatch.setattr(oracle, "_cells", counting_cells)
    monkeypatch.setattr(oracle, "_count", counting_count)
    a = (1, 2, 3, 5)
    sequence = [  # a plan groups the tuples once, and each residue counts from its cells
        ((a, 7), [0, 1, 2]),
        (((2, 4, 6), 7), [3]),  # a call for one spec plans its own code
        ((a, 7), [1]),  # so A groups again
        ((a, 9), [1, 2]),  # same coefficients, other modulus
        ((a, 13107), [1]),
        ((a, 13108), [1, 2]),  # n(k+1) past 2^16 counts the same way
        ((a, P), [11, 11, 4]),  # int residues past 0x110000
    ]
    for (coeffs, n), residues in sequence:
        before = len(runs)
        if len(residues) == 1:
            got = [brute_weight_enumerator(CodeSpec(coeffs, n, residues[0]))]
        else:
            plan = oracle.brute_plan(CodeSpec(coeffs, n, 0))
            got = [plan(b) for b in residues]
        assert [kind for kind, *_ in runs[before:]] == ["cells"] + ["count"] * len(residues)
        tally = literal_tally(coeffs, n)
        for b, w in zip(residues, got):
            assert w.counts == tuple(tally[b, t] for t in range(len(coeffs) + 1))
    assert [run[1:] for run in runs if run[0] == "cells"] == [
        (a, 7), ((2, 4, 6), 7), (a, 7), (a, 9), (a, 13107), (a, 13108), (a, P)]


def test_brute_memory_stays_bounded():
    rng = random.Random(18)
    coeffs = tuple(rng.randrange(10**8, 10**9) for _ in range(18))
    spec = CodeSpec(coeffs, P, sum(coeffs[::2]) % P)
    tracemalloc.start()
    try:
        w = brute_weight_enumerator(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.size() >= 1
    # a table of all 2^18 residues peaks at 10 MiB; the chunked kernel near 2 MiB
    assert peak < 4 << 20


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
    with pytest.raises(ValueError, match="^word length must be >= 0$"):
        Codebook(-1, ())
    # no strings: the empty code of length 0
    assert Codebook.from_strings([]) == Codebook(0, ())


def test_brute_count_zn_examples():
    assert brute_count_qary([2, 4], 6, 2, 2, 6) == 12
    assert brute_count_qary([2, 4], 6, 1, 2, 6) == 0
    assert brute_count_qary([1], 5, 3, 1, 5) == 1


def test_brute_count_zn_cap_and_validation():
    with pytest.raises(CapExceeded):
        brute_count_qary([1] * 8, 10, 0, 8, 10)
    with pytest.raises(ValueError):
        brute_count_qary([1, 2], 5, 0, 3, 5)
    with pytest.raises(ValueError, match="^modulus must be >= 1$"):
        brute_count_qary([1, 2], 0, 0, 2, 5)
    with pytest.raises(ValueError, match="^alphabet size must be >= 1$"):
        brute_count_qary([1, 2], 5, 0, 2, 0)


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


# (coefficients, modulus, alphabet): chunk edges at q^c <= 2^14, q = 1, k = 0
QARY_CASES = [
    ((0,) + draw(15, 8)[1:], 13, 2),
    (draw(10, 9), 11, 3),
    (draw(8, 10), 6, 4),
    (draw(6, 11), 5, 5),  # Z_5^6: every coordinate in one chunk
    (draw(6, 12), 7, 7),  # Z_7^6: 7^4 tuples per chunk
    (draw(4, 13), 4, 1),
    ((), 3, 3),
    (draw(5, 14), 1, 3),
]


@pytest.mark.parametrize("coeffs, n, q", QARY_CASES)
def test_qary_tally_equals_literal_loop(coeffs, n, q):
    k = len(coeffs)
    tally = Counter(sum(a * x for a, x in zip(coeffs, xs)) % n
                    for xs in product(range(q), repeat=k))
    for b in range(n):
        assert brute_count_qary(coeffs, n, b, k, q) == tally[b], b


# (coefficients, modulus, alphabet): alphabets past 2^14, moduli past 2^16
WIDE_CASES = [
    ((7,), 50, 20000),  # q > 2^14: the one coordinate's digits in blocks
    ((-3,), 1 << 16, 70000),  # and a modulus of 2^16
    ((3, 0, -5, 11, 4), P, 9),  # moduli far above q^k: most residues unreached
    ((10**9, 1, 2, 10**9 - 7), P, 13),
]


@pytest.mark.parametrize("coeffs, n, q", WIDE_CASES)
def test_qary_wide_alphabet_or_modulus_equals_literal_loop(coeffs, n, q):
    k = len(coeffs)
    tally = Counter(sum(a * x for a, x in zip(coeffs, xs)) % n
                    for xs in product(range(q), repeat=k))
    unreached = [next(r for r in range(n) if r not in tally)] if len(tally) < n else []
    for b in sorted(tally)[:5] + sorted(tally)[-3:] + unreached:
        assert brute_count_qary(coeffs, n, b, k, q) == tally[b], b


def test_qary_memory_stays_bounded():
    rng = random.Random(17)
    coeffs = [rng.randrange(P) for _ in range(17)]
    tracemalloc.start()
    try:
        brute_count_qary(coeffs, P, 5, 17, 2)  # 2^17 tuples, nearly all residues distinct
        brute_count_qary([3], 3 * 10**5, 9, 1, 3 * 10**5)  # 3 * 10^5 digits of one coordinate
        # 215^3 tuples: 215 listed residues and 215^2 = 46,225 over the other two coordinates,
        # the longest such list under the q^k cap
        brute_count_qary(coeffs[:3], P, 5, 3, 215)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


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
