"""Acceptance gate: one test per release criterion.

Each test prints a single pass/fail line (visible with pytest -s; the -v
listing mirrors the same verdict per criterion). Everything is exact
integer comparison except where a tolerance is part of the criterion.
"""

import random
import time

from ccodes import (
    CodeSpec,
    brute_count_qary,
    brute_weight_enumerator,
    build_codebook,
    check_single_deletion,
    lehmer_count,
    make_helberg,
    make_levenshtein,
    make_svt,
    make_vt,
    ramanujan_sum,
    ramanujan_sum_direct,
    moebius,
    size,
    size_upper_bound,
    svt_sizes_charsum_float,
    totient,
    vt_q_size,
    vt_size,
    vt_weight_count,
    vt_weight_enumerator_closed,
    weight_enumerator,
    weight_enumerator_charsum_float,
    weight_enumerator_fold,
)

SEED = 20260821


def _report(num: int, desc: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"[criterion {num:02d}] FAIL {desc}")
        raise
    print(f"[criterion {num:02d}] PASS {desc}")


def _random_specs(count: int) -> list[CodeSpec]:
    rng = random.Random(SEED)
    specs = []
    for _ in range(count):
        k = rng.randint(1, 14)
        n = rng.randint(1, 100)
        b = rng.randint(0, n - 1)
        coeffs = tuple(rng.randint(-100, 100) for _ in range(k))
        specs.append(CodeSpec(coeffs, n, b))
    return specs


def test_criterion_01_vt_triple_agreement():
    def check():
        t0 = time.perf_counter()
        for n in range(1, 15):
            for b in range(n + 1):
                closed = vt_weight_enumerator_closed(n, b)
                folded = weight_enumerator_fold(make_vt(n, b))
                brute = brute_weight_enumerator(make_vt(n, b))
                assert closed.counts == folded.counts == brute.counts, (n, b)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30, f"took {elapsed:.1f}s"

    _report(1, "closed form == residue fold == brute force for VT, n <= 14, all b", check)


def test_criterion_02_vt_weight_count_matches_brute():
    def check():
        for n in range(1, 15):
            for b in range(n + 1):
                counts = brute_weight_enumerator(make_vt(n, b)).counts
                for t in range(n + 1):
                    assert vt_weight_count(n, b, t) == counts[t], (n, b, t)

    _report(2, "single weight classes match brute coefficients, n <= 14", check)


def test_criterion_03_vt_sizes():
    def check():
        assert vt_size(4, 0) == 4
        assert vt_size(6, 0) == 10
        assert vt_size(4, 1) == 3
        for n in range(1, 21):
            sizes = [vt_size(n, b) for b in range(n + 1)]
            assert sum(sizes) == 2**n, n
            assert sizes[0] == max(sizes), n  # b = 0 is maximal
        for n in range(1, 25):
            assert vt_size(n, 0) * (n + 1) >= 2**n, n

    _report(3, "frozen sizes, partition to 2^n, b=0 maximality, 2^n/(n+1) bound", check)


def test_criterion_04_random_specs_exact_vs_brute_vs_float():
    def check():
        t0 = time.perf_counter()
        worst = 0.0
        for spec in _random_specs(500):
            exact = weight_enumerator(spec)
            brute = brute_weight_enumerator(spec)
            assert exact.counts == brute.counts, spec
            approx, dev = weight_enumerator_charsum_float(spec)
            assert approx.counts == exact.counts, spec
            worst = max(worst, dev)
        elapsed = time.perf_counter() - t0
        assert worst < 1e-6, worst
        assert elapsed < 120, f"took {elapsed:.1f}s"

    _report(4, "500 seeded random specs: fold == brute == rounded character sum", check)


def test_criterion_05_helberg_s1_reduces_to_vt():
    def check():
        for k in range(1, 13):
            for b in range(k + 1):
                # the dispatcher answers Helberg s=1 from the closed form; the fold
                # of the VT spec is an independent route
                h = weight_enumerator(make_helberg(k, 1, b))
                v = weight_enumerator_fold(make_vt(k, b))
                assert h.counts == v.counts, (k, b)
        assert weight_enumerator(make_helberg(3, 2, 0)).counts == (1, 0, 0, 1)

    _report(5, "Helberg s=1 enumerators equal VT enumerators; (3,2,0) is 1+z^3", check)


def test_criterion_06_svt_parity_split():
    def check():
        for k in range(1, 13):
            for n in sorted({k + 1, 2 * k}):
                base_counts = {}
                for b in range(n):
                    w = brute_weight_enumerator(make_levenshtein(k, n, b))
                    even = sum(c for t, c in enumerate(w.counts) if t % 2 == 0)
                    base_counts[b] = (even, w.size() - even)
                for b in range(n):
                    for r in (0, 1):
                        pspec = make_svt(k, n, b, r)
                        assert size(pspec) == base_counts[b][r], (k, n, b, r)
                        fe, fo, dev = svt_sizes_charsum_float(pspec)
                        assert (fe, fo) == base_counts[b], (k, n, b, r)
                        assert dev < 1e-6

    _report(6, "shifted VT parity sizes: exact == A/B character sum == brute", check)


def test_criterion_07_lehmer_full_space_count():
    def check():
        cases = [([2, 4], 6, 1), ([2, 4], 6, 2), ([3, 6, 9], 6, 2)]
        rng = random.Random(7)
        while len(cases) < 100:
            k = rng.randint(1, 4)
            n = rng.randint(1, 8)
            cases.append(([rng.randint(-12, 12) for _ in range(k)], n, rng.randint(0, n - 1)))
        zeros = 0
        for coeffs, n, b in cases:
            got = lehmer_count(coeffs, n, b)
            assert got == brute_count_qary(coeffs, n, b, len(coeffs), n), (coeffs, n, b)
            if got == 0:
                zeros += 1
        assert zeros >= 3  # the l-does-not-divide-b branch really fired

    _report(7, "full-space solution count matches exhaustive Z_n^k enumeration", check)


def test_criterion_08_qary_vt_sizes():
    def check():
        for q in (1, 2, 3, 4):
            for n in range(1, 11):
                coeffs = list(range(1, n + 1))
                for b in range(n + 1):
                    got = vt_q_size(n, b, q)
                    want = brute_count_qary(coeffs, n + 1, b, n, q)
                    assert got == want, (q, n, b)
        for n in range(1, 11):
            for b in range(n + 1):
                assert vt_q_size(n, b, 2) == vt_size(n, b)

    _report(8, "q-ary VT closed form matches exhaustive count, q <= 4, n <= 10", check)


def test_criterion_09_ramanujan_two_routes_and_identities():
    def check():
        for n in range(1, 201):
            for m in range(n):
                exact = ramanujan_sum(n, m)
                direct = ramanujan_sum_direct(n, m)
                assert abs(direct - exact) < 1e-9 * n, (n, m)
        for n in range(1, 501):
            assert ramanujan_sum(n, 0) == totient(n)
            assert ramanujan_sum(n, 1) == moebius(n)
        for n in range(1, 201):
            phi = totient(n)
            for m in range(n):
                assert ramanujan_sum(n, -m) == ramanujan_sum(n, m)
                assert ramanujan_sum(n, m) <= phi

    _report(9, "Kluyver vs direct root-of-unity sums, n <= 200, plus identities", check)


def test_criterion_10_single_deletion_balls_disjoint():
    def check():
        t0 = time.perf_counter()
        for n in range(1, 11):
            for b in range(n + 1):
                assert check_single_deletion(build_codebook(make_vt(n, b))), (n, b)
        for k in range(1, 11):
            for n in range(k + 1, 2 * k + 2):
                for b in range(n):
                    book = build_codebook(make_levenshtein(k, n, b))
                    assert check_single_deletion(book), (k, n, b)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"took {elapsed:.1f}s"

    _report(10, "one-deletion balls disjoint for VT (n <= 10) and Levenshtein (k <= 10)",
            check)


def test_criterion_11_size_never_exceeds_cosine_bound():
    def check():
        for spec in _random_specs(500):
            s = weight_enumerator(spec).size()
            assert s <= size_upper_bound(spec) + 1e-6, spec

    _report(11, "exact size within the absolute-cosine upper bound on 500 specs", check)
