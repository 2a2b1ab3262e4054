import cmath
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # the property test below is skipped
    hypothesis = None

from ccodes import (
    CapExceeded,
    CodeSpec,
    IntegralityFailure,
    NonExactDivision,
    OutOfDomain,
    WeightEnumerator,
    binomial_row,
    brute_weight_enumerator,
    closed_form_gap,
    lehmer_count,
    make_helberg,
    make_levenshtein,
    make_svt,
    make_vt,
    residue_product,
    size,
    size_upper_bound,
    svt_sizes_charsum_float,
    vt_q_size,
    vt_size,
    vt_weight_count,
    vt_weight_enumerator_closed,
    weight_enumerator,
    weight_enumerator_charsum_float,
    weight_enumerator_closed,
    weight_enumerator_fold,
    weight_enumerators,
)
import ccodes
from ccodes import enumerator, polyring
from ccodes.codes import ParityCodeSpec
from ccodes.polyring import residue_slot

# === WeightEnumerator type ===


def test_weight_enumerator_validation():
    w = WeightEnumerator(4, (1, 0, 2, 0, 1))
    assert w.size() == 4
    assert w.evaluate(-1) == 4
    assert w.pretty() == "1 + 2z^2 + z^4"
    with pytest.raises(ValueError):
        WeightEnumerator(2, (1, 0))  # wrong length
    with pytest.raises(ValueError):
        WeightEnumerator(2, (1, 3, 1))  # N_1 > C(2, 1)
    with pytest.raises(ValueError):
        WeightEnumerator(2, (1, -1, 1))


def test_weight_enumerator_pretty():
    assert WeightEnumerator(4, (1, 0, 2, 0, 1)).pretty() == "1 + 2z^2 + z^4"
    assert WeightEnumerator(3, (0, 0, 0, 0)).pretty() == "0"
    assert WeightEnumerator(1, (0, 1)).pretty() == "z"
    assert WeightEnumerator(1, (0, 1)).pretty("x") == "x"
    assert WeightEnumerator(3, (0, 2, 0, 0)).pretty() == "2z"
    assert WeightEnumerator(3, (1, 3, 3, 0)).pretty("x") == "1 + 3x + 3x^2"


def test_every_route_keeps_the_trailing_zero_weights():
    # 1,1,2 mod 5, b = 1: two words of weight 1 and none heavier, W(z) = 2z
    spec = CodeSpec((1, 1, 2), 5, 1)
    want = (0, 2, 0, 0)
    assert weight_enumerator(spec).counts == want
    assert weight_enumerator_fold(spec).counts == want
    assert enumerator.weight_enumerator_mitm(spec).counts == want
    assert brute_weight_enumerator(spec).counts == want
    assert weight_enumerator_charsum_float(spec)[0].counts == want
    # the closed form's domain: VT_1(4) has no word of weight 4
    vt = make_vt(4, 1)
    assert weight_enumerator_closed(vt).counts == vt_weight_enumerator_closed(4, 1).counts
    assert weight_enumerator_closed(vt).counts == weight_enumerator_fold(vt).counts == (
        0, 1, 1, 1, 0)


_BOUNDS_SCRIPT = """
from ccodes import WeightEnumerator, binomial_row
k = 4095
row = list(binomial_row(k))
print(__debug__, WeightEnumerator(k, row).size() == 2 ** k)
for t, c in ((2047, row[2047] + 1), (5, -1)):
    counts = row.copy()
    counts[t] = c
    try:
        WeightEnumerator(k, counts)
    except ValueError as exc:
        print(str(exc) == f"N_{t} = {c} impossible at length {k}")
"""


def test_weight_enumerator_bounds_at_length_4095_in_every_mode():
    # the bound check is a real check, not an assert: python -O keeps it
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(ccodes.__file__).parent.parent)}
    for flags, debug in (([], "True"), (["-O"], "False")):
        proc = subprocess.run([sys.executable, *flags, "-c", _BOUNDS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"{debug} True\nTrue\nTrue\n"


@pytest.mark.parametrize("k", [0, 1, 11, 12, 4095])
def test_weight_enumerator_names_the_lowest_index_out_of_bounds(k):
    # half a binomial row bounds both N_t and N_{k-t}; the walk meets N_{k-t}
    # before the higher N_t, and still names the lowest index that fails
    row = list(binomial_row(k))

    def message(*changes):
        counts = row.copy()
        for t, c in changes:
            counts[t] = c
        with pytest.raises(ValueError) as info:
            WeightEnumerator(k, counts)
        return str(info.value)

    for t in range(k + 1) if k < 20 else (0, 1, 5, 2047, 2048, 4090, 4094, 4095):
        assert message((t, row[t] + 1)) == f"N_{t} = {row[t] + 1} impossible at length {k}"
        assert message((t, -1)) == f"N_{t} = -1 impossible at length {k}"
    if k > 5:
        assert message((5, -1), (k - 1, -1)) == f"N_5 = -1 impossible at length {k}"
        assert message((k - 1, -1), (k - 3, -2)) == f"N_{k - 3} = -2 impossible at length {k}"


# === exact fold ===


def test_weight_enumerator_examples():
    assert weight_enumerator(make_vt(4, 0)).counts == (1, 0, 2, 0, 1)
    assert weight_enumerator(make_helberg(3, 2, 0)).counts == (1, 0, 0, 1)
    # modulus 1 keeps every tuple
    assert weight_enumerator(CodeSpec((5, -3, 7), 1, 0)).counts == (1, 3, 3, 1)
    # empty code
    assert weight_enumerator(make_levenshtein(1, 5, 3)).counts == (0, 0)
    # empty coefficient list: the single empty tuple
    assert weight_enumerator(CodeSpec((), 4, 0)).counts == (1,)
    assert weight_enumerator(CodeSpec((), 4, 3)).counts == (0,)


def test_weight_enumerator_sparse_path():
    # modulus far above 2^k: the fold stores only the reached residues
    big = 10**9 + 7
    assert weight_enumerator(CodeSpec((3, 5), big, 8)).counts == (0, 0, 1)
    assert weight_enumerator(CodeSpec((3, 5), big, 0)).counts == (1, 0, 0)
    assert weight_enumerator(CodeSpec((3, 5), big, 4)).counts == (0, 0, 0)
    assert size(CodeSpec((3, 5), big, 5)) == 1
    # negative coefficients reduce mod n first: -3 alone reaches big - 3
    assert weight_enumerator(CodeSpec((-3, big + 2), big, big - 3)).counts == (0, 1, 0)
    assert weight_enumerator(CodeSpec((-3, big + 2), big, big - 1)).counts == (0, 0, 1)


def count_routes(monkeypatch):
    """Record "fold" for every fold and "mitm" for every meeting in the middle."""
    routes = []
    monkeypatch.setattr(enumerator, "residue_product",
                        lambda *args: routes.append("fold") or residue_product(*args))
    monkeypatch.setattr(enumerator, "residue_slot",
                        lambda *args: routes.append("mitm") or residue_slot(*args))
    return routes


def _fold_parities(spec):
    # (even, odd): the fold's counts of spec's base code, split by weight parity
    counts = weight_enumerator_fold(spec.base).counts
    return sum(counts[::2]), sum(counts[1::2])


def test_dense_fold_memo_key(monkeypatch):
    # a sweep's plan folds once for all its residues, and keeps nothing for the next call
    routes = count_routes(monkeypatch)
    a = (1, 2, 4, 8, 16, 32)
    sequence = [  # (coefficients, modulus), the residues asked, the routes that run
        ((a, 20), [0], ["mitm"]),  # one residue: meeting in the middle is cheaper
        ((a, 20), [1], ["mitm"]),  # the next call for the code too
        ((a, 20), [1, 3], ["fold"]),  # a sweep folds once
        ((a, 20), [2], ["mitm"]),  # the sweep's fold does not change the route
        (((2, 4, 6), 20), [3], ["fold"]),  # three coefficients fold at once
        ((a, 20), [5], ["mitm"]),
        ((a, 3), [1], ["fold"]),  # a small modulus: the fold is cheaper at once
        ((a, 3), [2, 0, 1], ["fold"]),
        ((a, 10**9 + 7), [11], ["mitm"]),
        ((a, 10**9 + 7), [4, 11], ["fold"]),  # a modulus far above 2^k folds in a sweep
        ((a, 10**9 + 7), [4], ["mitm"]),
    ]
    for (coeffs, n), residues, want in sequence:
        specs = [CodeSpec(coeffs, n, b) for b in residues]
        got = (list(weight_enumerators(specs[0], residues)) if len(specs) > 1
               else [weight_enumerator(specs[0])])
        assert got == list(map(brute_weight_enumerator, specs))
        assert routes == want, (coeffs, n, residues)
        routes.clear()


def test_a_sweep_does_not_change_the_route_of_the_next_call(monkeypatch):
    # 14 coefficients mod 10^9+7 meet in the middle for one residue; a sweep of the same
    # code folds, and the one residue still meets in the middle
    routes = count_routes(monkeypatch)
    rng = random.Random(40)
    coeffs = tuple(rng.randrange(10**9 + 7) for _ in range(14))
    b5, b6 = CodeSpec(coeffs, 10**9 + 7, 5), CodeSpec(coeffs, 10**9 + 7, 6)
    fresh = weight_enumerator(b5)
    assert routes == ["mitm"]
    assert list(weight_enumerators(b6, [6, 5])) == [brute_weight_enumerator(b6), fresh]
    assert weight_enumerator(b5) == fresh == brute_weight_enumerator(b5)
    assert routes == ["mitm", "fold", "mitm"]


def test_an_every_residue_sweep_raises_exactly_when_a_sweep_meets_in_the_middle(monkeypatch):
    # outside the closed domain, weight_enumerators(code, range(n)) refuses a code at the
    # call, before anything is built, exactly when a sweep of fewer residues would not fold it
    routes = count_routes(monkeypatch)
    rng = random.Random(9)
    seen = Counter()
    for _ in range(300):
        k = rng.randint(0, 10)
        n = rng.randint(1, 1 << rng.randint(1, 12))
        code = CodeSpec(tuple(rng.randint(-n, 2 * n) for _ in range(k)), n, 0)
        if not closed_form_gap(code):
            continue
        bits = polyring.reach(code.coefficients, n) * (k + 1) ** 2
        monkeypatch.setattr(polyring, "_MAX_BITS", rng.randint(bits // 2, 2 * bits))
        try:
            weight_enumerators(code, range(n))
            raised = False
        except CapExceeded:
            raised = True
        assert routes == []
        residues = [rng.randrange(n), rng.randrange(n)]  # a sweep: one fold, or two joins
        want = ["mitm"] * 2 if raised else ["fold"]
        try:
            assert list(weight_enumerators(code, residues)) == [
                brute_weight_enumerator(CodeSpec(code.coefficients, n, b)) for b in residues]
        except CapExceeded:  # two residues are every residue of n <= 2, which the call
            # refuses; else the halves are past the cap too: the first residue raises
            want = [] if n <= 2 else ["mitm"]
        assert routes == want, (code, residues)
        routes.clear()
        seen[raised] += 1
    assert min(seen[False], seen[True]) >= 50, seen


_TWICE_SCRIPT = """
from ccodes import CodeSpec, enumerator, make_helberg, weight_enumerator
routes = []
for name in ("residue_product", "residue_slot"):
    route = getattr(enumerator, name)
    setattr(enumerator, name, lambda *args, name=name, route=route:
            routes.append(name) or route(*args))
for spec in (make_helberg(20, 2, 7), CodeSpec((1, 2, 4, 8, 16, 32), 20, 5),
             CodeSpec((1, 2, 4, 8, 16, 32), 3, 1)):
    print(weight_enumerator(spec) == weight_enumerator(spec), *routes)
    routes.clear()
"""


def test_the_same_call_twice_takes_the_same_route_in_a_fresh_process():
    # in a child, with nothing reset between calls: the first call leaves nothing that
    # turns the second to a fold, and a fold that the cost model chose is built again
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(ccodes.__file__).parent.parent)}
    flags = ["-O"] * sys.flags.optimize + ["-X", "dev"] * sys.flags.dev_mode
    flags += [f"-W{option}" for option in sys.warnoptions]
    proc = subprocess.run([sys.executable, *flags, "-c", _TWICE_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("True residue_slot residue_slot\n" * 2
                           + "True residue_product residue_product\n")


def test_shifted_vt_codes_answer_from_the_one_entry_point():
    # the base code's counts of one weight parity, as the fold splits them and brute force
    # counts them, one residue at a time or from a sweep of the base code
    for k in range(1, 13):
        for n in sorted({k + 1, 2 * k}):
            swept = list(weight_enumerators(make_levenshtein(k, n, 0), range(n)))
            for b in range(n):
                brute = brute_weight_enumerator(make_levenshtein(k, n, b)).counts
                split = _fold_parities(make_svt(k, n, b, 0))
                for r in (0, 1):
                    spec = make_svt(k, n, b, r)
                    want = tuple(c if t % 2 == r else 0 for t, c in enumerate(brute))
                    assert weight_enumerator(spec).counts == want, spec
                    assert swept[b].counts[r::2] == want[r::2], spec
                    assert size(spec) == split[r] == sum(want), spec
    assert size(make_svt(5, 6, 1, 0)) == 3


RANDOM24 = tuple(random.Random(1).randrange(1024) for _ in range(24))


@pytest.mark.parametrize("coeffs, n, mitm", [
    ((1, 2, 4, 8, 16, 32), 13, False),  # the crossover of these coefficients
    ((1, 2, 4, 8, 16, 32), 14, True),
    ((), 7, False),
    ((3,), 10**9 + 7, False),  # one coefficient: nothing to split
    ((3, 5), 10**9 + 7, False),  # two rows: the overhead of the join decides
    ((1, 2, 4, 8), 10**9 + 7, False),  # measured 11 against 12 microseconds
    # measured on Python 3.11, x86-64: fold / meet in the middle
    (RANDOM24, 1024, True),  # 5.5 / 2.3 ms
    (RANDOM24, 3, False),  # 0.037 / 0.040 ms
    (make_helberg(20, 2, 0).coefficients, make_helberg(20, 2, 0).modulus, True),  # 25 / 0.6 ms
    (make_vt(200, 0).coefficients, 201, False),  # 78 / 100 ms: the join of wide rows
    # past 2^1024 reached rows, which no float holds: rows past the cap are not priced
    (tuple(1 << i for i in range(1100)), (1 << 1100) + 1, False),
])
def test_route_cost_model(coeffs, n, mitm):
    assert polyring.mitm_is_cheaper(tuple(a % n for a in coeffs), n) is mitm


def test_dispatcher_takes_the_cheaper_route(monkeypatch):
    routes = count_routes(monkeypatch)
    for n, route in ((13, "fold"), (14, "mitm")):
        spec = CodeSpec((1, 2, 4, 8, 16, 32), n, 3)
        assert weight_enumerator(spec) == brute_weight_enumerator(spec)
        assert routes.pop() == route and not routes


def test_repeat_past_the_fold_cap_meets_in_the_middle(monkeypatch):
    routes = count_routes(monkeypatch)
    monkeypatch.setattr(polyring, "_MAX_BITS", 100 * 11**2)
    spec = make_helberg(10, 2, 3)  # modulus 232, rows of 11^2 bits; the halves 27 and 32 rows
    expected = brute_weight_enumerator(spec)
    assert weight_enumerator(spec) == expected
    assert weight_enumerator(spec) == expected  # a repeat does not fold
    assert list(weight_enumerators(spec, [3, 3])) == [expected] * 2  # nor a sweep past the cap
    assert size(spec) == expected.size()
    assert routes == ["mitm"] * 5
    # under the cap a sweep folds once, and the fold serves the sweep's next residue; a
    # call for one residue still takes its own route, meeting in the middle
    monkeypatch.setattr(polyring, "_MAX_BITS", 232 * 11**2)
    assert list(weight_enumerators(spec, [3, 4])) == [
        expected, brute_weight_enumerator(make_helberg(10, 2, 4))]
    assert weight_enumerator(make_helberg(10, 2, 5)) == brute_weight_enumerator(
        make_helberg(10, 2, 5))
    assert routes == ["mitm"] * 5 + ["fold", "mitm"]


def test_past_the_bit_cap_meets_in_the_middle(monkeypatch):
    routes = count_routes(monkeypatch)
    spec = make_helberg(10, 2, 3)  # 232 rows of 11^2 bits; the halves 27 and 32 rows
    expected = brute_weight_enumerator(spec)
    monkeypatch.setattr(polyring, "_MAX_BITS", 232 * 11**2 - 1)
    assert list(weight_enumerators(spec, [3, 3])) == [expected] * 2  # one bit short: no fold
    assert routes == ["mitm"] * 2
    monkeypatch.setattr(polyring, "_MAX_BITS", 232 * 11**2)
    assert list(weight_enumerators(spec, [3, 3])) == [expected] * 2  # at the cap a sweep folds
    assert routes == ["mitm"] * 2 + ["fold"]


# === float character sum ===


def test_float_routes_check_the_cap_before_their_tables(monkeypatch):
    monkeypatch.setattr(enumerator, "_MAX_FLOAT_MODULUS", 1 << 10)
    routes = [weight_enumerator_charsum_float, size_upper_bound,
              lambda spec: svt_sizes_charsum_float(make_svt(3, spec.modulus, 5, 0))]
    tracemalloc.start()
    try:
        for route in routes:
            with pytest.raises(CapExceeded, match="modulus 1048576 exceeds the float cap of 1024"):
                route(make_levenshtein(3, 1 << 20, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a root table of 2^21 entries takes tens of MB
    at_cap = make_levenshtein(3, 1 << 10, 5)
    assert weight_enumerator_charsum_float(at_cap)[0] == weight_enumerator(at_cap)
    assert size_upper_bound(at_cap) >= size(at_cap)
    assert svt_sizes_charsum_float(make_svt(3, 1 << 10, 5, 0))[:2] == _fold_parities(
        make_svt(3, 1 << 10, 5, 0))



def _svt(spec):
    return make_svt(3, spec.modulus, 5, 0)


FLOAT_ROUTES = {  # name: (float route, its product rows, its cost a cell, the exact answer)
    "charsum": (lambda spec: weight_enumerator_charsum_float(spec)[0], 4, 1, weight_enumerator),
    "svt": (lambda spec: svt_sizes_charsum_float(_svt(spec))[:2], 2, 5,
            lambda spec: _fold_parities(_svt(spec))),
    "bound": (lambda spec: size_upper_bound(spec) >= size(spec), 1, 3, lambda spec: True),
}


@pytest.mark.parametrize("route, rows, cost, exact", FLOAT_ROUTES.values(), ids=FLOAT_ROUTES)
def test_float_routes_check_the_work_bound_before_their_tables(monkeypatch, route, rows, cost,
                                                                exact):
    spec = make_levenshtein(3, 1 << 16, 5)  # 3 coefficients at the float modulus cap
    cells = (1 << 16) * 3 * rows
    # a route's cell cap is the work bound divided by its cost a cell
    monkeypatch.setattr(enumerator, "_MAX_FLOAT_WORK", cells * cost - 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=f"^{cells} float cells exceeds the cap of {cells - 1}$"):
            route(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a root table of 2^16 or 2^17 entries takes megabytes
    monkeypatch.setattr(enumerator, "_MAX_FLOAT_WORK", cells * cost)
    assert route(spec) == exact(spec)


@pytest.mark.parametrize("route, k, cells, cap", [
    (lambda spec: svt_sizes_charsum_float(ParityCodeSpec(spec, 0)), 52, 52 << 17, (1 << 25) // 5),
    (size_upper_bound, 171, 171 << 16, (1 << 25) // 3),
], ids=["svt", "bound"])
def test_float_routes_stop_at_their_own_cell_caps(route, k, cells, cap):
    # at n = 2^16 the svt sum stops past 51 coefficients and the size bound
    # past 170, so each stops within about the enumerator sum's 3 s at its cap
    with pytest.raises(CapExceeded, match=f"^{cells} float cells exceeds the cap of {cap}$"):
        route(make_levenshtein(k, 1 << 16, 5))


@pytest.mark.parametrize("route, reason", [
    (weight_enumerator_charsum_float, "character sum of 1100 coefficients overflows a float"),
    (size_upper_bound, "scale 2^1100 / 2 overflows a float"),
    (lambda spec: svt_sizes_charsum_float(ParityCodeSpec(spec, 0)),
     "scale 2^1099 / 2 overflows a float"),
], ids=["charsum", "bound", "svt"])
def test_float_routes_that_overflow_fail_integrality(route, reason):
    # C(1100, 550) and 2^1100 pass the largest float, about 2^1024
    with pytest.raises(IntegralityFailure, match=f"^{re.escape(reason)}$"):
        route(make_levenshtein(1100, 2, 0))


def test_float_scale_below_the_overflow():
    spec = make_levenshtein(1023, 2, 0)  # 2^1023 is the largest power of two a float holds
    assert size(spec) == 2**1022
    assert size_upper_bound(spec) == 2.0**1022


def test_charsum_float_matches_exact():
    for spec in [
        make_vt(6, 3),
        make_levenshtein(6, 7, 3),
        make_helberg(5, 2, 4),
        CodeSpec((4, -9, 2, 2), 11, 7),
    ]:
        exact = weight_enumerator(spec)
        approx, dev = weight_enumerator_charsum_float(spec)
        assert approx.counts == exact.counts
        assert dev < 1e-9


def test_charsum_float_modulus_one_is_exact():
    _, dev = weight_enumerator_charsum_float(CodeSpec((1, 2, 3), 1, 0))
    assert dev == 0.0


# Reference forms of the float sums, one product per m. The column-wise
# kernels do the same float operations in the same order, so they must agree
# bit for bit, deviation and failure message included. per_m_svt and
# per_m_bound build their own math.cos and math.sin tables, so they stay
# independent of the phase table that the kernels read them from.


def per_m_charsum(spec):
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
    rounded = []
    max_dev = 0.0
    for t in range(k + 1):
        raw = acc[t] / n
        r = round(raw.real)
        dev = abs(raw - r)
        if dev > max_dev:
            max_dev = dev
        rounded.append(r)
    if max_dev > 1e-6:
        return f"character sum off integer by {max_dev:g}"
    return tuple(rounded), max_dev


def per_m_svt(pspec):
    base = pspec.base
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
    b_term = (1, 1j, -1, -1j)[k % 4] * acc_b
    sign = -1 if k % 2 else 1
    even_raw = scale * (acc_a + sign * b_term)
    odd_raw = scale * (acc_a - sign * b_term)
    even = round(even_raw.real)
    odd = round(odd_raw.real)
    dev = max(abs(even_raw - even), abs(odd_raw - odd))
    if dev > 1e-6 or even < 0 or odd < 0:
        return f"parity character sum off integer by {dev:g}"
    return even, odd, dev


def per_m_bound(spec):
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


def column_charsum(spec):
    try:
        w, dev = weight_enumerator_charsum_float(spec)
    except IntegralityFailure as exc:
        return str(exc)
    return w.counts, dev


def column_svt(pspec):
    try:
        return svt_sizes_charsum_float(pspec)
    except IntegralityFailure as exc:
        return str(exc)


def _same_float_results(spec, pspec, cells):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumerator, "_FLOAT_CELLS", cells)  # each call plans in blocks of these cells
        assert column_charsum(spec) == per_m_charsum(spec)
        assert column_svt(pspec) == per_m_svt(pspec)
        assert size_upper_bound(spec).hex() == per_m_bound(spec).hex()


if hypothesis is not None:
    @st.composite
    def float_specs(draw):
        """A spec, the svt spec on its base, and a block bound of a few cells.

        Up to 48 coefficients, so large counts push some sums past 1e-6.
        """
        k = draw(st.one_of(st.integers(0, 12), st.integers(36, 48)))
        coeffs = tuple(draw(st.lists(st.integers(-200, 200), min_size=k, max_size=k)))
        n = draw(st.integers(1, 64))
        spec = CodeSpec(coeffs, n, draw(st.integers(0, n - 1)))
        pspec = ParityCodeSpec(spec, draw(st.integers(0, 1)))
        return spec, pspec, draw(st.sampled_from([1, 2, 5, 64, 1 << 16]))

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(float_specs())
    def test_column_float_kernels_equal_the_per_m_sums(drawn):
        _same_float_results(*drawn)
else:
    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_column_float_kernels_equal_the_per_m_sums():
        pass


def test_column_float_kernels_across_blocks_and_failures():
    # several blocks, one m per block, and sums that miss integrality
    for spec, cells in ((make_vt(50, 7), 1 << 16), (make_vt(50, 7), 101),
                        (make_helberg(9, 2, 11), 1), (make_vt(20, 3), 1 << 16)):
        pspec = make_svt(spec.length, spec.modulus, spec.residue, 1)
        _same_float_results(spec, pspec, cells)
    assert isinstance(per_m_charsum(make_vt(50, 7)), str)
    assert isinstance(per_m_svt(make_svt(45, 46, 0, 0)), str)
    _same_float_results(make_levenshtein(45, 46, 0), make_svt(45, 46, 0, 0), 200)
    # an empty code of 40 coefficients: the svt sum's noise passes 1e-6
    spec = CodeSpec((1,) * 40, 64, 63)
    assert isinstance(per_m_svt(ParityCodeSpec(spec, 1)), str)
    _same_float_results(spec, ParityCodeSpec(spec, 1), 9)


def plan_charsum(code):
    """The charsum plan's answers as column_charsum gives them."""
    plan = enumerator.charsum_float_plan(code)

    def answer(b):
        w, dev = plan(b)
        return w.counts, dev

    return answer


def plan_bound(code):
    """size_upper_bound of code from the plan of its kernel, which reads no residue."""
    sums = enumerator._trig_plan(code, (lambda phase: abs(phase.real),))
    return lambda b: 2.0**code.length / code.modulus * sums(0)[0].real


FLOAT_PLANS = {  # route tag: (its plan as column_* answers, its blocks of 30 cells at n = 23)
    "charsum": (plan_charsum, 5),
    "svt": (lambda code: enumerator.svt_float_plan(code), 2),
    "bound": (plan_bound, 1),
}


@pytest.mark.parametrize("route, per_m, tag, make", [
    (column_charsum, per_m_charsum, "charsum", lambda a, n, b: CodeSpec(a, n, b)),
    (column_svt, per_m_svt, "svt", lambda a, n, b: ParityCodeSpec(CodeSpec(a, n, b), b % 2)),
    (size_upper_bound, per_m_bound, "bound", lambda a, n, b: CodeSpec(a, n, b)),
])
def test_float_memo_keeps_one_modulus(monkeypatch, route, per_m, tag, make):
    plan, blocks = FLOAT_PLANS[tag]
    builds = _count_float_builds(monkeypatch)
    a = (3, -5, 8, 13, 21)
    answers = plan(CodeSpec(a, 17, 0))
    for b in range(17):  # a residue sweep builds the products once
        assert answers(b) == per_m(make(a, 17, b))
    assert builds == [17]
    spec = make(a, 19, 4)  # a call for one spec plans its own code
    assert route(spec) == per_m(spec)
    assert builds == [17, 19]
    # past the plan bound nothing is kept: each residue builds the blocks of its call
    monkeypatch.setattr(enumerator, "_FLOAT_CELLS", 30)
    monkeypatch.setattr(enumerator, "_FLOAT_MEMO_CELLS", 22)  # one row of 23 cells is past it
    answers = plan(CodeSpec(a, 23, 0))
    assert builds == [17, 19]
    for b in (5, 6):
        assert answers(b) == per_m(make(a, 23, b))
    assert builds == [17, 19] + [23] * 2 * blocks


def test_phase_table_holds_the_cosines_and_sines_bit_for_bit():
    # the svt sum and the bound read cos(pi t / n) and sin(pi t / n) off the
    # driver's phases e(t / 2n): cmath.exp(iy) is e^0 (cos y + i sin y) with
    # e^0 exactly 1, and both sides take the angle y = fl(fl(pi t) / n)
    rng = random.Random(29)
    cases = [(n, range(2 * n)) for n in range(1, 401)]
    for n in rng.sample(range(401, 1 << 16), 99) + [1 << 16]:
        cases.append((n, {0, n // 2, n, 3 * n // 2, *rng.sample(range(2 * n), 40)}))
    for n, ts in cases:
        for t in ts:
            x = math.pi * t / n
            phase = cmath.exp(1j * math.pi * t / n)
            assert (phase.real.hex(), phase.imag.hex()) == (math.cos(x).hex(),
                                                            math.sin(x).hex()), (n, t)


def test_trig_sums_read_no_phase_on_a_memo_hit(monkeypatch):
    # blocks of 30 cells hold 15 m of the two rows, so n = 23 takes two blocks; each
    # phase is read once a plan, not once a block, and a residue reads none
    monkeypatch.setattr(enumerator, "_FLOAT_CELLS", 30)
    reads = []

    def counting(part):
        def read(phase):
            reads.append((part, phase))
            return getattr(phase, part)

        return read

    spec = CodeSpec((3, -5, 8, 13, 21), 23, 4)
    phases = [cmath.exp(1j * math.pi * t / 23) for t in range(46)]
    sums = enumerator._trig_plan(spec, (counting("real"), counting("imag")))
    assert Counter(reads) == Counter([(part, p) for part in ("real", "imag") for p in phases])
    reads.clear()
    for two_eta in (7, -1):
        sums(two_eta)
    assert reads == []


def test_float_memo_keeps_the_phase_table(monkeypatch):
    # the table is kept with the rows: a plan's residues call cmath.exp not once, and a
    # residue past the plan bound builds its table afresh. The enumerator sum reads
    # only the n even phases e(2s / 2n), the svt sum all 2n
    exps = []
    exp = cmath.exp
    monkeypatch.setattr(cmath, "exp", lambda x: exps.append(x) or exp(x))
    a = (3, -5, 8, 13, 21)
    for plan, per_m, make, table in (
            (plan_charsum, per_m_charsum, CodeSpec, 23),
            (enumerator.svt_float_plan, per_m_svt, lambda *s: ParityCodeSpec(CodeSpec(*s), 0), 46)):
        expected = [per_m(make(a, 23, b)) for b in (4, 5, 6)]  # the reference builds its own
        exps.clear()
        answers = plan(CodeSpec(a, 23, 0))
        assert len(exps) == table
        exps.clear()
        assert [answers(b) for b in (4, 5, 6)] == expected
        assert exps == []
    monkeypatch.setattr(enumerator, "_FLOAT_MEMO_CELLS", 22)  # one row of 23 cells is past it
    answers = plan_charsum(CodeSpec(a, 23, 0))
    for b in (4, 5):
        expected = per_m_charsum(CodeSpec(a, 23, b))
        exps.clear()
        assert answers(b) == expected
        assert len(exps) == 23


def test_unit_row_times_a_phase_is_the_phase_bit_for_bit():
    # the enumerator sum's first row is w itself and row 1 adds w, where a product
    # built on its own multiplies w by 1+0j: equal by hex for every table entry
    rng = random.Random(33)
    cases = [(n, range(n)) for n in range(1, 601)]
    for n in rng.sample(range(601, 1 << 16), 60) + [1 << 16]:
        cases.append((n, {0, n // 4, n // 2, 3 * n // 4, n - 1, *rng.sample(range(n), 200)}))
    for n, ss in cases:
        for s in ss:
            w = cmath.exp(1j * math.pi * (2 * s) / n)
            unit = w * (1 + 0j)
            assert (unit.real.hex(), unit.imag.hex()) == (w.real.hex(), w.imag.hex()), (n, s)


def _count_float_builds(monkeypatch) -> list:
    """Record the modulus of every block of product rows the float plans build."""
    builds = []
    float_plan = enumerator._float_plan

    def counting(code, width, size, build, *reads):
        def counted(ms, *tables):
            builds.append(code.modulus)
            return build(ms, *tables)

        return float_plan(code, width, size, counted, *reads)

    monkeypatch.setattr(enumerator, "_float_plan", counting)
    return builds


def test_float_memo_spans_blocks(monkeypatch):
    # 12 coefficients mod 6000: 78,000 cells in two blocks, within the plan
    # bound, so a 20-residue sweep builds two blocks, not 40
    builds = _count_float_builds(monkeypatch)
    answers = enumerator.charsum_float_plan(CodeSpec(tuple(range(1, 13)), 6000, 0))
    for b in range(20):
        answers(b)
    assert builds == [6000, 6000]
    # blocks of 30 cells: 5 for the enumerator sum (width 6), 2 for svt (width 2)
    monkeypatch.setattr(enumerator, "_FLOAT_CELLS", 30)
    a = (3, -5, 8, 13, 21)
    sweeps = ((plan_charsum, CodeSpec(a, 23, 0),
               [(b, per_m_charsum(CodeSpec(a, 23, b))) for b in range(23)], 5),
              (enumerator.svt_float_plan, make_levenshtein(5, 23, 0),
               [(b, per_m_svt(make_svt(5, 23, b, r))) for b in range(23) for r in (0, 1)], 2))
    for plan, code, wants, blocks in sweeps:
        builds.clear()
        answers = plan(code)
        for b, want in wants:
            assert answers(b) == want
        assert builds == [23] * blocks
    # past the plan bound every residue builds its blocks again
    monkeypatch.setattr(enumerator, "_FLOAT_MEMO_CELLS", 23 * 6 - 1)
    builds.clear()
    answers = plan_charsum(CodeSpec(a, 23, 0))
    for b in range(3):
        assert answers(b) == per_m_charsum(CodeSpec(a, 23, b))
    assert builds == [23] * 15


# === sizes ===


def test_size_examples():
    assert size(make_vt(4, 0)) == 4
    assert size(make_vt(6, 0)) == 10
    assert size(make_vt(4, 1)) == 3


def _float_size(spec):
    # the float size of any congruence: the svt sum's even plus odd sizes
    even, odd, dev = svt_sizes_charsum_float(ParityCodeSpec(spec, 0))
    assert (even, odd) == _fold_parities(ParityCodeSpec(spec, 0))
    return even + odd, dev


def test_float_size_from_the_svt_sum():
    got, dev = _float_size(make_vt(6, 0))
    assert got == 10 and dev < 1e-9
    # gcd(coefficients, n) does not divide b: empty code
    got, dev = _float_size(CodeSpec((2, 4), 6, 1))
    assert got == 0
    got, _ = _float_size(CodeSpec((1,), 2, 1))
    assert got == 1


def test_float_size_from_the_svt_sum_random():
    rng = random.Random(9)
    for _ in range(30):
        k = rng.randint(1, 10)
        n = rng.randint(1, 40)
        spec = CodeSpec(
            tuple(rng.randint(-60, 60) for _ in range(k)), n, rng.randint(0, n - 1)
        )
        got, dev = _float_size(spec)
        assert got == size(spec)
        assert dev < 1e-6


def test_size_upper_bound():
    spec = make_vt(6, 0)
    assert size_upper_bound(spec) >= size(spec) - 1e-6
    # modulus 1: the bound is exactly 2^k
    assert size_upper_bound(CodeSpec((1, 2, 3), 1, 0)) == pytest.approx(8.0)
    rng = random.Random(10)
    for _ in range(30):
        k = rng.randint(1, 10)
        n = rng.randint(1, 40)
        spec = CodeSpec(
            tuple(rng.randint(-60, 60) for _ in range(k)), n, rng.randint(0, n - 1)
        )
        assert size(spec) <= size_upper_bound(spec) + 1e-6


def test_float_size_routes_check_the_scale_before_the_sum(monkeypatch):
    class Reached(Exception):
        pass

    def trig_plan(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(enumerator, "_trig_plan", trig_plan)
    # both specs pass the cell caps: 1.02e7 cells of 1.12e7, and 6.6e6 of 6.71e6
    lev, svt = make_levenshtein(1024, 10000, 0), make_svt(1100, 3000, 0, 0)
    for route, spec, reason in ((size_upper_bound, lev, "scale 2^1024 / 10000"),
                                (svt_sizes_charsum_float, svt, "scale 2^1099 / 3000")):
        with pytest.raises(IntegralityFailure, match=f"^{re.escape(reason)} overflows a float$"):
            route(spec)
    # at k = 1023 the scale fits, so each route goes on to its sum
    for route, spec in ((size_upper_bound, make_levenshtein(1023, 10000, 0)),
                        (svt_sizes_charsum_float, make_svt(1023, 3000, 0, 0))):
        with pytest.raises(Reached):
            route(spec)


# === full-space solution count ===


def test_lehmer_count_examples():
    assert lehmer_count([2, 4], 6, 2) == 12
    assert lehmer_count([2, 4], 6, 1) == 0
    assert lehmer_count([1], 5, 3) == 1
    assert lehmer_count([3, 6], 9, 0) == 3 * 9
    with pytest.raises(ValueError):
        lehmer_count([1], 0, 0)


# === VT closed forms ===


def test_vt_closed_examples():
    assert vt_weight_enumerator_closed(4, 0).counts == (1, 0, 2, 0, 1)
    assert vt_weight_enumerator_closed(1, 0).counts == (1, 0)
    assert vt_weight_enumerator_closed(2, 1).counts == (0, 1, 0)
    with pytest.raises(ValueError):
        vt_weight_enumerator_closed(4, 5)


def test_vt_closed_matches_fold():
    for n in range(1, 13):
        for b in range(n + 1):
            closed = vt_weight_enumerator_closed(n, b)
            folded = weight_enumerator_fold(make_vt(n, b))
            assert closed.counts == folded.counts, (n, b)


def test_closed_form_equals_fold_wherever_n_divides_k_plus_1():
    # every Levenshtein L_b(k, n) with k <= 30 and n | k+1, every residue: the
    # closed form answers a residue from its gcd class, the fold from its own slot
    cases = 0
    for k in range(1, 31):
        for n in range(1, k + 2):
            if (k + 1) % n:
                assert closed_form_gap(make_levenshtein(k, n, 0)) == (
                    f"modulus {n} does not divide k+1 = {k + 1}")
                continue
            for b in range(n):
                spec = make_levenshtein(k, n, b)
                assert closed_form_gap(spec) == ""
                assert weight_enumerator_closed(spec) == weight_enumerator_fold(spec), (k, n, b)
                cases += 1
    assert cases == 793


def test_closed_form_domain_edges():
    # no coefficients mod 1: the empty word alone
    assert weight_enumerator_closed(CodeSpec((), 1, 0)).counts == (1,)
    # modulus 1 takes every word, whatever the coefficients
    assert weight_enumerator_closed(CodeSpec((4, -7, 0), 1, 0)).counts == (1, 3, 3, 1)
    for coeffs, n, reason in (((1, 2), 2, "modulus 2 does not divide k+1 = 3"),
                              ((1, 1, 2), 4, "coefficients mod 4 are not 1..3 mod 4"),
                              ((0, 2, 3), 4, "coefficients mod 4 are not 1..3 mod 4"),
                              ((5, 2, 7, 8, 1, -2, 4), 4, "coefficients mod 4 are not 1..7 mod 4")):
        spec = CodeSpec(coeffs, n, 0)
        assert closed_form_gap(spec) == reason
        with pytest.raises(OutOfDomain, match=f"^{re.escape(reason)}$"):
            weight_enumerator_closed(spec)
        assert weight_enumerator(spec) == brute_weight_enumerator(spec)
    # 1..7 mod 4 holds 0 once and 1, 2 and 3 twice each, in any order and with any signs
    assert closed_form_gap(CodeSpec((5, 2, 7, 8, 1, -2, 11), 4, 0)) == ""


def test_an_every_residue_sweep_raises_the_fold_cap_outside_the_closed_domain(monkeypatch):
    routes = count_routes(monkeypatch)
    # VT(800) would fold 801 rows of 801^2 bits, past the cap, but the closed form sweeps it
    weight_enumerators(make_vt(800, 0), range(801))
    # outside the closed domain, n residues or more raise the fold's cap error at the call,
    # whatever sequence names them; fewer meet in the middle, once an answer is read
    shifted = CodeSpec(range(2, 802), 801, 0)
    for residues in (range(801), list(range(801)), [5] * 801, range(1000)):
        with pytest.raises(CapExceeded,
                           match="^up to 513922401 packed bits exceeds the cap of 469762048$"):
            weight_enumerators(shifted, residues)
    weight_enumerators(shifted, range(800))
    # outside the closed domain (5 does not divide 7) and under the cap
    weight_enumerators(make_levenshtein(6, 5, 3), range(5))
    assert routes == []


def test_a_sweep_past_sys_maxsize_is_counted_without_len():
    # len() of a range past sys.maxsize raises OverflowError; the route never calls it
    n = 10**23
    answers = weight_enumerators(CodeSpec((1, 2), n, 0), range(n))
    assert next(answers).counts == (1, 0, 0)
    assert next(answers).counts == (0, 1, 0)
    # 40 coefficients modulo a number past 2^63 reach up to 2^40 residues: past the fold's
    # cap, and every residue is asked
    n = (1 << 64) + 13
    rng = random.Random(23)
    code = CodeSpec(tuple(rng.randrange(n) for _ in range(40)), n, 0)
    with pytest.raises(CapExceeded, match=f"^up to {(1 << 40) * 41**2} packed bits exceeds the cap "
                                          "of 469762048$"):
        weight_enumerators(code, range(n))


def test_closed_form_cap_sits_between_vt_40122_and_vt_40123():
    # VT(n) is k = n with a 16-bit modulus here: a row of (n+2)(n+17) bits
    assert 40124 * 40139 <= enumerator._MAX_CLOSED_BITS < 40125 * 40140
    enumerator._check_closed(40122, 40123)
    with pytest.raises(CapExceeded, match="^up to 1610617500 closed-form bits exceeds the cap "
                                          "of 1610612736$"):
        enumerator._check_closed(40123, 40124)
    # past it every closed route raises before it builds the row of 40125 integers,
    # whose 1.6e9 bits would take about 165 MB
    spec = make_vt(40123, 5)
    for route in (lambda: vt_weight_enumerator_closed(40123, 5),
                  lambda: weight_enumerator_closed(spec), lambda: weight_enumerator(spec)):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="^up to 1610617500 closed-form bits"):
                route()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_a_closed_sweep_is_charged_a_row_per_gcd_class_asked(monkeypatch):
    def must_not_run(*args):
        raise AssertionError("a closed-form row was built")

    monkeypatch.setattr(enumerator, "_closed_form", must_not_run)  # no answer is read
    # a sweep keeps one enumerator per gcd class: 28351 and 28403 are prime, two
    # classes each, so VT(28350) is the last VT sweep under the cap before VT(28402)
    weight_enumerators(make_vt(28350, 0), range(28351))
    enumerator._check_closed(28350, 28351, 2)
    with pytest.raises(CapExceeded, match=f"^up to {2 * 28404 * 28418} closed-form bits"):
        weight_enumerators(make_vt(28402, 0), range(28403))
    # VT(30000) answers one residue, but 30001 = 19 * 1579 has four classes
    vt = make_vt(30000, 0)
    enumerator._check_closed(30000, 30001)
    with pytest.raises(CapExceeded, match=f"^up to {4 * 30002 * 30016} closed-form bits "
                                          f"exceeds the cap of 1610612736$"):
        weight_enumerators(vt, range(30001))
    # the classes asked are charged, not the residues: 1..3 are one class, 0 and 19 two
    weight_enumerators(vt, [1, 2, 3])
    with pytest.raises(CapExceeded, match=f"^up to {2 * 30002 * 30016} closed-form bits"):
        weight_enumerators(vt, [0, 19])


def test_closed_form_evaluates_each_gcd_class_once(monkeypatch):
    want = [vt_weight_enumerator_closed(11, b) for b in range(12)]
    calls = []
    form = enumerator._closed_form
    monkeypatch.setattr(enumerator, "_closed_form",
                        lambda k, n, g: calls.append((k, n, g)) or form(k, n, g))
    plan = enumerator.closed_plan(make_levenshtein(11, 12, 0))
    sweep = [plan(b) for b in range(12)]
    assert calls == [(11, 12, g) for g in (12, 1, 2, 3, 4, 6)]  # gcd(b, 12) in order of b
    assert sweep == want
    weight_enumerator_closed(make_levenshtein(11, 6, 3))
    weight_enumerator_closed(make_levenshtein(11, 12, 3))
    assert calls[6:] == [(11, 6, 3), (11, 12, 3)]


def test_closed_domain_check_runs_once_per_sweep(monkeypatch):
    checked = []
    gap = enumerator.closed_form_gap
    monkeypatch.setattr(enumerator, "closed_form_gap",
                        lambda spec: checked.append(spec.residue) or gap(spec))
    # 7 does not divide k+1 = 11: every residue is outside the closed form's domain
    sweep = list(weight_enumerators(make_levenshtein(10, 7, 0), range(7)))
    assert sweep == [brute_weight_enumerator(make_levenshtein(10, 7, b)) for b in range(7)]
    assert checked == [0]
    # in the domain too, and a new coefficient list is checked again
    assert list(weight_enumerators(make_levenshtein(11, 6, 0), range(6))) == [
        weight_enumerator_fold(make_levenshtein(11, 6, b)) for b in range(6)]
    assert checked == [0, 0]


def test_weight_enumerator_takes_the_closed_route_in_its_domain(monkeypatch):
    specs = (make_levenshtein(23, 8, 5), make_helberg(15, 1, 6), CodeSpec((5, -3, 7, -11, 8), 3, 1))
    want = [weight_enumerator_fold(spec) for spec in specs]

    def must_not_run(*args):
        raise AssertionError("a route other than the closed form ran")

    for name in ("weight_enumerator_fold", "weight_enumerator_mitm", "residue_product",
                 "residue_slot"):
        monkeypatch.setattr(enumerator, name, must_not_run)
    assert [weight_enumerator(spec) for spec in specs] == want
    assert [size(spec) for spec in specs] == [w.size() for w in want]
    # past both exact routes' caps, where VT(800) used to raise CapExceeded
    w = weight_enumerator(make_vt(800, 3))
    assert w == vt_weight_enumerator_closed(800, 3) and w.size() == vt_size(800, 3)


if hypothesis is not None:
    @st.composite
    def closed_domain_specs(draw):
        """1..k mod n with n | k+1, shuffled and shifted by multiples of n, any sign."""
        n = draw(st.integers(1, 9))
        k = draw(st.integers(1, 16 // n)) * n - 1
        order = draw(st.permutations(range(1, k + 1)))
        shifts = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
        coeffs = tuple(a + s * n for a, s in zip(order, shifts))
        return CodeSpec(coeffs, n, draw(st.integers(0, n - 1)))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(closed_domain_specs(), st.data())
    def test_closed_form_equals_fold_on_shuffled_shifted_coefficients(spec, data):
        assert closed_form_gap(spec) == ""
        assert weight_enumerator_closed(spec) == weight_enumerator_fold(spec)
        if spec.modulus == 1:
            return  # every coefficient is 0 mod 1, so no change leaves the domain
        # one coefficient moved to another residue leaves the domain; the dispatcher
        # then answers by another route, which must still equal brute force
        coeffs = list(spec.coefficients)
        i = data.draw(st.integers(0, len(coeffs) - 1))
        coeffs[i] += data.draw(st.integers(1, spec.modulus - 1))
        mutant = CodeSpec(coeffs, spec.modulus, spec.residue)
        assert closed_form_gap(mutant) != ""
        assert weight_enumerator(mutant) == brute_weight_enumerator(mutant)
else:
    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_closed_form_equals_fold_on_shuffled_shifted_coefficients():
        pass


def test_vt_closed_large_lengths():
    # q = n + 1 is 2^12, 2^2*3*5*7*11 and 2^13; vt_weight_count reads math.comb,
    # so it checks the closed form's binomial rows independently
    for n, residues in ((4095, (0, 1, 2048)), (4619, (0, 7, 2310)), (8191, (0, 5))):
        for b in residues:
            counts = vt_weight_enumerator_closed(n, b).counts
            assert len(counts) == n + 1
            assert sum(counts) == vt_size(n, b), (n, b)
            for t in (0, 1, 2, 3, n // 2, n // 2 + 1, n - 1, n):
                assert counts[t] == vt_weight_count(n, b, t), (n, b, t)


def test_vt_weight_count_examples():
    assert vt_weight_count(4, 0, 2) == 2
    assert vt_weight_count(4, 0, 1) == 0
    # weight 0 exists exactly for b = 0
    for n in range(1, 9):
        for b in range(n + 1):
            assert vt_weight_count(n, b, 0) == (1 if b == 0 else 0)
    with pytest.raises(ValueError):
        vt_weight_count(4, 0, 5)


def test_vt_weight_count_matches_closed():
    for n in range(1, 12):
        for b in range(n + 1):
            counts = vt_weight_enumerator_closed(n, b).counts
            for t in range(n + 1):
                assert vt_weight_count(n, b, t) == counts[t]


def test_vt_size_examples():
    assert vt_size(4, 0) == 4
    assert vt_size(6, 0) == 10  # (2^7 + 6*2) / 14
    assert vt_size(4, 1) == 3
    assert vt_size(1, 0) == 1


def test_vt_size_partition():
    for n in range(1, 13):
        assert sum(vt_size(n, b) for b in range(n + 1)) == 2**n


def test_vt_q_size():
    assert vt_q_size(4, 0, 2) == vt_size(4, 0) == 4
    assert vt_q_size(2, 0, 3) == 3
    for n in range(1, 9):
        for b in range(n + 1):
            assert vt_q_size(n, b, 2) == vt_size(n, b)
            assert vt_q_size(n, b, 1) == (1 if b == 0 else 0)
    with pytest.raises(ValueError):
        vt_q_size(4, 0, 0)


# === shifted VT ===


def _svt_sizes(k, n, b):
    # (even, odd): the sizes of the shifted VT codes of parity 0 and 1, from the entry point
    return tuple(size(make_svt(k, n, b, r)) for r in (0, 1))


def test_svt_sizes_examples():
    assert _svt_sizes(4, 5, 0) == (4, 0)
    assert _svt_sizes(4, 5, 1) == (1, 2)
    # empty base code
    assert _svt_sizes(1, 5, 3) == (0, 0)


def test_svt_sizes_sum_to_base():
    rng = random.Random(11)
    for _ in range(25):
        k = rng.randint(1, 10)
        n = rng.randint(1, 2 * k + 2)
        b = rng.randint(0, n - 1)
        even, odd = _svt_sizes(k, n, b)
        assert even + odd == size(make_levenshtein(k, n, b))
        assert even >= 0 and odd >= 0


def test_svt_charsum_float_examples():
    even, odd, dev = svt_sizes_charsum_float(make_svt(4, 5, 0, 0))
    assert (even, odd) == (4, 0) and dev < 1e-9
    even, odd, _ = svt_sizes_charsum_float(make_svt(4, 5, 1, 1))
    assert (even, odd) == (1, 2)


def test_svt_charsum_float_matches_exact():
    for k in range(1, 9):
        for n in (k + 1, 2 * k):
            for b in range(n):
                pspec = make_svt(k, n, b, 0)
                want = _fold_parities(pspec)
                even, odd, dev = svt_sizes_charsum_float(pspec)
                assert (even, odd) == want, (k, n, b)
                assert dev < 1e-6


def test_svt_charsum_float_refuses_sizes_from_2_to_the_52(monkeypatch):
    # from 2^52 on, floats lie 1 or more apart and rounding hides any error
    spec = make_svt(1, 1, 0, 0)  # scale 2^0 / 1 = 1, and the sine product drops out
    def sums(*acc):  # a _trig_plan whose sums are acc at every residue
        return lambda *args: lambda two_eta: list(acc)

    monkeypatch.setattr(enumerator, "_trig_plan", sums(complex(2**52 - 1), 0j))
    assert svt_sizes_charsum_float(spec) == (2**52 - 1, 2**52 - 1, 0.0)
    monkeypatch.setattr(enumerator, "_trig_plan", sums(complex(2**52), 0j))
    with pytest.raises(IntegralityFailure, match="^parity character sum reaches 2\\^52"):
        svt_sizes_charsum_float(spec)
    # a deviation of exactly 1e-6 passes; it is checked before 2^52, and a negative size
    # fails on its own
    monkeypatch.setattr(enumerator, "_trig_plan", sums(1e-6j, 0j))
    assert svt_sizes_charsum_float(spec) == (0, 0, 1e-6)
    for acc_a, dev in ((complex(2**52, 0.5), "0.5"), (complex(-1), "0")):
        monkeypatch.setattr(enumerator, "_trig_plan", sums(acc_a, 0j))
        with pytest.raises(IntegralityFailure, match=f"^parity character sum off integer by {dev}$"):
            svt_sizes_charsum_float(spec)


@pytest.mark.parametrize("what", ["character sum", "parity character sum"])
def test_rounded_gate_edges(what):
    # both float counts pass this one gate: deviation first, then 2^52
    up = math.nextafter(1e-6, 1.0)
    assert enumerator._rounded(what, [1e-6 + 0j, complex(3, -1e-6)]) == ([0, 3], 1e-6)
    with pytest.raises(IntegralityFailure, match=f"^{what} off integer by {up:g}$"):
        enumerator._rounded(what, [0j, complex(up)])
    top = 2**52 - 1
    assert enumerator._rounded(what, [complex(top), complex(-top)]) == ([top, -top], 0.0)
    for raw in (2**52, -(2**52)):
        with pytest.raises(IntegralityFailure,
                           match=f"^{what} reaches 2\\^52, where a float stops resolving integers$"):
            enumerator._rounded(what, [complex(raw)])
    with pytest.raises(IntegralityFailure, match=f"^{what} off integer by 0.5$"):
        enumerator._rounded(what, [complex(2**52), 0.5 + 0j])


# === character-sum underpinnings ===


def test_root_of_unity_orthogonality():
    # sum_{m=1}^{n} e(m c / n) is n when n | c and vanishes otherwise
    for n in range(1, 16):
        for c in range(-2 * n, 2 * n + 1):
            total = sum(cmath.exp(2j * math.pi * m * c / n) for m in range(1, n + 1))
            want = n if c % n == 0 else 0
            assert abs(total - want) < 1e-9


def _complex_poly_mul(p, q):
    out = [0j] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_cyclotomic_product_collapses():
    # prod_{j=1}^{n} (1 - z e(j m / n)) = (1 - z^(n/d))^d with d = gcd(m, n)
    for n in range(1, 11):
        for m in range(1, n + 1):
            prod = [1 + 0j]
            for j in range(1, n + 1):
                w = cmath.exp(2j * math.pi * j * m / n)
                prod = _complex_poly_mul(prod, [1, -w])
            d = math.gcd(m, n)
            e = n // d
            want = [0.0] * (n + 1)
            for i in range(d + 1):
                want[e * i] = (-1) ** i * math.comb(d, i)
            assert all(abs(a - b) < 1e-7 for a, b in zip(prod, want)), (n, m)


def test_nonexactdivision_guards_vt_forms(monkeypatch):
    # the closed forms divide exactly for every valid input, so a corrupted
    # c_1 = 2 is the way to see each division check fire
    exact = enumerator.ramanujan_sum
    monkeypatch.setattr(enumerator, "ramanujan_sum", lambda d, m: exact(d, m) + (d == 1))
    with pytest.raises(NonExactDivision, match="^divisor sum not divisible by n\\+1$"):
        vt_weight_enumerator_closed(4, 0)
    with pytest.raises(NonExactDivision, match="^weight-class sum not divisible by n\\+1$"):
        vt_weight_count(4, 0, 0)
    with pytest.raises(NonExactDivision, match="^size sum not divisible by 2\\(n\\+1\\)$"):
        vt_size(4, 0)
    with pytest.raises(NonExactDivision, match="^q-ary size sum not divisible by q\\(n\\+1\\)$"):
        vt_q_size(4, 0, 3)


def test_vt_sizes_evaluate_ramanujan_sums_only_where_their_term_is_nonzero(monkeypatch):
    # only odd divisors of n+1 count towards the size, only those coprime to q towards
    # the q-ary size: the other c_d(b) are never computed
    seen = []
    exact = enumerator.ramanujan_sum
    monkeypatch.setattr(enumerator, "ramanujan_sum", lambda d, m: seen.append(d) or exact(d, m))
    assert vt_size(35, 3) == vt_q_size(35, 3, 2)
    assert seen == [1, 3, 9] * 2  # of the divisors 1, 2, 3, 4, 6, 9, 12, 18, 36
    seen.clear()
    vt_q_size(35, 3, 3)
    assert seen == [1, 2, 4]
    seen.clear()
    vt_q_size(35, 3, 6)
    assert seen == [1]


def test_closed_form_memory_stays_near_its_answer():
    # each quotient overwrites its divisor sum, so one row of k+2 big integers
    # is alive; a second list of quotients beside the sums peaked at twice the answer
    for b in (0, 2367):
        tracemalloc.start()
        try:
            w = enumerator._closed_form(4095, 4096, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.size() == vt_size(4095, b)
        assert peak < 1.25 * sum(map(sys.getsizeof, w.counts))


def test_vt_closed_checks_division_by_one_plus_z(monkeypatch):
    # Every divisor term of the sum vanishes at z = -1 whatever its Ramanujan
    # weight, so only a wrong binomial row reaches the 1 + z check: adding
    # n + 1 = 5 to C(5, 1) keeps the sum divisible by 5 but not by 1 + z.
    def corrupted(e):
        for i, c in enumerate(binomial_row(e)):
            yield c + 5 if (e, i) == (5, 1) else c

    monkeypatch.setattr(enumerator, "binomial_row", corrupted)
    with pytest.raises(NonExactDivision, match="not divisible by 1 \\+ z"):
        vt_weight_enumerator_closed(4, 0)
