"""Property tests over random specs; skipped when hypothesis is not installed."""

import contextlib
import io
from itertools import product
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ccodes import (  # noqa: E402
    CodeSpec,
    cli,
    polyring,
    make_helberg,
    make_svt,
    make_vt,
    size,
    size_upper_bound,
    vt_weight_enumerator_closed,
    weight_enumerator,
)
from ccodes.enumerator import fold_plan  # noqa: E402
from ccodes.polyring import reach, residue_plan  # noqa: E402

# derandomized and without an example database: every run checks the same draws
settings = hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                               database=None)


@st.composite
def folds(draw):
    """(coefficients, modulus): zero and negative coefficients, moduli around 2^k.

    Moduli around 2^ceil(k/2) too, where the route cost model changes sides.
    """
    k = draw(st.integers(0, 8))
    coeffs = draw(st.lists(st.one_of(st.just(0), st.integers(-60, 60)), min_size=k, max_size=k))
    edge = [m for p in (k, (k + 1) // 2) for m in ((1 << p) - 1, 1 << p, (1 << p) + 1) if m >= 1]
    modulus = draw(st.one_of(st.sampled_from(edge), st.integers(1, 300)))
    return coeffs, modulus


@settings
@hypothesis.given(folds())
def test_residue_product_equals_brute_force(fold):
    coeffs, n = fold
    k = len(coeffs)
    expected = [[0] * (k + 1) for _ in range(n)]
    for bits in product((0, 1), repeat=k):
        expected[sum(a * c for a, c in zip(coeffs, bits)) % n][sum(bits)] += 1
    for split in range(k + 1):
        plan = residue_plan(coeffs, n, split)
        assert [list(plan(r)) for r in range(n)] == expected, split


@settings
@hypothesis.given(folds())
def test_residue_product_keeps_only_reached_residues(fold):
    # a row for every residue that some subset sum hits and for no other,
    # so at most reach(coeffs, n) of them
    coeffs, n = fold
    hit = {sum(a * c for a, c in zip(coeffs, bits)) % n
           for bits in product((0, 1), repeat=len(coeffs))}
    kept = []
    with mock.patch.object(polyring, "_fold", lambda *args, fold=polyring._fold:
                           kept.append(fold(*args)) or kept[-1]):
        residue_plan(coeffs, n, len(coeffs))
    rows = kept[0]
    assert set(rows) == hit and len(rows) <= reach(coeffs, n)
    assert all(rows.values())


@settings
@hypothesis.given(st.integers(1, 12), st.integers(1, 40), st.data())
def test_parity_split_sums_to_size(k, n, data):
    spec = make_svt(k, n, data.draw(st.integers(0, n - 1)), 0)
    counts = fold_plan(spec.base)(spec.base.residue).counts
    even, odd = sum(counts[::2]), sum(counts[1::2])
    assert (even, odd) == (size(spec), size(make_svt(k, n, spec.base.residue, 1)))
    assert even + odd == size(spec.base)


@settings
@hypothesis.given(st.integers(1, 14), st.data())
def test_helberg_s1_is_vt(k, data):
    b = data.draw(st.integers(0, k))
    helberg, vt = make_helberg(k, 1, b), make_vt(k, b)
    assert (helberg.coefficients, helberg.modulus) == (vt.coefficients, vt.modulus)
    assert fold_plan(helberg)(b) == vt_weight_enumerator_closed(k, b)


@settings
@hypothesis.given(folds(), st.data())
def test_size_within_cosine_bound(fold, data):
    coeffs, n = fold
    spec = CodeSpec(tuple(coeffs), n, data.draw(st.integers(0, n - 1)))
    bound = size_upper_bound(spec)
    assert size(spec) <= bound * (1 + 1e-9) + 1e-9


def _ranges(lo, hi, relative=False):
    """--k, --n or --mod text: an INT, a LO..HI that often starts below lo, or malformed."""
    span = st.tuples(st.one_of(st.integers(lo - 2, lo + 2), st.integers(lo, hi)),
                     st.integers(-1, 6))
    forms = [st.integers(lo - 1, hi).map(str), span.map(lambda t: f"{t[0]}..{sum(t)}"),
             st.sampled_from(["x", "1..", "..3", "1.5"])]
    if relative:
        forms.append(st.sampled_from(["k+1", "2k"]))
    return st.one_of(forms)


@st.composite
def table_argvs(draw):
    """table command lines of every family, k <= 12 and moduli up to about 40."""
    family = draw(st.sampled_from(["vt", "levenshtein", "helberg", "svt", "blcc"]))
    argv = ["table", "--family", family]
    if family == "vt":
        argv += ["--n", draw(_ranges(1, 40))]
    elif family == "helberg":  # k <= 8 keeps the modulus v_{k+1} at most 177
        argv += ["--k", draw(_ranges(1, 8)), "--s", draw(st.sampled_from("0123"))]
    elif family == "blcc":
        coeffs = st.lists(st.integers(-50, 200), min_size=1, max_size=12)
        argv += ["--coeffs", draw(st.one_of(coeffs.map(lambda c: ",".join(map(str, c))),
                                            st.sampled_from(["1,,2", "a"]))),
                 "--mod", draw(_ranges(1, 40))]
    else:
        argv += ["--k", draw(_ranges(1, 12)), "--n", draw(_ranges(1, 40, relative=True))]
    argv += ["--b", draw(st.one_of(st.just("all"), _ranges(0, 12)))]
    if family == "svt":
        argv += ["--r", draw(st.sampled_from(["0", "1", "both"]))]
    return argv + ["--quantity", draw(st.sampled_from(["size", "enumerator", "nt"]))]


def _table(argv, bits):
    """(exit status, stderr) of one table run under a fold cap of bits."""
    err = io.StringIO()
    with mock.patch.object(polyring, "_MAX_BITS", bits), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return cli.main(argv), err.getvalue()


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(table_argvs())
@hypothesis.example(["table", "--family", "levenshtein", "--k", "11", "--n", "2..13", "--b", "5"])
@hypothesis.example(["table", "--family", "blcc", "--coeffs", "3,5,7", "--mod", "0..9",
                     "--b", "all"])
@hypothesis.example(["table", "--family", "svt", "--k", "-1..4", "--n", "2k", "--b", "all",
                     "--r", "both"])
@hypothesis.example(["table", "--family", "helberg", "--k", "0..5", "--s", "2", "--b", "all"])
def test_a_cap_never_hides_a_usage_error(argv):
    # table stops at its first cap; a usage error anywhere in the grid must still win
    capped, free = _table(argv, 0), _table(argv, polyring._MAX_BITS)
    if 2 in (capped[0], free[0]):
        assert capped == free
