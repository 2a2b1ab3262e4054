"""Property tests over random specs; skipped when hypothesis is not installed."""

from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ccodes import (  # noqa: E402
    CodeSpec,
    make_helberg,
    make_svt,
    make_vt,
    residue_product,
    size,
    size_upper_bound,
    svt_sizes,
    vt_weight_enumerator_closed,
    weight_enumerator,
    weight_enumerator_fold,
)
from ccodes.polyring import residue_slot  # noqa: E402

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
    rp = residue_product(coeffs, n)
    for r in range(n):
        assert list(rp.slot(r)) == expected[r]
        assert residue_slot(coeffs, n, r) == rp.slot(r)


@settings
@hypothesis.given(st.integers(1, 12), st.integers(1, 40), st.data())
def test_parity_split_sums_to_size(k, n, data):
    spec = make_svt(k, n, data.draw(st.integers(0, n - 1)), 0)
    even, odd = svt_sizes(spec)
    assert even >= 0 and odd >= 0
    assert even + odd == size(spec.base)


@settings
@hypothesis.given(st.integers(1, 14), st.data())
def test_helberg_s1_is_vt(k, data):
    b = data.draw(st.integers(0, k))
    helberg, vt = make_helberg(k, 1, b), make_vt(k, b)
    assert (helberg.coefficients, helberg.modulus) == (vt.coefficients, vt.modulus)
    assert weight_enumerator_fold(helberg) == vt_weight_enumerator_closed(k, b)


@settings
@hypothesis.given(folds(), st.data())
def test_size_within_cosine_bound(fold, data):
    coeffs, n = fold
    spec = CodeSpec(tuple(coeffs), n, data.draw(st.integers(0, n - 1)))
    bound = size_upper_bound(spec)
    assert size(spec) <= bound * (1 + 1e-9) + 1e-9
