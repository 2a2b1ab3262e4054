import pytest

from ccodes import (
    CodeSpec,
    ParityCodeSpec,
    helberg_multipliers,
    make_helberg,
    make_levenshtein,
    make_svt,
    make_vt,
)


def test_codespec_validation():
    with pytest.raises(ValueError):
        CodeSpec((1, 2), 0, 0)
    with pytest.raises(ValueError):
        CodeSpec((1, 2), 3, 3)
    with pytest.raises(ValueError):
        CodeSpec((1, 2), 3, -1)
    spec = CodeSpec([1, 2], 3, 0)  # list input is normalized
    assert spec.coefficients == (1, 2)
    assert spec.length == 2


def test_codespec_equality_across_constructors():
    a = CodeSpec((1, 2, 3), 4, 1)
    b = make_levenshtein(3, 4, 1)
    assert a == b
    assert hash(a) == hash(b) == hash(((1, 2, 3), 4, 1))  # the dataclass hash of the fields
    assert len({a, b, make_helberg(3, 1, 1), make_vt(3, 1)}) == 1
    assert CodeSpec((1, 2), 4, 1) != CodeSpec((1, 2), 4, 2)


def test_make_vt():
    spec = make_vt(4, 0)
    assert spec.coefficients == (1, 2, 3, 4)
    assert spec.modulus == 5
    assert spec.residue == 0
    with pytest.raises(ValueError):
        make_vt(4, 5)
    with pytest.raises(ValueError):
        make_vt(0, 0)


def test_make_levenshtein():
    spec = make_levenshtein(4, 5, 0)
    assert spec == make_vt(4, 0)  # VT is Levenshtein with n = k + 1
    degenerate = make_levenshtein(2, 1, 0)
    assert degenerate.modulus == 1 and degenerate.coefficients == (1, 2)
    with pytest.raises(ValueError):
        make_levenshtein(0, 5, 0)


def test_helberg_multipliers_small():
    assert helberg_multipliers(3, 2) == (1, 2, 4, 7)
    assert helberg_multipliers(1, 3) == (1, 2)
    assert helberg_multipliers(5, 1) == (1, 2, 3, 4, 5, 6)


def test_make_helberg():
    spec = make_helberg(3, 2, 0)
    assert spec.coefficients == (1, 2, 4)
    assert spec.modulus == 7
    with pytest.raises(ValueError):
        make_helberg(3, 2, 7)  # residue must stay below v_{k+1}
    with pytest.raises(ValueError):
        make_helberg(3, 0, 0)


def test_helberg_s1_is_vt():
    for k in range(1, 21):
        for b in (0, k // 2, k):
            assert make_helberg(k, 1, b) == make_vt(k, b)


def test_helberg_multipliers_strictly_increase():
    for s in (1, 2, 3, 5, 60):
        vs = helberg_multipliers(60, s)
        assert len(vs) == 61
        assert all(x < y for x, y in zip(vs, vs[1:]))


def test_helberg_growth_needs_big_integers():
    # with s >= k the recurrence doubles, so v_61 is exactly 2^60
    vs = helberg_multipliers(60, 60)
    assert vs[-1] == 2**60
    assert helberg_multipliers(60, 2)[-1] > 2**42


def test_make_svt():
    spec = make_svt(4, 5, 1, 0)
    assert spec.base == make_levenshtein(4, 5, 1)
    assert spec.parity == 0
    with pytest.raises(ValueError):
        make_svt(4, 5, 1, 2)
    with pytest.raises(ValueError):
        ParityCodeSpec(make_vt(3, 0), -1)
