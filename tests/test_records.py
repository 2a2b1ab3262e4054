"""The value records keep the behaviour of frozen dataclasses: repr, equality, hashing, immutability."""

import copy
import pickle

import pytest

from ccodes import Codebook, CodeSpec, WeightEnumerator, enumerator, make_svt, make_vt


def test_reprs_match_the_dataclass_reprs():
    assert repr(CodeSpec([1, 2], 5, 3)) == "CodeSpec(coefficients=(1, 2), modulus=5, residue=3)"
    assert repr(make_svt(3, 4, 1, 0)) == (
        "ParityCodeSpec(base=CodeSpec(coefficients=(1, 2, 3), modulus=4, residue=1), parity=0)")
    assert repr(WeightEnumerator(2, [1, 0, 1])) == "WeightEnumerator(k=2, counts=(1, 0, 1))"
    assert repr(Codebook.from_strings(["10", "01"])) == "Codebook(k=2, words=(1, 2))"


def test_equality_needs_the_same_class():
    spec = CodeSpec((1,), 2, 0)
    assert spec != make_svt(1, 2, 0, 0)
    assert spec.__eq__((1,)) is NotImplemented
    assert len({WeightEnumerator(1, (1, 1)), WeightEnumerator(1, (1, 1)), spec}) == 2


@pytest.mark.parametrize("record, field", [
    (make_vt(3, 0), "modulus"), (make_svt(3, 4, 1, 0), "parity"),
    (WeightEnumerator(1, (1, 1)), "counts"), (Codebook(1, (0,)), "words"), (Codebook(1, (0,)), "k"),
])
def test_fields_cannot_be_assigned_or_deleted(record, field):
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, 1)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_wrong_arity_is_a_type_error():
    with pytest.raises(TypeError):
        CodeSpec((1,), 2)
    with pytest.raises(TypeError):
        WeightEnumerator(1, (1, 1), 0)


def test_records_copy_and_pickle_through_their_checks():
    for record in (make_vt(3, 1), make_svt(3, 4, 1, 0), WeightEnumerator(1, (1, 1))):
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
        assert repr(copy.copy(record)) == repr(record)


def test_post_init_is_looked_up_on_construction(monkeypatch):
    # the benchmark tracer wraps WeightEnumerator.__post_init__ to count validations
    calls = []
    check = WeightEnumerator.__post_init__

    def counted(self):
        calls.append(self.k)
        check(self)

    monkeypatch.setattr(WeightEnumerator, "__post_init__", counted)
    enumerator.weight_enumerator(make_vt(4, 0))
    WeightEnumerator(2, (1, 0, 1))
    assert calls == [4, 2]
    with pytest.raises(ValueError, match="impossible"):
        WeightEnumerator(1, (1, 2))
    assert calls == [4, 2, 1]
