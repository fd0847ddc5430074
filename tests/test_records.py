"""The value types behave as frozen records: field-wise equality within
one class, hashing, the dataclass repr, no assignment, copy and pickle."""

import copy
import pickle

import pytest

from glicci.catalog import (
    cubic_surface_type,
    perrin_table,
    small_degree_descents,
    surface,
)
from glicci.claims import verify_catalog
from glicci.hvector import min_genus
from glicci.picard import DivisorClass
from glicci.planner import build_oracle, plan_cubic


def _one_of_each():
    chain = plan_cubic(18)
    return [
        DivisorClass((4, 1, 1)),
        surface("bordiga"),
        cubic_surface_type("ii", 2),
        perrin_table()[4],
        small_degree_descents()[0],
        chain.steps[0],
        chain,
        build_oracle("p3", 12),
        min_genus(9, 3)[1],
        verify_catalog()[0],
    ]


RECORDS = _one_of_each()
IDS = [type(rec).__name__ for rec in RECORDS]


def test_ten_distinct_record_classes():
    assert len(set(IDS)) == 10


def test_reprs_match_the_dataclass_format():
    assert repr(plan_cubic(18).steps[0]) == (
        "LinkMove(kind='liaison', n_from=18, n_to=20, carrier=CurveFamily("
        "ambient='p3-cubic', d=10, g=12, linsys_dim=21, divisor=DivisorClass("
        "coeffs=(9, 3, 3, 3, 3, 3, 2)), surface='cubic', label='type i'), m=6, "
        "h=None, note='')"
    )
    assert repr(cubic_surface_type("ii", 2)) == (
        "CurveFamily(ambient='p3-cubic', d=5, g=2, linsys_dim=6, divisor=DivisorClass("
        "coeffs=(4, 2, 1, 1, 1, 1, 1)), surface='cubic', label='type ii')"
    )


def test_records_of_different_classes_are_never_equal():
    for a in RECORDS:
        for b in RECORDS:
            if a is not b:
                assert a != b
                assert a.__eq__(b) is NotImplemented
        assert a != a._values()


def test_equal_values_compare_and_hash_equal():
    for a, b in zip(RECORDS, _one_of_each()):
        assert a == b
        assert hash(a) == hash(b)
    assert DivisorClass((1, 2)) != DivisorClass((1, 3))
    assert len({DivisorClass((1, 2)), DivisorClass([1, 2])}) == 1


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(rec):
    field = rec._fields[0]
    before = getattr(rec, field)
    with pytest.raises(AttributeError):
        setattr(rec, field, before)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert getattr(rec, field) is before


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_copy_and_pickle_round_trip(rec):
    for clone in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(clone) is type(rec)
        assert clone == rec
