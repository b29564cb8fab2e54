"""The frozen value types compare and hash by value, refuse assignment, and
survive copy and pickle."""

import copy
import pickle
from fractions import Fraction

import pytest

from designgate.families import CodeFamily, DesignParams
from designgate.gate import GateResult, IntersectionSolution, MomentVector, OffsetSet
from designgate.gleason import WeightEnumerator
from designgate.theorems import STAGES_24M8

FROZEN = [
    CodeFamily(8, 0),
    DesignParams(v=24, k=8, t=5, lambda_t=Fraction(1)),
    OffsetSet((0, 2, 4)),
    MomentVector(8, (759, 6072)),
    GateResult.build(0, 8, 7, 36, 1569595833, 8),
    IntersectionSolution(((0, Fraction(30)), (2, Fraction(280))), (), ()),
    WeightEnumerator(8, (1, 0, 0, 0, 14, 0, 0, 0, 1)),
    STAGES_24M8[0],
]


def test_code_family_and_gate_result_compare_and_hash_by_value():
    assert CodeFamily(8, 0) == CodeFamily(m=8, r=0)
    assert CodeFamily(8, 0) != CodeFamily(8, 1)
    assert len({CodeFamily(8, 0), CodeFamily(8, 0), CodeFamily(5, 0)}) == 2
    a = GateResult.build(0, 8, 7, 36, 1569595833, 645120)
    b = GateResult(family=0, m=8, t=7, u=36, F=1569595833,
                   quotient=Fraction(1569595833, 645120), integral=False,
                   verdict="FAIL_NONINTEGER")
    assert a == b and hash(a) == hash(b)
    assert a != GateResult.build(0, 8, 7, 40, 1569595833, 645120)
    assert CodeFamily(8, 0) != (8, 0)


def test_default_offsets_equal_the_explicit_set():
    assert OffsetSet.default(3) == OffsetSet((0, 2, 4))
    assert hash(OffsetSet.default(3)) == hash(OffsetSet((0, 2, 4)))
    assert OffsetSet.default(3) != OffsetSet((0, 2))


@pytest.mark.parametrize("value", FROZEN, ids=lambda v: type(v).__name__)
def test_frozen_fields_cannot_be_assigned(value):
    # The first constructor parameter is a field of the same name.
    name = type(value).__init__.__code__.co_varnames[1]
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    assert getattr(value, name) is before


@pytest.mark.parametrize("value", FROZEN, ids=lambda v: type(v).__name__)
def test_frozen_values_survive_copy_and_pickle(value):
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
