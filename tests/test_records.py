"""The frozen value types compare and hash by value, refuse assignment, and
survive copy and pickle."""

import copy
import importlib
import math
import pickle
import pkgutil
from fractions import Fraction

import pytest

import designgate
from designgate.families import CodeFamily, DesignParams, Record
from designgate.gate import (
    GateResult,
    IntersectionSolution,
    MomentVector,
    OffsetSet,
    integrality_gate,
)
from designgate.gleason import WeightEnumerator

FROZEN = [
    CodeFamily(8, 0),
    DesignParams(v=24, k=8, t=5, lambda_t=Fraction(1)),
    OffsetSet((0, 2, 4)),
    MomentVector(8, (759, 6072)),
    GateResult(0, 8, 7, 36, 1569595833, Fraction(1569595833, 8)),
    IntersectionSolution(((0, Fraction(30)), (2, Fraction(280))), (), ()),
    WeightEnumerator(8, (1, 0, 0, 0, 14, 0, 0, 0, 1)),
]


def test_code_family_and_gate_result_compare_and_hash_by_value():
    assert CodeFamily(8, 0) == CodeFamily(m=8, r=0)
    assert CodeFamily(8, 0) != CodeFamily(8, 1)
    assert len({CodeFamily(8, 0), CodeFamily(8, 0), CodeFamily(5, 0)}) == 2
    a = GateResult(0, 8, 7, 36, 1569595833, Fraction(1569595833, 645120))
    b = GateResult(family=0, m=8, t=7, u=36, F=1569595833,
                   quotient=Fraction(1569595833, 645120))
    assert a == b and hash(a) == hash(b)
    assert a != GateResult(0, 8, 7, 40, 1569595833, Fraction(1569595833, 645120))
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


def test_pass_quotient_is_an_int_equal_to_its_fraction():
    res = GateResult(0, 63, 8, 256, 7 * 10321920, 7)
    assert res.integral and res.verdict == "PASS"
    as_fraction = GateResult(family=0, m=63, t=8, u=256, F=7 * 10321920,
                             quotient=Fraction(7, 1))
    assert as_fraction.integral and as_fraction.verdict == "PASS"
    assert res == as_fraction and hash(res) == hash(as_fraction)
    assert str(res.quotient) == str(as_fraction.quotient) == "7"


def test_verdict_and_integral_follow_from_the_quotient_and_cannot_be_assigned():
    res = GateResult(0, 8, 7, 36, 1569595833, Fraction(1569595833, 8))
    assert not res.integral and res.verdict == "FAIL_NONINTEGER"
    for name, value in (("verdict", "PASS"), ("integral", True)):
        with pytest.raises(AttributeError):
            setattr(res, name, value)


def _package_records() -> list[type]:
    for info in pkgutil.iter_modules(designgate.__path__):
        importlib.import_module(f"designgate.{info.name}")
    found, todo = [], list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("designgate."):
            found.append(cls)
    return found


def test_every_record_has_one_setter_per_slot_in_slot_order():
    records = _package_records()
    assert {type(v) for v in FROZEN} <= set(records)
    for cls in records:
        assert len(cls._setters) == len(cls.__slots__), cls.__name__
        for name, set_field in zip(cls.__slots__, cls._setters):
            assert set_field.__self__ is cls.__dict__[name], (cls.__name__, name)


@pytest.mark.parametrize("f,t,u", [(CodeFamily(63, 0), 7, 400), (CodeFamily(8, 0), 7, 36),
                                   (CodeFamily(63, 0), 8, None)])
def test_gate_result_equals_the_one_built_from_its_fields(f, t, u):
    res = integrality_gate(f, t, u)
    built = GateResult(family=res.family, m=res.m, t=res.t, u=res.u, F=res.F,
                       quotient=res.quotient)
    assert res == built and hash(res) == hash(built) and repr(res) == repr(built)
    assert (res.family, res.m, res.t) == (f.r, f.m, t)
    assert res.u == (f.k if u is None else u)
    assert res.quotient == Fraction(res.F, 2**t * math.factorial(t))


@pytest.mark.parametrize("value", FROZEN, ids=lambda v: type(v).__name__)
def test_wrong_arity_raises_type_error(value):
    fields = value._fields()
    with pytest.raises(TypeError):
        type(value)(*fields, fields[0])
    with pytest.raises(TypeError):
        type(value)(*fields[:-1])


def test_record_init_checks_arity():
    class Pair(Record):
        __slots__ = ("a", "b")

    assert Pair(1, 2) == Pair(1, 2) and repr(Pair(1, 2)) == "Pair(a=1, b=2)"
    for values in ((1,), (1, 2, 3)):
        with pytest.raises(TypeError, match=f"^Pair takes 2 fields, got {len(values)}$"):
            Pair(*values)
