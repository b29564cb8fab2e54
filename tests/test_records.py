"""The frozen value types compare and hash by value, refuse assignment, and
survive copy and pickle."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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


def test_pass_quotient_is_an_int_equal_to_its_fraction():
    res = GateResult.build(0, 63, 8, 256, 7 * 10321920, 10321920)
    assert type(res.quotient) is int and res.quotient == 7
    assert res.integral and res.verdict == "PASS"
    as_fraction = GateResult(family=0, m=63, t=8, u=256, F=7 * 10321920,
                             quotient=Fraction(7, 1), integral=True, verdict="PASS")
    assert res == as_fraction and hash(res) == hash(as_fraction)
    assert str(res.quotient) == str(as_fraction.quotient) == "7"


def test_int_quotient_contradicting_its_flags_is_refused():
    with pytest.raises(ValueError, match="contradicts quotient"):
        GateResult(family=0, m=8, t=7, u=36, F=5, quotient=5, integral=False,
                   verdict="FAIL_NONINTEGER")
    with pytest.raises(ValueError, match="contradicts integral"):
        GateResult(family=0, m=8, t=7, u=36, F=5, quotient=5, integral=True,
                   verdict="FAIL_NONINTEGER")


def test_int_quotient_contradicting_its_flags_is_refused_under_python_O():
    code = (
        "from designgate.gate import GateResult\n"
        "assert False, 'assertions are on'\n"
        "try:\n"
        "    GateResult(family=0, m=8, t=7, u=36, F=5, quotient=5, integral=False,\n"
        "               verdict='FAIL_NONINTEGER')\n"
        "except ValueError:\n"
        "    print('rejected')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["rejected"]
