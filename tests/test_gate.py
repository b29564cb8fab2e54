import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from designgate.combinat import binom, falling
from designgate.families import (
    CodeFamily,
    NonIntegralLambdaError,
    design_params,
    lambda_at,
    lambda_levels,
    lambda_vector,
)
from designgate.gate import (
    FAIL_NONINTEGER,
    MomentVector,
    NonIntegralMomentError,
    OffsetSet,
    annihilator_divisor,
    integrality_gate,
    moment_vector,
    offset_moment_coefficients,
    offset_product_sum,
    residual_coefficient,
    solve_intersection_numbers,
)
from designgate.gleason import extremal_weight_enumerator

GOLAY_LAMBDAS = [Fraction(x) for x in (759, 253, 77, 21, 5, 1)]


def test_offset_set_validation():
    OffsetSet((0, 2, 8))
    with pytest.raises(ValueError):
        OffsetSet((0, 3))
    with pytest.raises(ValueError):
        OffsetSet((4, 2))
    with pytest.raises(ValueError):
        OffsetSet((2, 2))
    assert OffsetSet.default(7).xs == (0, 2, 4, 6, 8, 10, 12)


def test_golay_moment_vector():
    # A_s = (8)_s lambda_s for the 5-(24, 8, 1) design
    mv = moment_vector(8, GOLAY_LAMBDAS)
    assert mv.entries == (759, 2024, 4312, 7056, 8400, 6720)


def test_moment_vector_trivia():
    mv = moment_vector(10, [Fraction(42)])
    assert mv.entries == (42,)  # A_0 = b always
    # a vanishing falling factorial zeroes the moment regardless of lambda
    mv = moment_vector(3, [Fraction(5), Fraction(2), Fraction(1), Fraction(1)])
    assert mv.entries[3] == 6  # (3)_3 = 6
    assert falling(3, 4) == 0


def test_moment_vector_reports_bad_levels():
    with pytest.raises(NonIntegralMomentError) as exc:
        moment_vector(8, [Fraction(1), Fraction(1, 3), Fraction(2), Fraction(5, 11)])
    assert [s for s, _ in exc.value.levels] == [1, 3]


def test_seven_offset_coefficients():
    cs = offset_moment_coefficients(OffsetSet.default(7))
    assert cs == [0, 10395, -10395, 4725, -1260, 210, -21, 1]


def test_empty_offsets_returns_block_count():
    mv = moment_vector(8, GOLAY_LAMBDAS)
    assert offset_product_sum(OffsetSet(()), mv) == 759


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda l: st.tuples(
            st.lists(st.sampled_from(range(0, 40, 2)), min_size=l, max_size=l,
                     unique=True),
            st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=20),
        )
    )
)
def test_offset_sum_matches_brute_force(data):
    offsets_raw, counts = data
    offsets = OffsetSet(tuple(sorted(offsets_raw)))
    dist = dict(enumerate(counts))
    moments = MomentVector(
        0, tuple(sum(falling(i, s) * n for i, n in dist.items())
                 for s in range(len(offsets) + 1))
    )
    direct = 0
    for i, n in dist.items():
        prod = 1
        for x in offsets.xs:
            prod *= i - x
        direct += prod * n
    assert offset_product_sum(offsets, moments) == direct


def test_divisor_values():
    assert annihilator_divisor(7) == 645120
    assert annihilator_divisor(8) == 10321920
    assert annihilator_divisor(1) == 2


def test_divisor_identity():
    import math
    for l in range(1, 11):
        assert annihilator_divisor(l) == 2**l * math.factorial(l)


def test_residual_coefficients():
    assert residual_coefficient(16, 7) == 8
    assert residual_coefficient(18, 7) == 36
    for m in (8, 63):
        assert residual_coefficient(4 * m + 4, 7) == binom(2 * m + 2, 7)
    with pytest.raises(ValueError):
        residual_coefficient(12, 7)  # below the first free level
    with pytest.raises(ValueError):
        residual_coefficient(15, 7)


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=40))
def test_residual_is_binomial(l, half_excess):
    i = 2 * l + 2 * half_excess
    assert residual_coefficient(i, l) == binom(i // 2, l)


def test_gate_m8_u_k():
    res = integrality_gate(CodeFamily(8, 0), 7)
    assert res.u == 36
    assert res.quotient == Fraction(1569595833, 8)
    assert res.verdict == FAIL_NONINTEGER and not res.integral


def test_gate_m5_u_k_plus_4():
    res = integrality_gate(CodeFamily(5, 0), 7, 28)
    assert res.quotient == Fraction(9009, 4)
    assert res.verdict == FAIL_NONINTEGER


def test_gate_m63_strength8_is_honestly_integral():
    # The correctly-evaluated u=k gate at m=63 passes; elimination comes
    # from the u=k+4 gate.  (The reference value for this quotient is not
    # reproducible from the moment identities; see the acceptance suite.)
    f = CodeFamily(63, 0)
    at_k = integrality_gate(f, 8)
    assert at_k.integral and at_k.quotient > 0
    at_k4 = integrality_gate(f, 8, 4 * 63 + 8)
    assert at_k4.verdict == FAIL_NONINTEGER


def test_gate_matches_design_params_route_at_every_weight():
    # integrality_gate takes every level from lambda_levels; the second
    # route takes only lambda_t from design_params and derives the lower
    # levels with lambda_vector.
    f, t = CodeFamily(10, 2), 4
    enum = extremal_weight_enumerator(f.n)
    weights = [u for u in range(f.k, f.n - f.k + 1, 4) if enum.coefficient(u) > 0]
    assert len(weights) == 43
    lambdas = lambda_vector(design_params(f, t))
    for u in weights:
        expected = offset_product_sum(OffsetSet.default(t), moment_vector(u, lambdas))
        assert integrality_gate(f, t, u).F == expected, u


def test_gate_computes_one_block_count(block_count_calls):
    integrality_gate(CodeFamily(8, 0), 7)
    assert block_count_calls == [CodeFamily(8, 0)]


def test_lambda_levels_match_lambda_at():
    for m, r in [(1, 0), (8, 0), (63, 0), (0, 1), (58, 1), (158, 1), (0, 2), (23, 2), (163, 2)]:
        f = CodeFamily(m, r)
        levels = range(min(f.k, f.am_strength + 4) + 1)
        assert lambda_levels(f, levels) == [lambda_at(f, i) for i in levels], f
    with pytest.raises(ValueError, match="level 9 outside"):
        lambda_levels(CodeFamily(0, 1), [0, 9, 10])


def test_gate_pre_fail_on_nonintegral_lambda():
    with pytest.raises(NonIntegralLambdaError) as exc:
        integrality_gate(CodeFamily(1, 0), 6)
    assert any(level == 6 for level, _ in exc.value.levels)


def test_gate_input_validation():
    f = CodeFamily(8, 0)
    with pytest.raises(ValueError):
        integrality_gate(f, 4)  # below base strength
    with pytest.raises(ValueError):
        integrality_gate(f, 13)  # above cap
    with pytest.raises(ValueError):
        integrality_gate(f, 7, 35)  # u not a multiple of 4
    with pytest.raises(ValueError):
        integrality_gate(f, 7, 24 * 8 - 32)  # u beyond n - k


def test_solve_golay_intersections():
    d = design_params(CodeFamily(1, 0), 5)  # the 5-(24, 8, 1) design
    sol = solve_intersection_numbers(d, 8, [0, 2, 4, 6], fixed={8: 1})
    assert [v for _, v in sol.entries] == [30, 448, 280, 0]
    assert not sol.negative_levels and not sol.nonintegral_levels
    # the solution must satisfy every moment equation, including those not
    # used in the solve
    dist = dict(sol.entries) | {8: Fraction(1)}
    for s in range(6):
        total = sum(falling(i, s) * n for i, n in dist.items())
        assert total == falling(8, s) * GOLAY_LAMBDAS[s]


def test_solve_degenerate_single_level():
    d = design_params(CodeFamily(1, 0), 5)
    sol = solve_intersection_numbers(d, 8, [0])
    assert sol.value(0) == 759


def test_solve_rejects_bad_systems():
    d = design_params(CodeFamily(1, 0), 5)
    with pytest.raises(ValueError):
        solve_intersection_numbers(d, 8, [0, 0])
    with pytest.raises(ValueError):
        solve_intersection_numbers(d, 8, [0, 2], fixed={2: 1})
    with pytest.raises(ValueError):
        solve_intersection_numbers(d, 8, [0, 2, 4, 6, 8, 10, 12])  # 7 > t + 1


def test_oracle_200_random_vectors():
    # seeded brute-force equivalence over random synthetic distributions
    rng = random.Random(20240811)
    for _ in range(200):
        l = rng.randint(1, 8)
        offsets = OffsetSet(tuple(sorted(rng.sample(range(0, 42, 2), l))))
        dist = {i: rng.randint(0, 50) for i in range(0, rng.randint(1, 40))}
        moments = MomentVector(
            0, tuple(sum(falling(i, s) * n for i, n in dist.items())
                     for s in range(l + 1))
        )
        direct = 0
        for i, n in dist.items():
            prod = 1
            for x in offsets.xs:
                prod *= i - x
            direct += prod * n
        assert offset_product_sum(offsets, moments) == direct


def test_tampered_gate_result_rejected_under_python_O(forged_store):
    # A verdict cannot be assigned, and one forged in the store is refused,
    # with assertions compiled out.
    code = (
        "import sys\n"
        "from designgate.cli import main\n"
        "from designgate.families import CodeFamily\n"
        "from designgate.gate import integrality_gate\n"
        "assert False, 'assertions are on'\n"
        "res = integrality_gate(CodeFamily(8, 0), 7)\n"
        "try:\n"
        "    res.verdict = 'PASS'\n"
        "except AttributeError:\n"
        "    print(res.verdict, 'frozen')\n"
        "sys.exit(main(['gate', '--family', '24m', '--m', '8', '--t', '7']))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, DESIGNGATE_STORE=str(forged_store), PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout.split() == [FAIL_NONINTEGER, "frozen"]
    assert "verdict 'PASS' contradicts quotient 1569595833/8" in proc.stderr
