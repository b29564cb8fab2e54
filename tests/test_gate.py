import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from designgate.combinat import binom, exact_quotient, falling
from designgate.families import (
    CodeFamily,
    NonIntegralLambdaError,
    design_params,
    lambda_at,
    lambda_levels,
    lambda_vector,
    nonintegral_levels,
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
SRC = Path(__file__).resolve().parents[1] / "src"
# Members (m, r) of each family, from the smallest to m_max.
GATE_SPREAD = [(1, 0), (8, 0), (15, 0), (63, 0), (153, 0), (0, 1), (15, 1), (58, 1),
               (158, 1), (0, 2), (10, 2), (23, 2), (163, 2)]


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
                 for s in range(len(offsets.xs) + 1))
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
    # integrality_gate takes every level from its member record; the second
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


def test_gate_computes_one_block_count(member_builds):
    # The gate polynomials live in the member record, built once per
    # (family, m), so two weights of one member cost one block count
    # between them.
    f = CodeFamily(8, 0)
    integrality_gate(f, 7, f.k)
    integrality_gate(f, 7, f.k + 4)
    assert member_builds == [(0, 8)]


def test_a_gate_cell_does_no_coefficient_work(monkeypatch):
    # The member record holds each gate as Horner steps; once it is built,
    # a cell only evaluates them.
    from designgate import families, gate

    f = CodeFamily(63, 0)
    weights = (f.k, f.k + 4, 400, f.n // 2, f.n - f.k)
    want = [integrality_gate(f, t, u) for t in (7, 8) for u in weights]

    def refuse(xs):
        raise AssertionError("offset coefficients computed in a gate cell")

    for module in (families, gate):
        monkeypatch.setattr(module, "offset_coefficients", refuse)
    assert [integrality_gate(f, t, u) for t in (7, 8) for u in weights] == want


def test_gate_polynomial_matches_the_moment_route():
    # Horner's rule on the memoised d_h against A_h = (u)_h lambda_h and
    # F = sum_h c_h A_h, at every weight u with A_u > 0 and every strength
    # up to 12, past every member's integral run (which ends by level 8); a
    # strength with a non-integral level must raise instead.
    checked = {}
    for m, r in GATE_SPREAD:
        f = CodeFamily(m, r)
        enum = extremal_weight_enumerator(f.n)
        weights = [u for u in range(f.k, f.n - f.k + 1, 4) if enum.coefficient(u) > 0]
        for t in range(f.am_strength, min(12, f.k) + 1):
            lambdas = lambda_levels(f, range(t + 1))
            if nonintegral_levels(enumerate(lambdas)):
                with pytest.raises(NonIntegralLambdaError):
                    integrality_gate(f, t, f.k)
                continue
            for u in weights:
                F = offset_product_sum(OffsetSet.default(t), moment_vector(u, lambdas))
                want = exact_quotient(F, annihilator_divisor(t))
                res = integrality_gate(f, t, u)
                assert (res.F, res.quotient) == (F, want), (f, t, u)
                assert type(res.quotient) is type(want)
            checked[r] = checked.get(r, 0) + len(weights)
    assert min(checked.values()) > 1000, checked


def test_nonintegral_lambda_is_raised_again_on_a_repeated_call():
    # A failure is not memoised: the second call raises the same levels.
    levels = []
    for _ in range(2):
        with pytest.raises(NonIntegralLambdaError) as exc:
            integrality_gate(CodeFamily(1, 0), 6)
        levels.append(exc.value.levels)
    assert levels[0] and levels[0] == levels[1]


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
    # `designgate gate` prints these texts after `error: `.
    f = CodeFamily(8, 0)
    with pytest.raises(ValueError, match=r"^t = 4 below base strength 5$"):
        integrality_gate(f, 4)
    # No cap on t: past the member's integral run, every failing level is named.
    with pytest.raises(NonIntegralLambdaError) as exc:
        integrality_gate(f, 13)
    assert [i for i, _ in exc.value.levels] == [9, 10, 11, 12, 13]
    assert exc.value.levels[0][1] == Fraction(185136, 23)
    with pytest.raises(ValueError, match=r"^t = 13 above the block size 12$"):
        integrality_gate(CodeFamily(2, 0), 13)
    with pytest.raises(ValueError, match=r"^t = 9 above the block size 8$"):
        integrality_gate(CodeFamily(1, 0), 9)
    with pytest.raises(ValueError, match=r"^u must be a weight multiple of 4 with "
                                         r"36 <= u <= 156, got 35$"):
        integrality_gate(f, 7, 35)
    with pytest.raises(ValueError, match=r"^u must be a weight multiple of 4 with "
                                         r"36 <= u <= 156, got 160$"):
        integrality_gate(f, 7, 24 * 8 - 32)  # u beyond n - k
    for f in (CodeFamily(5, 1), CodeFamily(5, 2)):
        t, top = f.am_strength, f.n - f.k
        assert integrality_gate(f, t, top).u == top
        with pytest.raises(ValueError, match=rf"with {f.k} <= u <= {top}, got {top + 4}$"):
            integrality_gate(f, t, top + 4)


@pytest.mark.parametrize("call,text", [
    # A float u used to give GateResult(F=23040.0, quotient=6.0), whose
    # verdict then raised AttributeError; at large m, Fraction's TypeError.
    (lambda: integrality_gate(CodeFamily(2, 0), 5, 12.0), "u = 12.0: an exact int is required"),
    (lambda: integrality_gate(CodeFamily(150, 0), 7, 604.0),
     "u = 604.0: an exact int is required"),
    (lambda: integrality_gate(CodeFamily(2, 0), 5.0, 12), "t = 5.0: an exact int is required"),
    (lambda: integrality_gate(CodeFamily(2, 0), Fraction(5)),
     "t = Fraction(5, 1): an exact int is required"),
    (lambda: moment_vector(8.0, [759, 253]), "u = 8.0: an exact int is required"),
    (lambda: solve_intersection_numbers(design_params(CodeFamily(1, 0), 5), 8.0, [0, 2, 4, 6],
                                        {8: 1}), "u = 8.0: an exact int is required"),
], ids=["gate-u", "gate-u-large-m", "gate-t", "gate-fraction-t", "moments-u", "solve-u"])
def test_inexact_u_or_t_is_refused_before_any_arithmetic(call, text):
    with pytest.raises(TypeError) as exc:
        call()
    assert str(exc.value) == text


def test_bool_u_and_t_stay_accepted():
    # isinstance(True, int) holds, so a bool passes the exactness check.
    f = CodeFamily(1, 2)  # base strength 1
    assert integrality_gate(f, True) == integrality_gate(f, 1)
    assert moment_vector(True, [1, 1]).entries == (1, 1)


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


def test_solved_counts_satisfy_the_moment_equations_they_came_from():
    # Multiply back: sum_i (i)_s n_i over the free and fixed levels must be
    # (u)_s lambda_s for every s < L, with falling factorials from math.perm.
    rng = random.Random(20261020)
    cases = 0
    for m, r in GATE_SPREAD:
        f = CodeFamily(m, r)
        for t in range(f.am_strength, min(f.k, 9) + 1):
            d = design_params(f, t)
            lambdas = lambda_vector(d)
            for fixed in (None, {f.k: 1}):
                free = rng.sample(range(0, f.k, 2), min(rng.randint(1, t + 1), f.k // 2))
                u = rng.randrange(f.k, f.n - f.k + 1, 4)
                sol = solve_intersection_numbers(d, u, free, fixed)
                assert [lv for lv, _ in sol.entries] == sorted(free)
                assert all(type(n) is Fraction for _, n in sol.entries)
                counts = [*sol.entries, *(fixed or {}).items()]
                for s in range(len(free)):
                    total = sum(math.perm(i, s) * n for i, n in counts)
                    assert total == math.perm(u, s) * lambdas[s], (m, r, t, u, free, fixed, s)
                cases += 1
    assert cases > 100


def test_solve_degenerate_single_level():
    d = design_params(CodeFamily(1, 0), 5)
    sol = solve_intersection_numbers(d, 8, [0])
    assert sol.entries == ((0, 759),)


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


def test_deep_u_matches_the_independent_checker(capsys):
    # perfbench's deep_u process gates every admissible weight of its 15
    # candidates; perfbench/checker.py recomputes each quotient without
    # designgate, by Newton differences.
    import deep_u
    import workloads

    assert deep_u.main([json.dumps(workloads.DEEP_U_CANDIDATES)]) == 0
    out, _ = capsys.readouterr()
    assert workloads.deep_u(1, SRC).ops[0].check(out, "") is None
