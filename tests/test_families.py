from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from designgate.combinat import binom, falling, offset_coefficients
from designgate.families import (
    M_MAXES,
    CodeFamily,
    DesignParams,
    admissible_scan,
    apply_strengthening,
    check_lambda_levels,
    design_params,
    lambda_at,
    lambda_levels,
    lambda_vector,
    member,
    scan_members,
    scan_range,
)
from designgate.gate import integrality_gate
from designgate.gleason import next_weight_count
from gleason_oracle import two_pass_prefix

M_LEMMA1 = [5, 8, 15, 19, 35, 40, 41, 42, 50, 51, 52, 55, 57, 59, 60, 63, 65,
            74, 75, 76, 80, 86, 90, 93, 100, 101, 104, 105, 107, 118, 125, 127,
            129, 130, 135, 143, 144, 150, 151]


def test_family_parameters():
    f = CodeFamily(2, 0)
    assert (f.n, f.k, f.am_strength, f.m_max) == (48, 12, 5, 153)
    g = CodeFamily(3, 2)
    assert (g.n, g.k, g.am_strength, g.m_max) == (88, 16, 1, 163)
    assert g.n % 8 == 0 and g.k % 4 == 0


def test_family_validation():
    with pytest.raises(ValueError):
        CodeFamily(1, 3)
    with pytest.raises(ValueError):
        CodeFamily(154, 0)
    with pytest.raises(ValueError):
        CodeFamily(0, 0)  # length 0
    CodeFamily(0, 1)  # length 8 base case is fine


@pytest.mark.parametrize("r", range(3))
def test_block_count_closed_form_matches_enumerator(r):
    # m = 1, every m = 0 (mod 5) and the top m of the family
    ms = sorted({1, M_MAXES[r], *range(5 if r == 0 else 0, M_MAXES[r] + 1, 5)})
    for m in ms:
        f = CodeFamily(m, r)
        assert member(r, m).b == two_pass_prefix(f.n, m + 2)[m + 1], f


def test_lambda_base_closed_form():
    assert lambda_at(CodeFamily(1, 0), 5) == 1
    assert lambda_at(CodeFamily(2, 0), 5) == binom(8, 1) == 8
    # length-8 base case: b = 14 minimum-weight words, lambda_3 = 1
    assert lambda_at(CodeFamily(0, 1), 3) == 1
    # family 24m: lambda_5 = C(5m-2, m-1) for every m
    for m in range(1, M_MAXES[0] + 1):
        assert lambda_at(CodeFamily(m, 0), 5) == binom(5 * m - 2, m - 1), m


def test_extend_lambda_values():
    f8 = CodeFamily(8, 0)
    assert design_params(f8, 6).lambda_t == 2092128
    assert design_params(f8, 5).lambda_t == binom(38, 7)
    f1 = CodeFamily(1, 0)
    assert design_params(f1, 8).lambda_t == Fraction(1, 969)
    # any m: level-5 value is the closed form
    for m in (3, 17, 90):
        assert design_params(CodeFamily(m, 0), 5).lambda_t == binom(5 * m - 2, m - 1)


def test_lambda_levels_exact_and_int_exactly_when_integral():
    for m, r in [(1, 0), (8, 0), (153, 0), (0, 1), (7, 1), (158, 1), (0, 2), (23, 2),
                 (163, 2)]:
        f = CodeFamily(m, r)
        b = member(r, m).b
        for i, value in zip(range(f.k + 1), lambda_levels(f, range(f.k + 1))):
            exact = Fraction(b * binom(f.k, i), binom(f.n, i))
            assert value == exact, (f, i)
            assert isinstance(value, int) == (exact.denominator == 1), (f, i)


def test_extend_lambda_matches_lambda_at():
    # Second route: extend the base level, lambda_t = lambda_s * C(k-s, t-s) /
    # C(v-s, t-s), with lambda_s from the series elimination's block count.
    for m, r in [(4, 0), (9, 1), (12, 2)]:
        f = CodeFamily(m, r)
        s = f.am_strength
        base = Fraction(two_pass_prefix(f.n, m + 1)[m + 1] * binom(f.k, s), binom(f.n, s))
        for t in range(s, s + 4):
            extended = base * Fraction(binom(f.k - s, t - s), binom(f.n - s, t - s))
            assert extended == lambda_at(f, t) == design_params(f, t).lambda_t, (f, t)


@pytest.mark.parametrize("m,r,t", [(8, 0, 4), (8, 0, 37), (0, 1, 2), (0, 1, 5),
                                   (3, 2, 0), (3, 2, 17)])
def test_design_params_rejects_strength_outside_base_and_block_size(m, r, t):
    f = CodeFamily(m, r)
    with pytest.raises(ValueError, match=rf"need {f.am_strength} <= t <= {f.k}, got t={t}$"):
        design_params(f, t)


def test_lambda_vector_golay():
    d = DesignParams(v=24, k=8, t=5, lambda_t=Fraction(1))
    vec = lambda_vector(d)
    assert vec == [759, 253, 77, 21, 5, 1]


def test_lambda_vector_degenerate_t0():
    d = DesignParams(v=10, k=4, t=0, lambda_t=Fraction(7))
    assert lambda_vector(d) == [7]


def test_lambda_vector_m5_family():
    d = design_params(CodeFamily(5, 0), 5)
    vec = lambda_vector(d)
    assert vec[-1] == binom(23, 4) == 8855


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2))
def test_lambda_counting_identity(m, r):
    # lambda_i * C(v, i) == b * C(k, i) for every level of the design
    f = CodeFamily(m, r)
    d = design_params(f, f.am_strength)
    vec = lambda_vector(d)
    b = vec[0]
    assert b == member(r, m).b
    for i, lam in enumerate(vec):
        assert lam * binom(f.n, i) == b * binom(f.k, i)


@given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=2))
def test_lambda_vector_nonincreasing(m, r):
    f = CodeFamily(m, r)
    vec = lambda_vector(design_params(f, f.am_strength + 2))
    assert all(a >= b for a, b in zip(vec, vec[1:]))


def test_design_params_validation():
    with pytest.raises(ValueError):
        DesignParams(v=10, k=11, t=2, lambda_t=Fraction(1))


@pytest.mark.parametrize("call,error,text", [
    # A float m or r used to construct, then fail deep in the arithmetic.
    (lambda: CodeFamily(8.0, 0), TypeError, "m = 8.0: an exact int is required"),
    (lambda: CodeFamily(8, 0.0), TypeError, "r = 0.0: an exact int is required"),
    (lambda: CodeFamily(Fraction(9), 0), TypeError, "m = Fraction(9, 1): an exact int is required"),
    # A float lambda_t used to carry its binary rounding into every level.
    (lambda: DesignParams(24, 8, 5, 0.1), TypeError,
     "lambda_t = 0.1: floating point is not allowed"),
    (lambda: DesignParams(24, 8.0, 5, 1), TypeError, "k = 8.0: an exact int is required"),
    # r = 3 used to index past M_MAXES, and r = -1 to scan family 24m+16.
    (lambda: admissible_scan(3, 6), ValueError, "family index must be 0, 1 or 2, got 3"),
    (lambda: scan_range(-1), ValueError, "family index must be 0, 1 or 2, got -1"),
], ids=["float-m", "float-r", "fraction-m", "float-lambda", "float-k", "r=3", "r=-1"])
def test_inexact_or_unknown_inputs_are_refused_where_they_enter(call, error, text):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == text


def test_member_refuses_an_inexact_m_after_the_exact_one_was_built():
    # 8.0 == 8 and Fraction(8) == 8 hash alike, so an untyped memo would
    # hand back the m = 8 record and make the refusal depend on call history.
    assert member(0, 8).family == CodeFamily(8, 0)
    for m in (8.0, Fraction(8)):
        with pytest.raises(TypeError) as exc:
            member(0, m)
        assert str(exc.value) == f"m = {m!r}: an exact int is required"


def test_apply_strengthening():
    f0 = CodeFamily(8, 0)
    assert apply_strengthening(f0, 6) == 7
    assert apply_strengthening(f0, 7) == 7
    assert apply_strengthening(f0, 8) == 8
    f1 = CodeFamily(8, 1)
    assert apply_strengthening(f1, 4) == 5
    f2 = CodeFamily(8, 2)
    assert apply_strengthening(f2, 2) == 3
    assert apply_strengthening(f2, 4) == 4
    with pytest.raises(ValueError):
        apply_strengthening(f0, 4)


@given(st.integers(min_value=5, max_value=12))
def test_apply_strengthening_idempotent(t):
    f = CodeFamily(8, 0)
    assert apply_strengthening(f, apply_strengthening(f, t)) == apply_strengthening(f, t)


def test_admissible_scan_lemma1():
    assert admissible_scan(0, 6) == M_LEMMA1


def test_admissible_scan_restricted_to_lambda8():
    got = [m for m in M_LEMMA1
           if not check_lambda_levels(CodeFamily(m, 0), range(6, 9))]
    assert got == [8, 42, 63, 75, 130]


def test_admissible_scan_low_range_empty():
    assert admissible_scan(0, 6, 1, 4) == []


def test_admissible_scan_range_validation():
    with pytest.raises(ValueError):
        admissible_scan(0, 6, 10, 5)
    with pytest.raises(ValueError):
        admissible_scan(0, 6, 1, 200)


F8 = CodeFamily(8, 0)
INEXACT_CALLS = [
    (lambda: admissible_scan(0, 6.0), "t = 6.0"),
    (lambda: admissible_scan(0, 6, 5.0, 9), "m_lo = 5.0"),
    (lambda: admissible_scan(0, 6, 5, 9.0), "m_hi = 9.0"),
    (lambda: list(scan_members(2, 4, m_hi=20.0)), "m_hi = 20.0"),
    (lambda: scan_range(1, 1.0), "m_lo = 1.0"),
    (lambda: lambda_at(F8, 6.0), "level = 6.0"),
    (lambda: lambda_levels(F8, [5, 6, 7.0]), "level = 7.0"),
    (lambda: check_lambda_levels(F8, ["6"]), "level = '6'"),
    (lambda: apply_strengthening(F8, 7.0), "t = 7.0"),  # 6.0 used to return 7.0
    (lambda: design_params(F8, 8.0), "t = 8.0"),  # used to name "level = 8.0"
]


@pytest.mark.parametrize("call,name", INEXACT_CALLS, ids=[name for _, name in INEXACT_CALLS])
def test_inexact_strength_bound_or_level_is_refused_by_name(call, name):
    # These used to fail inside range or math.comb with "'float' object cannot
    # be interpreted as an integer", naming neither the input nor the cause.
    with pytest.raises(TypeError) as exc:
        call()
    assert str(exc.value) == f"{name}: an exact int is required"


def test_bool_strength_bound_and_level_stay_accepted():
    assert scan_range(0, True, 5) == range(1, 6)
    assert lambda_at(F8, True) == lambda_at(F8, 1)
    assert admissible_scan(1, 5, True, 20) == admissible_scan(1, 5, 1, 20)
    with pytest.raises(ValueError, match=r"^t = True below base strength 5$"):
        apply_strengthening(F8, True)


def test_member_records_match_the_independent_checker():
    # perfbench/checker.py takes b from the Mallows-Sloane closed forms,
    # A_{k+4} from its own Buermann loop and each level as a Fraction; the
    # program takes A_{k+4} from the recurrence's first step.
    import checker

    for r in range(3):
        for m in range(0 if r else 1, M_MAXES[r] + 1):
            rec = member(r, m)
            f = rec.family
            assert (f.r, f.m) == (r, m)
            assert rec.b == checker.block_count(r, m), f
            assert next_weight_count(f.n) == checker.next_weight_count(f.n), f
            j = len(rec.levels) - 1
            # The ladder relies on lambda_0..lambda_s being counts everywhere,
            # and every run ends by level 8, below k: no strength a gate can
            # be asked about needs a cap beyond the run.
            assert f.am_strength <= j <= 8 and j < f.k, f
            checker_levels = [checker.level(r, m, i) for i in range(j + 1)]
            assert list(rec.levels) == checker_levels, f
            assert not checker.is_count(checker.level(r, m, j + 1)), f
            assert len(rec.gates) == j + 1, f
            assert rec.gates[:f.am_strength] == (None,) * f.am_strength, f
            for t in range(f.am_strength, j + 1):
                # Horner steps h = t-1, ..., 0 on d_h = c_h lambda_h.
                cs = offset_coefficients(range(0, 2 * t, 2))
                d = [c * lam for c, lam in zip(cs, checker_levels)]
                top, steps, divisor = rec.gates[t]
                assert (top, divisor) == (d[t], 2 ** t * factorial(t)), (f, t)
                assert steps == tuple((d[h], h) for h in range(t - 1, -1, -1)), (f, t)
                F = sum(d_h * falling(f.k, h) for h, d_h in enumerate(d))
                assert integrality_gate(f, t).F == F, (f, t)
