import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from designgate.combinat import (
    binom,
    elem_sym,
    falling,
    offset_coefficients,
    stirling2,
    stirling2_by_formula,
)


def test_binom_values():
    assert binom(24, 5) == 42504
    assert binom(3, 0) == 1
    assert binom(5, 7) == 0
    assert binom(10, -1) == 0
    assert binom(0, 0) == 1


@given(st.integers(min_value=-30, max_value=-1), st.integers(min_value=0, max_value=12))
def test_binom_negative_n_extension(n, k):
    # polynomial extension: C(n, k) = (-1)^k C(k - n - 1, k)
    assert binom(n, k) == (-1) ** k * math.comb(k - n - 1, k)


def test_falling_values():
    assert falling(8, 3) == 336
    assert falling(Fraction(7, 2), 0) == 1
    assert falling(-3, 0) == 1
    assert falling(6, 7) == 0


def test_falling_rejects_negative_m():
    with pytest.raises(ValueError):
        falling(5, -1)


def test_stirling_table_values():
    table = {
        (1, 1): 1, (3, 2): 3, (4, 2): 7, (5, 3): 25, (6, 4): 65,
        (7, 3): 301, (7, 6): 21, (8, 4): 1701, (8, 6): 266,
    }
    for (n, k), want in table.items():
        assert stirling2(n, k) == want


def test_stirling_delta_cases():
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(0, 3) == 0


def test_stirling_recurrence_matches_formula():
    for n in range(21):
        for k in range(21):
            assert stirling2(n, k) == stirling2_by_formula(n, k)


@given(
    st.integers(min_value=0, max_value=12),
    st.fractions(max_denominator=40, min_value=-20, max_value=20),
)
def test_power_expands_in_falling_basis(n, x):
    # x^n == sum_m S(n, m) (x)_m, exactly
    total = sum(stirling2(n, m) * falling(x, m) for m in range(n + 1))
    assert total == x**n


def test_elem_sym_values():
    assert elem_sym([]) == [1]
    assert elem_sym([1, 2, 3]) == [1, 6, 11, 6]
    sig = elem_sym([0, 2, 4, 6, 8, 10, 12])
    assert sig[1] == 42
    assert sig[7] == 0


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


@given(st.lists(st.integers(min_value=-9, max_value=9), max_size=8))
def test_elem_sym_matches_naive_expansion(xs):
    # prod (z - x_i) expanded naively must equal sum (-1)^j sigma_j z^(l-j)
    naive = [1]
    for x in xs:
        naive = _poly_mul(naive, [-x, 1])  # (z - x), ascending powers
    sig = elem_sym(xs)
    l = len(xs)
    expected = [(-1) ** (l - d) * sig[l - d] for d in range(l + 1)]
    assert naive == expected


@given(st.lists(st.integers(min_value=-15, max_value=15), max_size=9))
def test_offset_coefficients_match_the_stirling_sum(xs):
    # prod_j (i - x_j) = sum_theta (-1)^theta sigma_theta i^(l - theta), and
    # i^p = sum_h S(p, h) (i)_h, so c_h = sum_theta (-1)^theta sigma_theta S(l - theta, h).
    l, sigma = len(xs), elem_sym(xs)
    assert offset_coefficients(xs) == [
        sum((-1) ** theta * sigma[theta] * stirling2(l - theta, h) for theta in range(l + 1))
        for h in range(l + 1)]


def test_binom_times_factorial_is_falling():
    for n in range(31):
        for k in range(n + 1):
            assert binom(n, k) * math.factorial(k) == falling(n, k)
