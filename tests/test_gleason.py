import os
import subprocess
import sys
from pathlib import Path

import checker
import pytest

from designgate import gleason
from designgate.combinat import binom
from designgate.families import M_MAXES, CodeFamily, block_count
from designgate.gleason import (
    LENGTH_CAP,
    _burmann_coefficient,
    _extremal_prefix,
    extremal_weight_enumerator,
    min_weight_count,
    next_weight_count,
)
from gleason_oracle import (
    GLEASON_G2,
    gleason_basis,
    solve_basis_combination,
)

KNOWN_MIN_COUNTS = {8: 14, 16: 28, 24: 759, 32: 620, 40: 285, 48: 17296}


def test_basis_shapes():
    assert len(gleason_basis(8)) == 1
    assert len(gleason_basis(24)) == 2
    b24 = gleason_basis(24)
    assert b24[1].coefficient(4) == 1  # g2 alone: lowest term +x^20 y^4
    assert b24[0].coefficient(0) == 1


def test_basis_rejects_bad_length():
    with pytest.raises(ValueError):
        gleason_basis(20)


def test_g2_expansion():
    assert GLEASON_G2.coeffs == {4: 1, 8: -4, 12: 6, 16: -4, 20: 1}


@pytest.mark.parametrize("n,count", sorted(KNOWN_MIN_COUNTS.items()))
def test_min_weight_counts(n, count):
    assert min_weight_count(n) == count


def test_enumerator_n24():
    enum = extremal_weight_enumerator(24)
    assert enum.coefficient(8) == 759
    assert enum.coefficient(12) == 2576
    assert enum.coefficient(16) == 759
    assert enum.min_nonzero_weight() == 8
    assert next_weight_count(24) == 2576


@pytest.mark.parametrize("n", [8, 16, 24, 32, 40, 48])
def test_enumerator_invariants(n):
    enum = extremal_weight_enumerator(n)
    a = enum.coefficients
    assert a[0] == 1 and a[n] == 1
    assert all(a[j] == 0 for j in range(n + 1) if j % 4)
    assert all(a[j] == a[n - j] for j in range(n + 1))
    assert sum(a) == 2 ** (n // 2)
    assert enum.min_nonzero_weight() == 4 * (n // 24) + 4
    assert not enum.negative_weights()


@pytest.mark.parametrize("n", [8, 24, 48, 136, 568, 696, 1000, 1512])
def test_mirrored_enumerator_matches_full_series(n):
    # The enumerator is solved to weight n/2 and mirrored; the series
    # solved all the way to weight n, unmirrored, must agree everywhere.
    full = [0] * (n + 1)
    for i, a in enumerate(_extremal_prefix(n, n // 4)):
        full[4 * i] = a
    assert list(extremal_weight_enumerator(n).coefficients) == full


def test_enumerator_sum_check_rejects_bad_series(monkeypatch):
    def perturbed(n, trunc):
        prefix = _extremal_prefix(n, trunc)
        prefix[-1] += 1  # A_{n/2}, which the mirror does not duplicate
        return prefix

    monkeypatch.setattr(gleason, "_extremal_prefix", perturbed)
    with pytest.raises(ArithmeticError, match="does not sum to 2"):
        extremal_weight_enumerator(48)


def test_enumerator_sum_check_survives_python_O():
    code = (
        "from designgate import gleason\n"
        "assert False, 'assertions are on'\n"
        "good = gleason._extremal_prefix\n"
        "def bad(n, trunc):\n"
        "    prefix = good(n, trunc)\n"
        "    prefix[-1] += 1\n"
        "    return prefix\n"
        "gleason._extremal_prefix = bad\n"
        "try:\n"
        "    gleason.extremal_weight_enumerator(48)\n"
        "except ArithmeticError:\n"
        "    print('rejected')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["rejected"]


@pytest.mark.parametrize("n", [24, 48, 72, 104, 136])
def test_series_agrees_with_explicit_basis(n):
    cs = solve_basis_combination(n)
    assert all(c.denominator == 1 for c in cs)
    basis = gleason_basis(n)
    enum = extremal_weight_enumerator(n)
    for w in range(0, n + 1, 4):
        direct = sum(int(c) * b.coefficient(w) for c, b in zip(cs, basis))
        assert direct == enum.coefficient(w)


def test_closed_form_cross_check_sample():
    # spot checks of the identity behind the family-24m block counts;
    # the full range is covered by the acceptance suite
    for m in (1, 2, 7, 40, 100, 153):
        n = 24 * m
        k = 4 * m + 4
        assert min_weight_count(n) * binom(k, 5) == binom(5 * m - 2, m - 1) * binom(n, 5)


@pytest.mark.parametrize("r", range(3))
def test_next_weight_count_matches_series(r):
    # m = 1, every m = 0 (mod 5) and the top m of the family
    for m in sorted({1, M_MAXES[r], *range(5 if r == 0 else 0, M_MAXES[r] + 1, 5)}):
        n = 24 * m + 8 * r
        nz = n // 24
        assert next_weight_count(n) == _extremal_prefix(n, nz + 2)[nz + 2], n


def test_next_weight_count_closed_sum_matches_the_full_buermann_loop():
    # The checker sums the Lagrange-Buermann coefficients over the full
    # (1 - z)^(-4j) prefix.
    lengths = range(8, LENGTH_CAP + 1, 8)
    assert [next_weight_count(n) for n in lengths] == [
        checker.next_weight_count(n) for n in lengths]


@pytest.mark.parametrize("r", range(3))
def test_first_buermann_coefficient_is_minus_the_block_count(r):
    # A_k = -c_{m+1}: the closed sum against the Mallows-Sloane closed forms
    for m in range(1 if r == 0 else 0, M_MAXES[r] + 1):
        f = CodeFamily(m, r)
        assert -_burmann_coefficient(f.n // 8, m + 1) == block_count(f), f


def test_closed_buermann_sum_refuses_a_coefficient_it_does_not_cover():
    # j = 1 at length 192 gives e = 3j - a - 1 < 0, where PHI^e is a series
    with pytest.raises(ValueError, match="3j > a"):
        _burmann_coefficient(24, 1)


def test_next_weight_count_positive_in_range():
    lengths = [24 * m + 8 * r for r in range(3) for m in range(1, M_MAXES[r] + 1)]
    assert len(lengths) == 474
    assert all(next_weight_count(n) > 0 for n in lengths)


def test_next_weight_count_nonpositive_past_m_max():
    # Zhang's nonexistence bound, where M_MAXES comes from: one step past
    # the top m of families 24m and 24m+8 the next coefficient is no longer
    # positive (24m+16 at m = 164 lies beyond LENGTH_CAP).
    assert next_weight_count(24 * 154) <= 0
    assert next_weight_count(24 * 159 + 8) <= 0


def test_length_validation():
    with pytest.raises(ValueError):
        min_weight_count(12)
    with pytest.raises(ValueError):
        next_weight_count(12)
    with pytest.raises(ValueError):
        next_weight_count(LENGTH_CAP + 8)
    with pytest.raises(ValueError):
        extremal_weight_enumerator(LENGTH_CAP + 8)
