import functools
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import checker
import pytest

from designgate import families, gleason
from designgate.combinat import binom
from designgate.families import (
    M_MAXES,
    CodeFamily,
    _burmann_coefficient,
    _extremal_counts,
    block_count,
)
from designgate.gleason import (
    LENGTH_CAP,
    _recurrence_prefix,
    extremal_weight_enumerator,
    min_weight_count,
    next_weight_count,
)
from gleason_oracle import (
    GLEASON_G2,
    gleason_basis,
    solve_basis_combination,
    two_pass_prefix,
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


def test_min_weight_count_makes_one_buermann_evaluation(monkeypatch):
    # A_k = -c_{m+1} alone: no c_{m+2} for an A_{k+4} nobody asked for.
    calls = []
    real = gleason._burmann_coefficient

    def counting(a, j):
        calls.append((a, j))
        return real(a, j)

    for module in (families, gleason):
        monkeypatch.setattr(module, "_burmann_coefficient", counting)
    for n in range(8, LENGTH_CAP + 1, 8):
        calls.clear()
        min_weight_count(n)
        assert calls == [(n // 8, n // 24 + 1)], n


def test_enumerator_n24():
    enum = extremal_weight_enumerator(24)
    assert enum.coefficient(8) == 759
    assert enum.coefficient(12) == 2576
    assert enum.coefficient(16) == 759
    assert next(w for w in range(1, 25) if enum.coefficient(w)) == 8
    assert next_weight_count(24) == 2576


@pytest.mark.parametrize("w", [-1, -25, 25, 48])
def test_coefficient_refuses_a_weight_outside_the_length(w):
    # A negative index would read A_{n+1+w} from the far end of the list.
    enum = extremal_weight_enumerator(24)
    assert (enum.coefficient(0), enum.coefficient(24)) == (1, 1)
    with pytest.raises(ValueError, match=rf"^weight {w} outside 0\.\.24$"):
        enum.coefficient(w)


@pytest.mark.parametrize("n", [8, 16, 24, 32, 40, 48])
def test_enumerator_invariants(n):
    enum = extremal_weight_enumerator(n)
    a = enum.coefficients
    assert a[0] == 1 and a[n] == 1
    assert all(a[j] == 0 for j in range(n + 1) if j % 4)
    assert all(a[j] == a[n - j] for j in range(n + 1))
    assert sum(a) == 2 ** (n // 2)
    assert next(w for w in range(1, n + 1) if a[w]) == 4 * (n // 24) + 4
    assert not enum.negative_weights()


@pytest.mark.parametrize("n", [8, 24, 48, 136, 568, 696, 1000, 1512])
def test_mirrored_enumerator_matches_full_series(n):
    # The enumerator is solved to weight n/2 and mirrored; the oracle's
    # series solved all the way to weight n, unmirrored, must agree everywhere.
    full = [0] * (n + 1)
    for i, a in enumerate(two_pass_prefix(n, n // 4)):
        full[4 * i] = a
    assert list(extremal_weight_enumerator(n).coefficients) == full


def test_enumerator_sum_check_rejects_bad_series(monkeypatch):
    def perturbed(n):
        prefix = _recurrence_prefix(n)
        prefix[-1] += 1  # A_{n/2}, which the mirror does not duplicate
        return prefix

    monkeypatch.setattr(gleason, "_recurrence_prefix", perturbed)
    with pytest.raises(ArithmeticError, match="does not sum to 2"):
        extremal_weight_enumerator(48)


def test_enumerator_sum_check_counts_a_mirrored_coefficient_twice(monkeypatch):
    # The check runs on the computed half as 2 * sum - A_{n/2}; a coefficient
    # below the centre appears twice in the mirrored list.
    def perturbed(n):
        prefix = _recurrence_prefix(n)
        prefix[1] += 1  # A_4, mirrored to A_{n-4}
        return prefix

    monkeypatch.setattr(gleason, "_recurrence_prefix", perturbed)
    with pytest.raises(ArithmeticError, match="does not sum to 2"):
        extremal_weight_enumerator(48)


def _run_under_python_O(code: str) -> str:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_enumerator_sum_check_survives_python_O():
    code = (
        "from designgate import gleason\n"
        "assert False, 'assertions are on'\n"
        "good = gleason._recurrence_prefix\n"
        "def bad(n):\n"
        "    prefix = good(n)\n"
        "    prefix[-1] += 1\n"
        "    return prefix\n"
        "gleason._recurrence_prefix = bad\n"
        "try:\n"
        "    gleason.extremal_weight_enumerator(48)\n"
        "except ArithmeticError:\n"
        "    print('rejected')\n"
    )
    assert _run_under_python_O(code).split() == ["rejected"]


def test_perturbed_recurrence_constant_raises_under_python_O():
    # r = 0's last constant -105 -> -104: every length 24m must raise
    # ArithmeticError (an inexact division or the centre check), never
    # return an enumerator.
    code = (
        "from designgate import gleason\n"
        "assert False, 'assertions are on'\n"
        "(q,), *rest = gleason._RECURRENCE_Q\n"
        "print(q[4][-1])\n"
        "gleason._RECURRENCE_Q = ((q[:4] + (q[4][:-1] + (-104,),),), *rest)\n"
        "for n in range(24, gleason.LENGTH_CAP + 1, 24):\n"
        "    try:\n"
        "        gleason.extremal_weight_enumerator(n)\n"
        "    except ArithmeticError:\n"
        "        print('rejected')\n"
        "    else:\n"
        "        print('returned', n)\n"
    )
    assert _run_under_python_O(code).split() == ["-105"] + ["rejected"] * 163


# SHA-256 of "n:w_0,...,w_a;" over n = 8, 16, ..., LENGTH_CAP, w_i = A_{4i}, a = n/8.
ORACLE_PREFIX_DIGEST = "fd019597e61f38409097fafddf17de9d591f79b229ea3aa794b66dd56e12e32a"


@functools.cache
def recurrence_prefixes() -> dict[int, list[int]]:
    return {n: _recurrence_prefix(n) for n in range(8, LENGTH_CAP + 1, 8)}


def test_recurrence_matches_the_pinned_elimination_digest_at_every_length():
    """The digest comes from the series elimination; the oracle re-derives
    it (about 11 s):

        hashlib.sha256("".join(f"{n}:{','.join(map(str, two_pass_prefix(n, n // 8)))};"
                               for n in range(8, LENGTH_CAP + 1, 8)).encode()).hexdigest()
    """
    h = hashlib.sha256()
    for n, w in recurrence_prefixes().items():
        h.update(f"{n}:{','.join(map(str, w))};".encode())
    assert h.hexdigest() == ORACLE_PREFIX_DIGEST


def test_recurrence_matches_the_live_elimination():
    # Every n <= 1200 and the three largest lengths of each family: the
    # pinned digest above is the oracle's, not only the recurrence's.
    prefixes = recurrence_prefixes()
    lengths = [n for n in prefixes if n <= 1200]
    for r in range(3):
        lengths += [n for n in prefixes if n % 24 == 8 * r][-3:]
    for n in lengths:
        assert prefixes[n] == two_pass_prefix(n, n // 8), n


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
        assert next_weight_count(n) == two_pass_prefix(n, nz + 2)[nz + 2], n


def test_next_weight_count_closed_sum_matches_the_full_buermann_loop():
    # The checker sums the Lagrange-Buermann coefficients over the full
    # (1 - z)^(-4j) prefix.
    lengths = range(8, LENGTH_CAP + 1, 8)
    assert [next_weight_count(n) for n in lengths] == [
        checker.next_weight_count(n) for n in lengths]


@pytest.mark.parametrize("r", range(3))
def test_block_count_matches_the_mallows_sloane_closed_forms(r):
    # A_k = -c_{m+1} against the checker's independent closed forms, at
    # every member, the length 8 and 16 base cases (b = 14, 28) included
    for m in range(1 if r == 0 else 0, M_MAXES[r] + 1):
        assert block_count(CodeFamily(m, r)) == checker.block_count(r, m), (r, m)


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
    # the top m of each family the next coefficient is no longer positive
    # (24m+16 at m = 164, length 3952 = 8 * 494, lies beyond LENGTH_CAP).
    assert next_weight_count(24 * 154) <= 0
    assert next_weight_count(24 * 159 + 8) <= 0
    assert _extremal_counts(494, 164)[1] <= 0


@pytest.mark.parametrize("fn", [extremal_weight_enumerator, min_weight_count,
                                next_weight_count])
def test_inexact_length_is_refused_by_name(fn):
    # A float n used to fail on a tuple index or a list repetition, with a
    # message that named neither n nor the cause.
    with pytest.raises(TypeError) as exc:
        fn(48.0)
    assert str(exc.value) == "n = 48.0: an exact int is required"


def test_length_validation():
    with pytest.raises(ValueError):
        min_weight_count(12)
    with pytest.raises(ValueError):
        next_weight_count(12)
    with pytest.raises(ValueError):
        next_weight_count(LENGTH_CAP + 8)
    with pytest.raises(ValueError):
        extremal_weight_enumerator(LENGTH_CAP + 8)
