"""Tests of the benchmark's independent checker against real codes built
here from their definitions and enumerated exhaustively.

Run with: python3 -m pytest perfbench/test_checker.py
"""

from __future__ import annotations

import itertools
from math import comb

import pytest

import checker as c


def _span(generators: list[int]) -> list[int]:
    words = [0]
    for g in generators:
        words += [w ^ g for w in words]
    return words


def _reduce(vectors: list[int]) -> list[int]:
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return basis


def _extended_qr(p: int) -> list[int]:
    """Extended binary quadratic-residue code of prime length p = -1 mod 8:
    cyclic shifts of the residue indicator, plus an overall parity bit."""
    v = sum(1 << (x * x % p) for x in range(1, (p + 1) // 2))
    mask = (1 << p) - 1
    basis = _reduce([((v << s) | (v >> (p - s))) & mask for s in range(p)])
    assert len(basis) == (p + 1) // 2
    return _span([w | ((bin(w).count("1") & 1) << p) for w in basis])


HAMMING8 = _span([0b11110000, 0b00111100, 0b00001111, 0b01010101])
E8_E8 = [a | (b << 8) for a in HAMMING8 for b in HAMMING8]
GOLAY24 = _extended_qr(23)
QR32 = _extended_qr(31)

# (code words, length, family index r, family parameter m, design strength)
CODES = {
    "hamming8": (HAMMING8, 8, 1, 0, 3),
    "e8+e8": (E8_E8, 16, 2, 0, 1),
    "golay24": (GOLAY24, 24, 0, 1, 5),
    "qr32": (QR32, 32, 1, 1, 3),
}


def _weight(w: int) -> int:
    return bin(w).count("1")


def _distribution(words: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
    for w in words:
        out[_weight(w)] += 1
    return out


def test_brute_forced_minimum_weight_counts():
    assert _distribution(HAMMING8, 8)[4] == 14
    assert _distribution(E8_E8, 16)[4] == 28
    assert _distribution(GOLAY24, 24)[8] == 759
    assert _distribution(QR32, 32)[8] == 620


def test_golay_octads_form_a_steiner_system():
    octads = [w for w in GOLAY24 if _weight(w) == 8]
    covered = set()
    for o in octads:
        points = [i for i in range(24) if o >> i & 1]
        for five in itertools.combinations(points, 5):
            covered.add(five)
    assert len(covered) == comb(24, 5) == 56 * len(octads)
    assert c.level(0, 1, 5) == 1


@pytest.mark.parametrize("name", sorted(CODES))
def test_counts_and_enumerator_match_the_code(name):
    words, n, r, m, _ = CODES[name]
    dist = _distribution(words, n)
    k = 4 * m + 4
    assert c.block_count(r, m) == dist[k]
    assert c.min_weight_count_by_series(n) == dist[k]
    assert c.next_weight_count(n) == dist[k + 4]
    assert c.extremal_enumerator(n) == dist
    assert c.extremal_property_failure(n, dist) is None


@pytest.mark.parametrize("name", sorted(CODES))
def test_level_counts_match_the_design(name):
    words, n, r, m, strength = CODES[name]
    k = 4 * m + 4
    blocks = [w for w in words if _weight(w) == k]
    for i in range(strength + 1):
        for points in ((), tuple(range(i)), tuple(range(n - i, n))):
            if len(points) != i:
                continue
            mask = sum(1 << p for p in points)
            assert c.level(r, m, i) == sum(1 for b in blocks if b & mask == mask)


@pytest.mark.parametrize("name", sorted(CODES))
def test_gate_quotient_equals_brute_force_count(name):
    """F / (2^l l!) = sum_i C(i/2, l) n_i over the intersection numbers n_i
    of the blocks with a reference word of weight u = k or k + 4."""
    words, n, r, m, strength = CODES[name]
    k = 4 * m + 4
    blocks = [w for w in words if _weight(w) == k]
    for u in (k, k + 4):
        reference = next(w for w in words if _weight(w) == u)
        sizes = [_weight(b & reference) for b in blocks]
        assert all(s % 2 == 0 for s in sizes)
        for l in range(1, strength + 1):
            F, q = c.gate(r, m, l, u)
            assert q == sum(comb(s // 2, l) for s in sizes)


def test_newton_coefficients_expand_the_offset_product():
    for l in range(0, 9):
        cs = c.newton_coefficients(l)
        for x in range(-3, 30):
            product = 1
            for j in range(l):
                product *= x - 2 * j
            assert sum(ch * c.falling(x, h) for h, ch in enumerate(cs)) == product


def test_closed_forms_match_the_series_route():
    for r in range(3):
        for m in (1, 2, 3, 10, 23, 58, 63, c.M_MAX[r]):
            assert c.block_count(r, m) == c.min_weight_count_by_series(24 * m + 8 * r)


def test_property_check_rejects_a_wrong_enumerator():
    good = _distribution(GOLAY24, 24)
    assert c.extremal_property_failure(24, good) is None
    for w, delta in ((8, 1), (12, -2), (4, 1), (0, 1), (2, 1)):
        bad = list(good)
        bad[w] += delta
        bad[24 - w] += delta if w != 12 else 0
        assert c.extremal_property_failure(24, bad) is not None
    # Golay + Golay is self-dual and doubly even, but not extremal at
    # length 48, where the extremal code has no words of weight 8.
    golay_sq = [0] * 49
    for a, x in enumerate(good):
        for b, y in enumerate(good):
            golay_sq[a + b] += x * y
    assert "below the extremal weight" in c.extremal_property_failure(48, golay_sq)


def test_wenum_and_report_parsers():
    n = 24
    text = "extremal weight enumerator, n = 24\n" + "".join(
        f"A_{w} = {a}\n" for w, a in enumerate(_distribution(GOLAY24, 24)) if a)
    assert c.check_wenum(text, n) is None
    assert c.check_wenum(text.replace("A_8 = 759", "A_8 = 758"), n) is not None
    table = ("report: gate\nfamily: 24m\nm: 1\nt: 5\nu: 8\n\n"
             "family  m  t  u  quotient  verdict\n0       1  5  8  0         PASS\n"
             "surviving (1): {1}\n")
    expected = c.project(c.gate_report(0, 1, 5, 8), "table")
    assert c.parse_report(table, "table") == expected
