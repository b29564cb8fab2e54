"""Ground truth from real codes.  Four extremal doubly even self-dual codes
are built here, every codeword is listed, and the weight distributions,
block counts, lambda levels, intersection numbers and gate quotients are
checked against direct counts over their words.

    [8, 4, 4] Hamming               family 24m+8,  m = 0
    e8 + e8                         family 24m+16, m = 0
    [24, 12, 8] Golay (ext. QR(23)) family 24m,    m = 1
    [32, 16, 8] extended QR(31)     family 24m+8,  m = 1
"""

from fractions import Fraction
from itertools import combinations, islice
from math import comb, factorial

import pytest

from designgate.families import CodeFamily, block_count, design_params, lambda_levels
from designgate.gate import (
    OffsetSet,
    integrality_gate,
    moment_vector,
    offset_product_sum,
    solve_intersection_numbers,
)
from designgate.gleason import extremal_weight_enumerator


def extended_qr_rows(p: int) -> list[int]:
    """Spanning rows, as bit masks over p + 1 coordinates, of the extended
    quadratic-residue code of prime length p = -1 (mod 8): the cyclic shifts
    of the indicator of the nonzero squares mod p, each with a parity bit."""
    v = sum(1 << q for q in {i * i % p for i in range(1, p)})
    full = (1 << p) - 1
    rows = []
    for s in range(p):
        w = ((v << s) | (v >> (p - s))) & full
        rows.append(w | (w.bit_count() % 2) << p)
    return rows


def codewords(rows: list[int]) -> list[int]:
    """Every codeword of the binary code spanned by ``rows``."""
    basis = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
    words = [0]
    for b in basis:
        words += [w ^ b for w in words]
    return words


HAMMING = extended_qr_rows(7)
CODES = {
    "hamming8": (CodeFamily(0, 1), HAMMING),
    "e8+e8": (CodeFamily(0, 2), HAMMING + [r << 8 for r in HAMMING]),
    "golay24": (CodeFamily(1, 0), extended_qr_rows(23)),
    "qr32": (CodeFamily(1, 1), extended_qr_rows(31)),
}


@pytest.fixture(scope="module", params=CODES)
def code(request):
    """(family member, all codewords, minimum-weight words) of one code,
    after checking that it is doubly even, self-dual and extremal."""
    f, rows = CODES[request.param]
    words = codewords(rows)
    assert len(words) == 2 ** (f.n // 2)
    assert all(w < 1 << f.n and w.bit_count() % 4 == 0 for w in words)
    assert min(w.bit_count() for w in words if w) == f.k
    return f, words, [w for w in words if w.bit_count() == f.k]


def meeting_counts(ref: int, blocks: list[int]) -> dict[int, int]:
    """n_i: the number of blocks meeting the reference word in i points."""
    counts: dict[int, int] = {}
    for b in blocks:
        i = (b & ref).bit_count()
        counts[i] = counts.get(i, 0) + 1
    return counts


def test_weight_distribution_is_the_extremal_enumerator(code):
    # m = 0 and m = 1: at n = 8 the recurrence's seeds are the whole half,
    # at n = 16 and 32 its order-4 loop starts at a negative index.
    f, words, _ = code
    distribution = [0] * (f.n + 1)
    for w in words:
        distribution[w.bit_count()] += 1
    assert tuple(distribution) == extremal_weight_enumerator(f.n).coefficients


def test_block_count_is_the_minimum_weight_count(code):
    f, _, blocks = code
    assert block_count(f) == len(blocks)


def test_lambda_levels_count_blocks_through_i_sets(code):
    f, _, blocks = code
    s = f.am_strength
    for i, lam in zip(range(s + 1), lambda_levels(f, range(s + 1))):
        for points in islice(combinations(range(f.n), i), 40):
            mask = sum(1 << p for p in points)
            assert sum(b & mask == mask for b in blocks) == lam, (f, i, points)


def test_intersection_numbers_of_a_block(code):
    f, _, blocks = code
    counts = meeting_counts(blocks[0], blocks)
    assert counts.pop(f.k) == 1
    free = list(range(0, f.k, 2))
    sol = solve_intersection_numbers(design_params(f, f.am_strength), f.k, free,
                                     fixed={f.k: 1})
    assert sol.entries == tuple((i, Fraction(counts.get(i, 0))) for i in free)
    assert not sol.negative_levels and not sol.nonintegral_levels
    assert set(counts) <= set(free)


def test_offset_quotients_match_direct_counts_at_every_weight(code):
    f, words, blocks = code
    s = f.am_strength
    lambdas = lambda_levels(f, range(s + 1))
    refs = {}
    for w in words:
        refs.setdefault(w.bit_count(), w)
    refs.pop(0)
    gated = 0
    for u, ref in sorted(refs.items()):
        counts = meeting_counts(ref, blocks)
        assert all(i % 2 == 0 for i in counts), (f, u)
        for l in range(1, s + 1):
            F = offset_product_sum(OffsetSet.default(l), moment_vector(u, lambdas[:l + 1]))
            direct = sum(comb(i // 2, l) * n_i for i, n_i in counts.items())
            assert Fraction(F, 2**l * factorial(l)) == direct, (f, u, l)
        if f.k <= u <= f.n - f.k:
            res = integrality_gate(f, s, u)
            assert res.integral and res.quotient == direct, (f, u)
            gated += 1
    assert gated
