"""Ground truth from real codes.  Six extremal doubly even self-dual codes
are built here, their codewords are listed, and the weight distributions,
block counts, lambda levels, intersection numbers and gate quotients are
checked against direct counts over their words.

    [8, 4, 4] Hamming               family 24m+8,  m = 0
    e8 + e8                         family 24m+16, m = 0
    [24, 12, 8] Golay (ext. QR(23)) family 24m,    m = 1
    [32, 16, 8] extended QR(31)     family 24m+8,  m = 1
    [40, 20, 8] double circulant    family 24m+16, m = 1
    [48, 24, 12] extended QR(47)    family 24m,    m = 2

The four shortest codes are listed whole.  The two longer ones have 2^20
and 2^24 words, too many to list: the words listed are those with at most
5 (6 for QR(47)) ones on an information set or on its complement (an
information set too, as for any self-dual code), which are all their words
of weight below 12 (14), blocks included.
"""

from fractions import Fraction
from itertools import combinations, islice
from math import comb, factorial, perm

import pytest

from designgate.families import CodeFamily, design_params, lambda_levels, member
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


def systematic(rows: list[int], columns) -> dict[int, int]:
    """A basis of the binary code spanned by ``rows``, by pivot column: the
    pivots are taken greedily in the order of ``columns``, and each basis
    row has a single 1 among them."""
    basis: dict[int, int] = {}
    for r in rows:
        for c, b in basis.items():
            if r >> c & 1:
                r ^= b
        pivot = next((c for c in columns if r >> c & 1), None)
        if pivot is None:
            continue
        for c, b in basis.items():
            if b >> pivot & 1:
                basis[c] = b ^ r
        basis[pivot] = r
    return basis


def sums_of_at_most(rows: list[int], most: int) -> list[int]:
    """The sum of every combination of at most ``most`` of ``rows``."""
    words, frontier = [0], [(0, 0)]  # (sum, index of the next row it may add)
    for _ in range(most):
        frontier = [(w ^ rows[j], j + 1) for w, i in frontier for j in range(i, len(rows))]
        words += [w for w, _ in frontier]
    return words


def double_circulant_rows(first: set[int], half: int) -> list[int]:
    """The rows of the pure double circulant [I | A] over 2 * half
    coordinates, A circulant with ones at ``first`` + i (mod half) in row i."""
    return [1 << i | sum(1 << half + (j + i) % half for j in first) for i in range(half)]


HAMMING = extended_qr_rows(7)
CODES = {
    "hamming8": (CodeFamily(0, 1), HAMMING),
    "e8+e8": (CodeFamily(0, 2), HAMMING + [r << 8 for r in HAMMING]),
    "golay24": (CodeFamily(1, 0), extended_qr_rows(23)),
    "qr32": (CodeFamily(1, 1), extended_qr_rows(31)),
    "dc40": (CodeFamily(1, 2), double_circulant_rows({2, 4, 10, 11, 14, 15, 17}, 20)),
    "qr48": (CodeFamily(2, 0), extended_qr_rows(47)),
}
# Most ones a listed word has on one of the two information sets: every word
# of a short code, of the [40, 20, 8] code every word of weight below
# 2 * 5 + 2, and of QR(47) every word of weight below 2 * 6 + 2.
ONES_ON_A_SIDE = {"dc40": 5, "qr48": 6}


@pytest.fixture(scope="module", params=CODES)
def code(request):
    """(family member, listed codewords, the weight below which they are
    every codeword, minimum-weight words) of one code, after checking that
    it is doubly even, self-dual and extremal."""
    f, rows = CODES[request.param]
    basis = systematic(rows, range(f.n))
    # n/2 doubly even rows that meet evenly span a doubly even self-dual code.
    assert len(basis) == f.n // 2
    assert all(a.bit_count() % 4 == 0 and (a & b).bit_count() % 2 == 0
               for a in basis.values() for b in basis.values())
    # A word is the sum of the basis rows at its ones on the pivots.
    most = ONES_ON_A_SIDE.get(request.param, f.n // 2)
    complement = systematic(rows, [c for c in range(f.n) if c not in basis])
    assert len(complement) == f.n // 2
    words = sorted({w for side in (basis, complement)
                    for w in sums_of_at_most(list(side.values()), most)})
    assert all(w < 1 << f.n and w.bit_count() % 4 == 0 for w in words)
    complete = min(2 * most + 2, f.n + 1)
    if complete > f.n:
        assert len(words) == 2 ** (f.n // 2)
    assert min(w.bit_count() for w in words if w) == f.k < complete
    return f, words, complete, [w for w in words if w.bit_count() == f.k]


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
    f, words, complete, _ = code
    distribution = [0] * (f.n + 1)
    for w in words:
        distribution[w.bit_count()] += 1
    assert distribution[:complete] == list(extremal_weight_enumerator(f.n).coefficients[:complete])


def test_block_count_is_the_minimum_weight_count(code):
    f, _, _, blocks = code
    assert member(f.r, f.m).b == len(blocks)


def test_lambda_levels_count_blocks_through_i_sets(code):
    f, _, _, blocks = code
    s = f.am_strength
    for i, lam in zip(range(s + 1), lambda_levels(f, range(s + 1))):
        for points in islice(combinations(range(f.n), i), 40):
            mask = sum(1 << p for p in points)
            assert sum(b & mask == mask for b in blocks) == lam, (f, i, points)


def test_intersection_numbers_of_a_block(code):
    f, _, _, blocks = code
    counts = meeting_counts(blocks[0], blocks)
    assert counts.pop(f.k) == 1
    d = design_params(f, f.am_strength)
    free = list(range(0, f.k, 2))
    if f == CodeFamily(1, 2):
        # [40, 20, 8]: four free levels but two moment equations, so only the
        # moments sum_i (i)_s n_i = (k)_s lambda_s, s <= 1, are checked,
        # the block itself contributing (k)_s.
        with pytest.raises(ValueError, match="under-determined"):
            solve_intersection_numbers(d, f.k, free, fixed={f.k: 1})
        assert [perm(f.k, s) + sum(perm(i, s) * n_i for i, n_i in counts.items())
                for s in range(2)] == [perm(f.k, s) * lam
                                       for s, lam in enumerate(lambda_levels(f, range(2)))]
        return
    sol = solve_intersection_numbers(d, f.k, free, fixed={f.k: 1})
    assert sol.entries == tuple((i, Fraction(counts.get(i, 0))) for i in free)
    assert not sol.negative_levels and not sol.nonintegral_levels
    assert set(counts) <= set(free)


def test_offset_quotients_match_direct_counts_at_every_weight(code):
    f, words, _, blocks = code
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
        moments = [sum(perm(i, t) * n_i for i, n_i in counts.items()) for t in range(s + 1)]
        assert moments == [perm(u, t) * lam for t, lam in enumerate(lambdas)], (f, u)
        for l in range(1, s + 1):
            F = offset_product_sum(OffsetSet.default(l), moment_vector(u, lambdas[:l + 1]))
            direct = sum(comb(i // 2, l) * n_i for i, n_i in counts.items())
            assert Fraction(F, 2**l * factorial(l)) == direct, (f, u, l)
        if f.k <= u <= f.n - f.k:
            res = integrality_gate(f, s, u)
            assert res.integral and res.quotient == direct, (f, u)
            gated += 1
    assert gated
