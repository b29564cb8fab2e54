"""Exact combinatorial primitives: binomials, falling factorials, Stirling
numbers of the second kind, elementary symmetric polynomials, offset products.

All arithmetic in this package is exact.  Integers are plain Python ``int``
(arbitrary precision); rationals are ``fractions.Fraction``, which is always
stored in lowest terms with a positive denominator, so an integrality verdict
is simply ``value.denominator == 1``, as it is for an ``int``; ``fractions``
is loaded only once a value is non-integral.  Floating point is never used.
"""

from __future__ import annotations

import math
from functools import lru_cache


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), total over all integer inputs.

    Returns 0 for k < 0 and for 0 <= n < k.  For n < 0 the polynomial
    extension C(n, k) = n(n-1)...(n-k+1)/k! is used.
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    num = 1
    for i in range(k):
        num *= n - i
    return num // math.factorial(k)  # exact: k! divides any k-term falling product


def falling(x, m: int):
    """Falling factorial (x)_m = x(x-1)...(x-m+1); (x)_0 = 1.

    ``x`` may be an int or a Fraction; the result has the same type.
    """
    if m < 0:
        raise ValueError(f"falling factorial needs m >= 0, got {m}")
    out = 1
    for i in range(m):
        out = out * (x - i)
    return out


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k) via the recurrence
    S(n, k) = k*S(n-1, k) + S(n-1, k-1), with S(n, 0) and S(0, k) the
    Kronecker deltas."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 needs n, k >= 0")
    if n == 0 or k == 0:
        return 1 if n == k else 0
    if k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def stirling2_by_formula(n: int, k: int) -> int:
    """S(n, k) by the explicit alternating sum (1/k!) sum (-1)^i C(k,i)(k-i)^n.

    Independent code path from :func:`stirling2`; the two must agree.
    """
    if n < 0 or k < 0:
        raise ValueError("stirling2_by_formula needs n, k >= 0")
    total = sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1))
    q, r = divmod(total, math.factorial(k))
    if r:
        raise ArithmeticError(f"alternating sum not divisible by {k}! for ({n},{k})")
    return q


def elem_sym(xs: list[int]) -> list[int]:
    """All elementary symmetric polynomials [sigma_0, ..., sigma_l] of xs.

    Computed by incrementally expanding prod(z + x_i) and reading off the
    coefficients, so sigma_j is the coefficient of z^(l-j).
    """
    coeffs = [1]
    for x in xs:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] += c * x
        coeffs = nxt
    return coeffs


@lru_cache(maxsize=None)
def offset_coefficients(xs: tuple[int, ...]) -> tuple[int, ...]:
    """c_0..c_l with prod_j (i - x_j) = sum_h c_h (i)_h for the l offsets xs:
    c_h = sum_theta (-1)^theta sigma_theta S(l - theta, h)."""
    l = len(xs)
    sigma = elem_sym(list(xs))
    out = [0] * (l + 1)
    for theta in range(l + 1):
        sign = -sigma[theta] if theta % 2 else sigma[theta]
        for h in range(l - theta + 1):
            out[h] += sign * stirling2(l - theta, h)
    return tuple(out)


def annihilator_divisor(l: int) -> int:
    """prod_j (2l - x_j) = 2^l l! over the default offsets 0, 2, ..., 2(l-1)."""
    if l < 1:
        raise ValueError("need l >= 1")
    return math.prod(range(2, 2 * l + 1, 2))


def exact_quotient(num: int, den: int) -> int | Fraction:
    """num / den: an int when den divides num, else a Fraction."""
    q, rem = divmod(num, den)
    if not rem:
        return q
    from fractions import Fraction
    return Fraction(num, den)


def as_fraction(x) -> Fraction:
    """Coerce an exact number to Fraction (rejects floats)."""
    if isinstance(x, float):
        raise TypeError("floating point is not allowed in exact computations")
    from fractions import Fraction
    return x if isinstance(x, Fraction) else Fraction(x)
