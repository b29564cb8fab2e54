"""Exact combinatorial primitives: binomials, falling factorials, Stirling
numbers of the second kind, elementary symmetric polynomials, the
falling-factorial coefficients of offset products, built one factor at a
time, and exact division.  Nothing here is memoised.

All arithmetic in this package is exact.  Integers are plain Python ``int``
(arbitrary precision); rationals are ``fractions.Fraction``, which is always
stored in lowest terms with a positive denominator, so an integrality verdict
is simply ``value.denominator == 1``, as it is for an ``int``; ``fractions``
is loaded only once a value is non-integral.  Floating point is never used.
"""

import math


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


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), row by row from S(0, .)
    by the recurrence S(n, k) = k*S(n-1, k) + S(n-1, k-1), with S(n, 0) and
    S(0, k) the Kronecker deltas."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 needs n, k >= 0")
    row = [1] + [0] * k  # S(0, 0..k)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def stirling2_by_formula(n: int, k: int) -> int:
    """S(n, k) by the explicit alternating sum (1/k!) sum (-1)^i C(k,i)(k-i)^n.

    Independent code path from :func:`stirling2`; the two must agree.
    """
    if n < 0 or k < 0:
        raise ValueError("stirling2_by_formula needs n, k >= 0")
    return exact_div(sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1)),
                     math.factorial(k))


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


def offset_coefficients(xs) -> list[int]:
    """c_0..c_l with prod_j (i - x_j) = sum_h c_h (i)_h for the l offsets xs,
    one factor at a time: (i)_h (i - x) = (i)_{h+1} + (h - x)(i)_h, so a
    factor (i - x) sends c_h to c_{h-1} + (h - x) c_h, updated in place
    from the top down."""
    c = [1]
    for x in xs:
        c.append(0)
        for h in range(len(c) - 1, 0, -1):
            c[h] = c[h - 1] + (h - x) * c[h]
        c[0] *= -x
    return c


def annihilator_divisor(l: int) -> int:
    """prod_j (2l - x_j) = 2^l l! over the default offsets 0, 2, ..., 2(l-1)."""
    if l < 1:
        raise ValueError("need l >= 1")
    return math.prod(range(2, 2 * l + 1, 2))


def exact_div(num: int, den: int) -> int:
    """num / den, where den must divide num; ArithmeticError otherwise."""
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"inexact division {num} / {den}")
    return q


def exact_quotient(num: int, den: int) -> "int | Fraction":
    """num / den: an int when den divides num, else a Fraction."""
    q, rem = divmod(num, den)
    if not rem:
        return q
    from fractions import Fraction
    return Fraction(num, den)


def as_fraction(x) -> "Fraction":
    """Coerce an exact number to Fraction (rejects floats)."""
    if isinstance(x, float):
        raise TypeError("floating point is not allowed in exact computations")
    from fractions import Fraction
    return x if isinstance(x, Fraction) else Fraction(x)
