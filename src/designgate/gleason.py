"""Extremal weight enumerators of binary doubly even self-dual codes.

Every weight enumerator of a doubly even self-dual code of length n (n a
multiple of 8) is an integer combination of the products

    g1^((n - 24j)/8) * g2^j,   0 <= j <= floor(n/24),

where g1 = x^8 + 14 x^4 y^4 + y^8 and g2 = x^4 y^4 (x^4 - y^4)^4.  The
*extremal* enumerator is the unique combination with A_0 = 1 and
A_4 = A_8 = ... = A_{4 floor(n/24)} = 0; its minimum nonzero weight is
4*floor(n/24) + 4.

Because every exponent involved is a multiple of 4 and the polynomials are
homogeneous of degree n, a polynomial is fully described by the sequence of
coefficients of y^{4i} x^{n-4i}.  Internally we therefore work with plain
coefficient lists over the variable z = y^4/x^4:

    g1 / x^8  -> 1 + 14 z + z^2        (PHI)
    g2 / x^24 -> z (1 - z)^4           (PSI)

Each basis element j has leading z-term z^j, so forcing A_0, A_4, ...,
A_{4 floor(n/24)} makes the linear system for the combination unit
triangular: the combination is found by one pass of forward elimination.
g1 and g2 are invariant under x <-> y, so every combination is palindromic
(A_w = A_{n-w}): a full enumerator is solved only to z^(n/8), which is
weight n/2, then mirrored, and verified by sum_w A_w = 2^(n/2), its value
at x = y = 1, where g1 = 16 and g2 = 0.  The drivers need only the
minimum-weight count A_k = -c_{m+1} (:func:`designgate.families.block_count`)
and the sign of the next coefficient (:func:`next_weight_count`), both from
the Lagrange-Buermann coefficients c_j of one expansion, which live in
:mod:`designgate.families`.  The series prefix is the test oracle for both.
"""

from __future__ import annotations

from ._record import Record
from .families import _burmann_coefficient, _exact_div, _phi_power_prefix

# Largest family length the scans ever request: 24*163 + 16.
LENGTH_CAP = 24 * 163 + 16


def _phi_power(a: int, trunc: int) -> list[int]:
    """PHI^a truncated to z^trunc."""
    return _phi_power_prefix(a, trunc + 1)


def _validate_length(n: int) -> None:
    if n % 8 != 0 or n < 8:
        raise ValueError(f"length must be a positive multiple of 8, got {n}")
    if n > LENGTH_CAP:
        raise ValueError(f"length {n} exceeds the supported cap {LENGTH_CAP}")


def _extremal_prefix(n: int, trunc: int) -> list[int]:
    """Coefficients [A_0, A_4, A_8, ...] of the extremal enumerator of
    length n, up to weight 4*trunc.  The unit-triangular elimination: start
    from basis element 0 (coefficient forced to 1 by A_0 = 1) and cancel
    each A_{4j} in turn with basis element j, z^j Q for Q = PHI^e (1 - z)^(4j),
    e = a - 3j, added in the same pass that makes it, scaled by -A_{4j}, from
    (1 - z) PHI Q' = (-4j PHI + e (1 - z) PHI') Q, (1 - z) PHI = 1 + 13z - 13z^2 - z^3."""
    _validate_length(n)
    a = n // 8
    nz = n // 24  # number of forced-zero low coefficients; min weight 4*nz + 4
    w = _phi_power(a, trunc)
    for j in range(1, min(nz, trunc) + 1):
        c = -w[j]
        if c:
            e = a - 3 * j
            m1, m2, m3 = 14 * e - 4 * j, -12 * e - 56 * j - 13, -2 * e - 4 * j - 2  # at k = 1
            q1, q2, q3 = c, 0, 0  # c q_(k-1), c q_(k-2), c q_(k-3), times m1, m2, m3
            w[j] = 0
            for k in range(1, trunc - j + 1):
                q1, q2, q3 = _exact_div(m1 * q1 + m2 * q2 + m3 * q3, k), q1, q2
                w[j + k] += q1
                m1, m2, m3 = m1 - 13, m2 + 13, m3 + 1
    return w


class WeightEnumerator(Record):
    """Exact coefficient list A_0..A_n of a length-n weight enumerator."""

    __slots__ = ("n", "coefficients")

    def __init__(self, n: int, coefficients: tuple[int, ...]):
        super().__init__(n, coefficients)
        if len(self.coefficients) != self.n + 1:
            raise ValueError("coefficient list must have n + 1 entries")

    def coefficient(self, w: int) -> int:
        return self.coefficients[w]

    def min_nonzero_weight(self) -> int:
        for w in range(1, self.n + 1):
            if self.coefficients[w]:
                return w
        raise ValueError("no nonzero weight")

    def negative_weights(self) -> list[int]:
        """Weights with negative coefficients (a nonempty list means no code
        of this length attains the enumerator)."""
        return [w for w, a in enumerate(self.coefficients) if a < 0]


def extremal_weight_enumerator(n: int) -> WeightEnumerator:
    """The extremal enumerator of length n: the unique basis combination with
    A_0 = 1 and A_4 = ... = A_{4 floor(n/24)} = 0, solved exactly up to
    weight n/2 and mirrored by A_w = A_{n-w}.  Raises ArithmeticError unless
    the coefficients sum to 2^(n/2)."""
    prefix = _extremal_prefix(n, n // 8)
    coeffs = [0] * (n + 1)
    for i, a in enumerate(prefix):
        coeffs[4 * i] = coeffs[n - 4 * i] = a
    if sum(coeffs) != 2 ** (n // 2):
        raise ArithmeticError(f"extremal enumerator of length {n} does not sum to 2^{n // 2}")
    return WeightEnumerator(n, tuple(coeffs))


def min_weight_count(n: int) -> int:
    """Block count of the minimum-weight support design: the coefficient
    A_{4 floor(n/24) + 4} of the extremal enumerator, read off the series:
    the test oracle of the Lagrange-Buermann count
    :func:`designgate.families.block_count` that the drivers use."""
    nz = n // 24
    b = _extremal_prefix(n, nz + 2)[nz + 1]
    if b <= 0:
        raise ValueError(
            f"extremal enumerator of length {n} has nonpositive minimum-weight "
            f"count {b}; the family degenerates here"
        )
    return b


def next_weight_count(n: int) -> int:
    """Coefficient A_{k+4} of the extremal enumerator at the weight above the
    minimum k = 4*floor(n/24) + 4.

    With a = n/8 and m = floor(n/24), the extremal enumerator over x^n is
    PHI^a * sum_{j<=m} c_j g^j = 1 - sum_{j>m} c_j PHI^(a-3j) PSI^j, where
    c_j = [g^j] PHI^(-a).  Its coefficients at z^(m+1) and z^(m+2) therefore
    involve c_{m+1} and c_{m+2} alone:

        A_k     = -c_{m+1}
        A_{k+4} = -c_{m+2} - c_{m+1} * (14a - 46(m+1)).

    Here e = 3j - a - 1 is 2 - r and 5 - r, r = a - 3m, so each c_j is a
    sum of at most 12 terms; the series prefix is the test oracle.
    """
    _validate_length(n)
    a, m = n // 8, n // 24
    return (-_burmann_coefficient(a, m + 2)
            - _burmann_coefficient(a, m + 1) * (14 * a - 46 * (m + 1)))
