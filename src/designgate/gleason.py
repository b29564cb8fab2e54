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
triangular; its forward elimination is the tests' oracle.  g1 and g2 are
invariant under x <-> y, so every combination is palindromic (A_w =
A_{n-w}): a full enumerator needs only w_i = A_{4i} for i <= a = n/8,
which it takes in n/8 steps from a linear recurrence with
polynomial coefficients (:data:`_RECURRENCE_Q`) seeded with w_0 = 1, w_1 =
... = w_m = 0 and w_{m+1} = -c_{m+1}, m = floor(n/24), and run to w_{a+1}.
Three checks raise ArithmeticError: every division is exact, the centre is
palindromic (w_{a+1} = w_{a-1}, for a >= 2), and the mirrored enumerator
sums to 2^(n/2), its value at x = y = 1, where g1 = 16 and g2 = 0; that sum,
2 * sum(w_0..w_a) - w_a, is taken on the half before it is mirrored.  The
drivers need only A_k = -c_{m+1} and the sign of A_{k+4}, both read from
the member record of :func:`designgate.families.member`, which takes them
from the Lagrange-Buermann coefficients c_j of one expansion;
:func:`min_weight_count` gives A_k = -c_{m+1} and :func:`next_weight_count`
A_{k+4} at any length from the same coefficients.
"""

from .combinat import exact_div
from .families import (
    M_MAXES,
    Record,
    _burmann_coefficient,
    _extremal_counts,
    _phi_power_prefix,
    require_ints,
)

# Largest family length the scans ever request: family 24m+16 at its m_max.
LENGTH_CAP = 24 * M_MAXES[2] + 16


def _phi_power(a: int, trunc: int) -> list[int]:
    """PHI^a truncated to z^trunc: the start of the tests' series elimination."""
    return _phi_power_prefix(a, trunc + 1)


def _validate_length(n: int) -> None:
    require_ints(n=n)
    if n % 8 != 0 or n < 8:
        raise ValueError(f"length must be a positive multiple of 8, got {n}")
    if n > LENGTH_CAP:
        raise ValueError(f"length {n} exceeds the supported cap {LENGTH_CAP}")


# sum_{s=0..R} p_s(i) w_{i+s} = 0 on w_i = A_{4i}, with N = n/4, m = floor(n/24),
# R = 2 for r = (n/8) mod 3 = 0 and R = 4 otherwise, every p_s of degree 7 in i:
#     p_0(i) = i (i-N)(i-N+1)(i-N+m+1)(2i-2N+1)(4i-4N+1)(4i-4N+3),
#     p_R(i) = (i-N+R)(i-m+R-1)(i+R-1)(i+R)(2i+2R-1)(4i+4R-3)(4i+4R-1),
#     p_s(i) = (i-N+s)(i+s) q_s(i), times (2i-N+2s) where 2s = R, for 0 < s < R.
# _RECURRENCE_Q[r] holds q_1..q_(R-1), each by its coefficients from the highest
# power of i down, each coefficient a polynomial in m, highest power first.
_RECURRENCE_Q = (
    (((-32,), (384, -128), (-2688, 1712, -262), (9216, -8736, 2692, -268),
      (-6912, 12096, -6468, 1389, -105)),),
    (((384,), (-12032, -160), (142848, 3264, -408), (-836352, -23328, 8120, 310),
      (2446848, 77760, -49248, -3504, -42), (-2861568, -93312, 100872, 10638, 270, 0)),
     ((-416,), (4992, -1664), (-33408, 10032, -2878), (110592, -37152, 7380, -2428),
      (-62208, 81216, -8388, 2049, -804)),
     ((384,), (512, 4000), (-7680, 3520, 16232), (34560, -46944, 8056, 31802),
      (-69120, 150336, -91488, 6584, 29662), (41472, -169344, 152856, -57414, 894, 10260))),
    (((384,), (-12032, -3808), (142848, 90048, 13224), (-836352, -783648, -226024, -18686),
      (2446848, 3036096, 1298592, 209784, 7806),
      (-2861568, -4406400, -2480760, -583650, -37872, 2970)),
     ((-416,), (4992, 0), (-33408, -16464, -5182), (110592, 98784, 31092, 0),
      (-62208, -77760, -38340, -9315, -2322)),
     ((384,), (512, 3808), (-7680, -1344, 13224), (34560, -14688, -12008, 18686),
      (-69120, 67392, 14496, -14448, 7806), (41472, -114048, -30312, -2358, -8964, -2970))),
)


def _horner(coefficients, x: int) -> int:
    value = 0
    for c in coefficients:
        value = value * x + c
    return value


def _recurrence_prefix(n: int) -> list[int]:
    """[A_0, A_4, ..., A_{n/2}] of the extremal enumerator of length n by the
    seeded recurrence, with its exact-division and centre checks."""
    _validate_length(n)
    a, m, N = n // 8, n // 24, n // 4
    qs = [[_horner(c, m) for c in q] for q in _RECURRENCE_Q[a - 3 * m]]
    R = len(qs) + 1
    w = [0] * R + [1] + [0] * m + [-_burmann_coefficient(a, m + 1)]  # w_i is w[R + i]
    for i in range(m - R + 2, (a + 1 if a > 1 else a) + 1 - R):  # a = 1: all seeds
        x, j = i - N, i + R
        acc = i * x * (x + 1) * (x + m + 1) * (2 * x + 1) * (4 * x + 1) * (4 * x + 3) * w[R + i]
        for s, q in enumerate(qs, 1):
            p = (x + s) * (i + s) * _horner(q, i) * (i + x + 2 * s if 2 * s == R else 1)
            acc += p * w[R + i + s]
        w.append(exact_div(-acc, (j - N) * (j - m - 1) * (j - 1) * j
                           * (2 * j - 1) * (4 * j - 3) * (4 * j - 1)))
    if a > 1 and w[R + a + 1] != w[R + a - 1]:
        raise ArithmeticError(f"extremal enumerator of length {n} is not palindromic at its centre")
    return w[R:R + a + 1]


class WeightEnumerator(Record):
    """Exact coefficient list A_0..A_n of a length-n weight enumerator."""

    __slots__ = ("n", "coefficients")

    def __init__(self, n: int, coefficients: tuple[int, ...]):
        super().__init__(n, coefficients)
        if len(self.coefficients) != self.n + 1:
            raise ValueError("coefficient list must have n + 1 entries")

    def coefficient(self, w: int) -> int:
        """A_w, for a weight w in 0..n."""
        if 0 <= w <= self.n:
            return self.coefficients[w]
        raise ValueError(f"weight {w} outside 0..{self.n}")

    def negative_weights(self) -> list[int]:
        """Weights with negative coefficients (a nonempty list means no code
        of this length attains the enumerator)."""
        return [w for w, a in enumerate(self.coefficients) if a < 0]


def extremal_weight_enumerator(n: int) -> WeightEnumerator:
    """The extremal enumerator of length n: the unique basis combination with
    A_0 = 1 and A_4 = ... = A_{4 floor(n/24)} = 0, run by its recurrence up
    to weight n/2 and mirrored by A_w = A_{n-w}.  Raises ArithmeticError
    unless the coefficients sum to 2^(n/2), checked on the computed half
    before the mirrored list is built."""
    prefix = _recurrence_prefix(n)
    if 2 * sum(prefix) - prefix[-1] != 2 ** (n // 2):  # the sum of the mirrored list
        raise ArithmeticError(f"extremal enumerator of length {n} does not sum to 2^{n // 2}")
    coeffs = [0] * (n + 1)
    coeffs[::4] = prefix + prefix[-2::-1]
    return WeightEnumerator(n, tuple(coeffs))


def min_weight_count(n: int) -> int:
    """Block count of the minimum-weight support design: the coefficient
    A_k, k = 4*floor(n/24) + 4, of the extremal enumerator of any valid
    length n, unmemoised: -c_{m+1}, m = floor(n/24), by one
    :func:`designgate.families._burmann_coefficient` evaluation."""
    _validate_length(n)
    b = -_burmann_coefficient(n // 8, n // 24 + 1)
    if b <= 0:
        raise ValueError(
            f"extremal enumerator of length {n} has nonpositive minimum-weight "
            f"count {b}; the family degenerates here"
        )
    return b


def next_weight_count(n: int) -> int:
    """A_{k+4} of the extremal enumerator of any valid length n, k = 4*floor(n/24)
    + 4, unmemoised, by :func:`designgate.families._extremal_counts`."""
    _validate_length(n)
    return _extremal_counts(n // 8, n // 24)[1]
