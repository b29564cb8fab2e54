"""Test oracles for :mod:`designgate.gleason`: the Gleason basis as explicit
homogeneous polynomials in x and y, and the extremal combination solved
against them over the rationals; and A_{k+4} by the O(n/24) Lagrange-Buermann
loop over the full (1 - z)^(-4j) prefix.  The library works on coefficient
series and a closed binomial sum instead; the tests check that both routes
agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from designgate.gleason import _validate_length


@dataclass(frozen=True)
class HomogeneousPoly:
    """Homogeneous polynomial in x, y of the given degree, stored sparsely
    as a map from y-exponent to coefficient (x-exponent is degree - y-exp)."""

    degree: int
    coeffs: dict[int, int]

    def __post_init__(self):
        for e, c in self.coeffs.items():
            if not 0 <= e <= self.degree:
                raise ValueError(f"y-exponent {e} outside [0, {self.degree}]")
            if isinstance(c, float):
                raise TypeError("floating point coefficient")

    def coefficient(self, y_exp: int) -> int:
        return self.coeffs.get(y_exp, 0)

    def __mul__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return HomogeneousPoly(self.degree + other.degree, {e: c for e, c in out.items() if c})

    def __pow__(self, k: int) -> "HomogeneousPoly":
        out = HomogeneousPoly(0, {0: 1})
        for _ in range(k):
            out = out * self
        return out


GLEASON_G1 = HomogeneousPoly(8, {0: 1, 4: 14, 8: 1})
GLEASON_G2 = HomogeneousPoly(24, {4: 1, 8: -4, 12: 6, 16: -4, 20: 1})


def gleason_basis(n: int) -> list[HomogeneousPoly]:
    """Basis g1^((n-24j)/8) * g2^j for 0 <= j <= floor(n/24), in order of j."""
    _validate_length(n)
    out = []
    g1p = HomogeneousPoly(0, {0: 1})
    g1_powers = [g1p]
    for _ in range(n // 8):
        g1_powers.append(g1_powers[-1] * GLEASON_G1)
    g2p = HomogeneousPoly(0, {0: 1})
    for j in range(n // 24 + 1):
        out.append(g1_powers[(n - 24 * j) // 8] * g2p)
        g2p = g2p * GLEASON_G2
    return out


def solve_basis_combination(n: int) -> list[Fraction]:
    """Coefficients c_j of the extremal combination in the Gleason basis,
    solved over the rationals against the explicit basis polynomials.

    Slower than the series route (it materializes the basis); used to
    cross-check the two implementations on moderate lengths.
    """
    basis = gleason_basis(n)
    targets = [1] + [0] * (n // 24)
    cs: list[Fraction] = []
    for i, t in enumerate(targets):
        acc = Fraction(t)
        for j, c in enumerate(cs):
            acc -= c * basis[j].coefficient(4 * i)
        lead = basis[i].coefficient(4 * i)
        cs.append(acc / lead)
    return cs


def _phi_power_by_products(e: int) -> list[int]:
    """PHI^e = (1 + 14z + z^2)^e for e >= 0, by repeated multiplication."""
    p = [1]
    for _ in range(e):
        p = [a + 14 * b + c for a, b, c in zip(p + [0, 0], [0] + p + [0], [0, 0] + p)]
    return p


def burmann_coefficient_by_loop(a: int, j: int) -> int:
    """c_j = (-a / j) [z^(j-1)] PHI' * PHI^(3j-a-1) * (1 - z)^(-4j), summed
    over every i <= j - 1 with [z^i] (1 - z)^(-4j) = C(4j + i - 1, i)."""
    p = _phi_power_by_products(3 * j - a - 1) + [0] * j
    total = 0
    q = 1  # C(4j + i - 1, i)
    for i in range(j):
        d = j - 1 - i
        total += (14 * p[d] + (2 * p[d - 1] if d else 0)) * q
        q = q * (4 * j + i) // (i + 1)  # exact: the next binomial
    c, rem = divmod(-a * total, j)
    if rem:
        raise ArithmeticError(f"c_{j} is not an integer at a = {a}")
    return c


def next_weight_count_by_loop(n: int) -> int:
    """A_{k+4} = -c_{m+2} - c_{m+1} (14a - 46(m+1)), a = n/8, m = floor(n/24)."""
    _validate_length(n)
    a, m = n // 8, n // 24
    return (-burmann_coefficient_by_loop(a, m + 2)
            - burmann_coefficient_by_loop(a, m + 1) * (14 * a - 46 * (m + 1)))
