"""Test oracle for :mod:`designgate.gleason`: the Gleason basis as explicit
homogeneous polynomials in x and y, and the extremal combination solved
against them over the rationals.  The library works on coefficient series
instead; the tests check that both routes agree.
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

