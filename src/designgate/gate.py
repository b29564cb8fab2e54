"""Block-intersection moments and integrality gates.

For a block B of a design, let n_i be the number of blocks meeting B in
exactly i points.  The falling-factorial moments

    A_s = sum_i (i)_s n_i = (u)_s lambda_s

are forced by the design's lambda values (u is the reference block's size:
u = k when B is itself a block, or the weight of a fixed reference codeword
in the weight-u variant).  Given even offsets x_1 < ... < x_l with l at most
the design strength, the weighted sum

    F = sum_i (i - x_1)(i - x_2)...(i - x_l) n_i

is computable from the moments alone, by expanding the product into power
sums and converting powers to falling factorials with Stirling numbers:

    F = sum_theta (-1)^theta sigma_{theta,l} sum_h S(l - theta, h) A_h.

With the default offsets 0, 2, ..., 2(l-1), every even level below 2l is
annihilated, so for a self-orthogonal design (all odd n_i vanish)

    F / (2^l l!) = n_{2l} + C(l+1, l) n_{2l+2} + C(l+2, l) n_{2l+4} + ...

The right side is a nonnegative integer for any real design, so a
non-integral quotient certifies that no design with these parameters
exists.  That quotient test is :func:`integrality_gate`.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._record import Record
from .combinat import binom, elem_sym, exact_quotient, falling, stirling2
from .families import (
    T_CAP,
    CodeFamily,
    DesignParams,
    NonIntegralLambdaError,
    lambda_levels,
    lambda_vector,
    nonintegral_levels,
)

PASS = "PASS"
FAIL_NONINTEGER = "FAIL_NONINTEGER"


class NonIntegralMomentError(ValueError):
    """A moment (u)_s * lambda_s came out non-integral."""

    def __init__(self, levels: list[tuple[int, Fraction]]):
        self.levels = levels
        detail = ", ".join(f"s={s}: {v}" for s, v in levels)
        super().__init__(f"non-integral moments: {detail}")


class OffsetSet(Record):
    """Strictly increasing distinct nonnegative even offsets x_1 < ... < x_l."""

    __slots__ = ("xs",)

    def __init__(self, xs: tuple[int, ...]):
        super().__init__(xs)
        for x in self.xs:
            if x < 0 or x % 2:
                raise ValueError(f"offsets must be nonnegative even integers, got {x}")
        if list(self.xs) != sorted(set(self.xs)):
            raise ValueError("offsets must be strictly increasing")

    def __len__(self) -> int:
        return len(self.xs)

    @staticmethod
    def default(l: int) -> "OffsetSet":
        """The annihilating offsets 0, 2, ..., 2(l-1)."""
        if l < 0:
            raise ValueError("offset count must be nonnegative")
        return OffsetSet(tuple(2 * j for j in range(l)))


class MomentVector(Record):
    """Exact moments A_0..A_l of an intersection distribution against a
    reference set of size u."""

    __slots__ = ("u", "entries")

    def __init__(self, u: int, entries: tuple[int, ...]):
        super().__init__(u, entries)

    def __len__(self) -> int:
        return len(self.entries)


def moment_vector(u: int, lambdas: list[int | Fraction]) -> MomentVector:
    """Moments A_s = (u)_s * lambda_s for 0 <= s < len(lambdas), from
    integer or Fraction lambdas.

    Raises NonIntegralMomentError naming every offending s if any product is
    not a nonnegative integer (the design hypothesis is then already broken).
    """
    vals = []
    u_s = 1  # (u)_s
    for s, lam in enumerate(lambdas):
        vals.append(u_s * lam)
        u_s *= u - s
    bad = nonintegral_levels(enumerate(vals))
    if bad:
        raise NonIntegralMomentError(bad)
    return MomentVector(u, tuple(int(v) for v in vals))


@lru_cache(maxsize=None)
def _coefficients_cached(xs: tuple[int, ...]) -> tuple[int, ...]:
    l = len(xs)
    sigma = elem_sym(list(xs))
    out = [0] * (l + 1)
    for theta in range(l + 1):
        sign = -sigma[theta] if theta % 2 else sigma[theta]
        for h in range(l - theta + 1):
            out[h] += sign * stirling2(l - theta, h)
    return tuple(out)


def offset_moment_coefficients(offsets: OffsetSet) -> list[int]:
    """Coefficients c_0..c_l with F = sum_h c_h A_h for the given offsets."""
    return list(_coefficients_cached(offsets.xs))


def offset_product_sum(offsets: OffsetSet, moments: MomentVector) -> int:
    """F = sum_i (i - x_1)...(i - x_l) n_i, evaluated from the moments."""
    cs = _coefficients_cached(offsets.xs)
    if len(moments) < len(cs):
        raise ValueError(f"need at least {len(cs)} moments, got {len(moments)}")
    return sum(c * a for c, a in zip(cs, moments.entries))


def annihilator_divisor(l: int) -> int:
    """prod_j (2l - x_j) over the default offsets, which is 2^l * l!."""
    if l < 1:
        raise ValueError("need l >= 1")
    divisor = 1
    for x in range(0, 2 * l, 2):
        divisor *= 2 * l - x
    if divisor != 2**l * math.factorial(l):
        raise ArithmeticError(f"annihilator divisor {divisor} != 2^{l} * {l}!")
    return divisor


def residual_coefficient(i: int, l: int) -> int:
    """prod_j (i - x_j) / annihilator_divisor(l) for the default offsets and
    even i >= 2l: the multiplier of n_i in the isolated-level equation.
    Equals C(i/2, l); the division is checked to be exact."""
    if i % 2 or i < 2 * l:
        raise ValueError(f"need even i >= {2 * l}, got {i}")
    prod = 1
    for x in range(0, 2 * l, 2):
        prod *= i - x
    q, r = divmod(prod, annihilator_divisor(l))
    if r:
        raise ArithmeticError(f"inexact residual division for i={i}, l={l}")
    if q != binom(i // 2, l):
        raise ArithmeticError(f"residual coefficient {q} != C({i // 2}, {l})")
    return q


class GateResult(Record):
    """Outcome of one integrality test; the quotient is a Fraction only if
    it is non-integral, and the verdict follows from it."""

    __slots__ = ("family", "m", "t", "u", "F", "quotient")

    def __init__(self, family: int, m: int, t: int, u: int, F: int, quotient: int | Fraction):
        super().__init__(family, m, t, u, F, quotient)

    @property
    def integral(self) -> bool:
        return self.quotient.denominator == 1

    @property
    def verdict(self) -> str:
        return PASS if self.integral else FAIL_NONINTEGER


def integrality_gate(f: CodeFamily, t: int, u: int | None = None, store=None) -> GateResult:
    """Run the default-offset integrality test of strength t at reference
    weight u (u = k if omitted) on family member f.

    A FAIL_NONINTEGER verdict certifies that the minimum-weight support
    design of f cannot be a t-design: the count at the first unconstrained
    even intersection level would be non-integral.  Non-integral lambda
    levels raise NonIntegralLambdaError before any gate arithmetic (the
    hypothesis already fails one layer down).
    """
    if u is None:
        u = f.k
    if t < f.am_strength:
        raise ValueError(f"t = {t} below base strength {f.am_strength}")
    if t > T_CAP:
        raise ValueError(f"t = {t} above the supported cap {T_CAP}")
    if u % 4 or not f.k <= u <= f.n - f.k:
        raise ValueError(
            f"u must be a weight multiple of 4 with {f.k} <= u <= {f.n - f.k}, got {u}"
        )
    if store is not None:
        cached = store.get(f.r, f.m, t, u)
        if cached is not None:
            return cached
    lambdas = lambda_levels(f, range(t + 1))
    bad = nonintegral_levels(enumerate(lambdas))
    if bad:
        raise NonIntegralLambdaError(f, bad)
    moments = moment_vector(u, lambdas)
    F = offset_product_sum(OffsetSet.default(t), moments)
    result = GateResult(f.r, f.m, t, u, F, exact_quotient(F, annihilator_divisor(t)))
    if store is not None:
        store.put(result)
    return result


class IntersectionSolution(Record):
    """Exact solution of a square moment system: values by level, plus the
    levels whose counts came out negative or non-integral."""

    __slots__ = ("entries", "negative_levels", "nonintegral_levels")

    def __init__(self, entries: tuple[tuple[int, Fraction], ...],
                 negative_levels: tuple[int, ...], nonintegral_levels: tuple[int, ...]):
        super().__init__(entries, negative_levels, nonintegral_levels)

    def value(self, level: int) -> Fraction:
        for lv, v in self.entries:
            if lv == level:
                return v
        raise KeyError(level)


def solve_intersection_numbers(
    d: DesignParams,
    u: int,
    free_levels: list[int],
    fixed: dict[int, int] | None = None,
) -> IntersectionSolution:
    """Solve for the intersection counts n_i at the given free levels from
    the moment equations sum_i (i)_s n_i = (u)_s lambda_s, s = 0..len-1.

    ``fixed`` pins known counts at other levels (for the self-intersection
    case the reference block contributes n_k = 1).  The system must be
    square; it is solved exactly by Gaussian elimination over Fractions.
    """
    from fractions import Fraction
    if len(set(free_levels)) != len(free_levels):
        raise ValueError("free levels must be distinct")
    if fixed:
        overlap = set(free_levels) & set(fixed)
        if overlap:
            raise ValueError(f"levels both free and fixed: {sorted(overlap)}")
    lambdas = lambda_vector(d)
    neq = len(free_levels)
    if neq > len(lambdas):
        raise ValueError(
            f"system is under-determined: {neq} unknowns but only "
            f"{len(lambdas)} moment equations available"
        )
    levels = sorted(free_levels)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for s in range(neq):
        rows.append([Fraction(falling(i, s)) for i in levels])
        target = falling(u, s) * lambdas[s]
        for i0, c0 in (fixed or {}).items():
            target -= falling(i0, s) * c0
        rhs.append(Fraction(target))
    sol = _solve_square(rows, rhs)
    entries = tuple(zip(levels, sol))
    return IntersectionSolution(
        entries=entries,
        negative_levels=tuple(lv for lv, v in entries if v < 0),
        nonintegral_levels=tuple(lv for lv, v in entries if v.denominator != 1),
    )


def _solve_square(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    n = len(rows)
    a = [row[:] + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ValueError("singular moment system")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]
