"""Block-intersection moments and integrality gates.

For a block B of a design, let n_i be the number of blocks meeting B in
exactly i points.  The falling-factorial moments

    A_s = sum_i (i)_s n_i = (u)_s lambda_s

are forced by the design's lambda values (u is the reference block's size:
u = k when B is itself a block, or the weight of a fixed reference codeword
in the weight-u variant).  Given even offsets x_1 < ... < x_l with l at most
the design strength, the weighted sum

    F = sum_i (i - x_1)(i - x_2)...(i - x_l) n_i

is computable from the moments alone.  Write the product in the
falling-factorial basis, prod_j (i - x_j) = sum_h c_h (i)_h, one factor at a
time by (i)_h (i - x) = (i)_{h+1} + (h - x)(i)_h; then

    F = sum_h c_h A_h.

With the default offsets 0, 2, ..., 2(l-1), every even level below 2l is
annihilated, so for a self-orthogonal design (all odd n_i vanish)

    F / (2^l l!) = n_{2l} + C(l+1, l) n_{2l+2} + C(l+2, l) n_{2l+4} + ...

The right side is a nonnegative integer for any real design, so a
non-integral quotient certifies that no design with these parameters
exists.  That quotient test is :func:`integrality_gate`.  It evaluates
F(u) = sum_h d_h (u)_h, d_h = c_h lambda_h, by Horner's rule, (u)_h = (u)_{h-1}
(u - h + 1): :func:`designgate.families.member` holds each gate as d_t and
the steps (d_{t-1}, t-1), ..., (d_0, 0), and a cell starts from F = d_t and
runs F = d + (u - h) * F over them.  The moment route is its test oracle.
"""

import math

from .combinat import annihilator_divisor, exact_div, exact_quotient, falling, offset_coefficients
from .families import (
    AM_STRENGTHS,
    CodeFamily,
    DesignParams,
    NonIntegralLambdaError,
    Record,
    check_lambda_levels,
    lambda_vector,
    member,
    nonintegral_levels,
    require_ints,
)

PASS = "PASS"
FAIL_NONINTEGER = "FAIL_NONINTEGER"


class NonIntegralMomentError(ValueError):
    """A moment (u)_s * lambda_s came out non-integral."""

    def __init__(self, levels: "list[tuple[int, Fraction]]"):
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


def moment_vector(u: int, lambdas: "list[int | Fraction]") -> MomentVector:
    """Moments A_s = (u)_s * lambda_s for 0 <= s < len(lambdas), from
    integer or Fraction lambdas.

    Raises NonIntegralMomentError naming every offending s if any product is
    not a nonnegative integer (the design hypothesis is then already broken).
    """
    require_ints(u=u)
    vals = []
    u_s = 1  # (u)_s
    for s, lam in enumerate(lambdas):
        vals.append(u_s * lam)
        u_s *= u - s
    bad = nonintegral_levels(enumerate(vals))
    if bad:
        raise NonIntegralMomentError(bad)
    return MomentVector(u, tuple(int(v) for v in vals))


def offset_moment_coefficients(offsets: OffsetSet) -> list[int]:
    """Coefficients c_0..c_l with F = sum_h c_h A_h for the given offsets."""
    return offset_coefficients(offsets.xs)


def offset_product_sum(offsets: OffsetSet, moments: MomentVector) -> int:
    """F = sum_i (i - x_1)...(i - x_l) n_i, evaluated from the moments."""
    cs = offset_coefficients(offsets.xs)
    if len(moments.entries) < len(cs):
        raise ValueError(f"need at least {len(cs)} moments, got {len(moments.entries)}")
    return sum(c * a for c, a in zip(cs, moments.entries))


def residual_coefficient(i: int, l: int) -> int:
    """prod_j (i - x_j) / annihilator_divisor(l) for the default offsets and
    even i >= 2l: the multiplier of n_i in the isolated-level equation,
    C(i/2, l) (the tests pin that equality); the division is exact."""
    if i % 2 or i < 2 * l:
        raise ValueError(f"need even i >= {2 * l}, got {i}")
    return exact_div(math.prod(i - x for x in range(0, 2 * l, 2)), annihilator_divisor(l))


class GateResult(Record):
    """Outcome of one integrality test; the quotient is a Fraction only if
    it is non-integral, and the verdict follows from it."""

    __slots__ = ("family", "m", "t", "u", "F", "quotient")

    def __init__(self, family: int, m: int, t: int, u: int, F: int, quotient: "int | Fraction"):
        # One frame per gate cell: the slot setters, without Record.__init__.
        set_family, set_m, set_t, set_u, set_F, set_quotient = self._setters
        set_family(self, family)
        set_m(self, m)
        set_t(self, t)
        set_u(self, u)
        set_F(self, F)
        set_quotient(self, quotient)

    @property
    def integral(self) -> bool:
        return self.quotient.denominator == 1

    @property
    def verdict(self) -> str:
        return PASS if self.integral else FAIL_NONINTEGER


def integrality_gate(f: CodeFamily, t: int, u: int | None = None) -> GateResult:
    """Run the default-offset integrality test of strength t at reference
    weight u (u = k if omitted) on family member f: F(u) by Horner's rule
    on the gate steps of the member record (:func:`designgate.families.member`),
    F = d_t, then F = d + (u - h) * F for (d, h) = (d_{t-1}, t-1), ..., (d_0, 0).

    A FAIL_NONINTEGER verdict certifies that the minimum-weight support
    design of f cannot be a t-design: the count at the first unconstrained
    even intersection level would be non-integral.  Non-integral lambda
    levels raise NonIntegralLambdaError before any gate arithmetic (the
    hypothesis already fails one layer down), naming every failing level.
    """
    r, m = f.r, f.m
    k, n = 4 * m + 4, 24 * m + 8 * r
    if u is None:
        u = k
    if not (isinstance(t, int) and isinstance(u, int)):  # a call costs a seventh of a cell
        require_ints(t=t, u=u)
    if t < AM_STRENGTHS[r]:
        raise ValueError(f"t = {t} below base strength {AM_STRENGTHS[r]}")
    if u % 4 or not k <= u <= n - k:
        raise ValueError(f"u must be a weight multiple of 4 with {k} <= u <= {n - k}, got {u}")
    gates = member(r, m).gates
    if t >= len(gates):  # t lies above the member's run of integral levels
        if t > k:
            raise ValueError(f"t = {t} above the block size {k}")
        raise NonIntegralLambdaError(f, check_lambda_levels(f, range(t + 1)))
    F, steps, divisor = gates[t]
    for d, h in steps:
        F = d + (u - h) * F
    q, rem = divmod(F, divisor)
    return GateResult(r, m, t, u, F, exact_quotient(F, divisor) if rem else q)


class IntersectionSolution(Record):
    """Exact solution of a square moment system: values by level, plus the
    levels whose counts came out negative or non-integral."""

    __slots__ = ("entries", "negative_levels", "nonintegral_levels")

    def __init__(self, entries: "tuple[tuple[int, Fraction], ...]",
                 negative_levels: tuple[int, ...], nonintegral_levels: tuple[int, ...]):
        super().__init__(entries, negative_levels, nonintegral_levels)


def solve_intersection_numbers(
    d: DesignParams,
    u: int,
    free_levels: list[int],
    fixed: dict[int, int] | None = None,
) -> IntersectionSolution:
    """Solve for the intersection counts n_i at the L given free levels from
    the moment equations sum_i (i)_s n_i = (u)_s lambda_s, s = 0..L-1.

    ``fixed`` pins known counts at other levels (for the self-intersection
    case the reference block contributes n_k = 1); their share is taken out
    of the moments first, leaving A_s.  Each count then comes from the
    offset identity: the product over the other free levels j vanishes at
    each of them, so with c = offset_coefficients(others),
    n_i = sum_h c_h A_h / prod_j (i - j), an exact Fraction.
    """
    require_ints(u=u)
    if len(set(free_levels)) != len(free_levels):
        raise ValueError("free levels must be distinct")
    if fixed:
        overlap = set(free_levels) & set(fixed)
        if overlap:
            raise ValueError(f"levels both free and fixed: {sorted(overlap)}")
    lambdas = lambda_vector(d)  # Fractions, so each count below is one too
    levels = sorted(free_levels)
    if len(levels) > len(lambdas):
        raise ValueError(
            f"system is under-determined: {len(levels)} unknowns but only "
            f"{len(lambdas)} moment equations available"
        )
    moments = [falling(u, s) * lambdas[s]
               - sum(falling(i, s) * c for i, c in (fixed or {}).items())
               for s in range(len(levels))]
    entries = []
    for i in levels:
        others = [j for j in levels if j != i]
        share = sum(c * a for c, a in zip(offset_coefficients(others), moments))
        entries.append((i, share / math.prod(i - j for j in others)))
    return IntersectionSolution(
        entries=tuple(entries),
        negative_levels=tuple(lv for lv, v in entries if v < 0),
        nonintegral_levels=tuple(lv for lv, v in entries if v.denominator != 1),
    )
