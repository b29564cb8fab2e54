"""Code families and hypothetical design parameters.

Three families of extremal binary doubly even self-dual codes are modeled,
indexed by r in {0, 1, 2}:

    r = 0:  [24m,      12m,     4m+4]   Assmus-Mattson strength 5, m <= 153
    r = 1:  [24m + 8,  12m + 4, 4m+4]   strength 3,               m <= 158
    r = 2:  [24m + 16, 12m + 8, 4m+4]   strength 1,               m <= 163

The support design of the minimum weight has the code length as point count,
4m + 4 as block size, and as many blocks as minimum-weight codewords.  Its
level-i block counts lambda_i = b * C(k, i) / C(v, i) are exact rationals;
a hypothesis "this design is a t-design" forces lambda_i to be a nonnegative
integer for every i <= t, which is what :func:`admissible_scan` checks.
"""

from __future__ import annotations

from math import factorial

from ._record import Record
from .combinat import binom, exact_quotient

AM_STRENGTHS = (5, 3, 1)
M_MAXES = (153, 158, 163)
FAMILY_LABELS = ("24m", "24m+8", "24m+16")
# The drivers of :mod:`designgate.theorems`; spelled here so that the CLI can
# offer them as choices without importing the drivers.
THEOREM_IDS = ("lemma1", "thm1", "thm2", "thm3", "thm4", "thm5.1", "thm5.2")

# Offset lengths above this are refused by the gates; nothing of interest
# lives beyond strength 12 and symmetric-polynomial growth is steep.
T_CAP = 12


class NonIntegralLambdaError(ValueError):
    """A design hypothesis already fails at the lambda level."""

    def __init__(self, family: "CodeFamily", levels: list[tuple[int, Fraction]]):
        self.family = family
        self.levels = levels
        detail = ", ".join(f"lambda_{i} = {v}" for i, v in levels)
        super().__init__(f"non-integral block counts for {family}: {detail}")


class CodeFamily(Record):
    """One member of the three extremal-code families: family index r and
    parameter m in [1, m_max] for r = 0 and in [0, m_max] for r >= 1 (the
    length 8 and 16 base cases); scans run over 1 <= m <= m_max."""

    __slots__ = ("m", "r")

    def __init__(self, m: int, r: int):
        super().__init__(m, r)
        if self.r not in (0, 1, 2):
            raise ValueError(f"family index must be 0, 1 or 2, got {self.r}")
        lo = 1 if self.r == 0 else 0
        if not lo <= self.m <= self.m_max:
            raise ValueError(f"m = {self.m} outside [{lo}, {self.m_max}] for family {self.label}")

    @property
    def n(self) -> int:
        return 24 * self.m + 8 * self.r

    @property
    def k(self) -> int:
        return 4 * self.m + 4

    @property
    def am_strength(self) -> int:
        return AM_STRENGTHS[self.r]

    @property
    def m_max(self) -> int:
        return M_MAXES[self.r]

    @property
    def label(self) -> str:
        return FAMILY_LABELS[self.r]

    def __str__(self) -> str:
        return f"[{self.n}, {self.n // 2}, {self.k}] (family {self.label}, m={self.m})"


class DesignParams(Record):
    """Parameters of a hypothesized t-(v, k, lambda_t) design."""

    __slots__ = ("v", "k", "t", "lambda_t")

    def __init__(self, v: int, k: int, t: int, lambda_t: int | Fraction):
        super().__init__(v, k, t, lambda_t)
        if not 0 <= self.t <= self.k <= self.v:
            raise ValueError(f"need 0 <= t <= k <= v, got t={self.t} k={self.k} v={self.v}")
        if self.lambda_t < 0:
            raise ValueError("lambda_t must be nonnegative")


def block_count(f: CodeFamily) -> int:
    """Number of blocks b of the minimum-weight support design, which is the
    minimum-weight coefficient of the extremal enumerator, in closed form
    (Mallows-Sloane 1973; Rains-Sloane, "Self-dual codes", 1998):

        r = 0:  b = C(5m-2, m-1) * C(n, 5) / C(k, 5)    (lambda_5 = C(5m-2, m-1))
        r = 1:  b = n(n-1)(n-2)(n-4) * (5m)! / (4 * m! * (4m+4)!)
        r = 2:  b = 3n(n-2) * (5m+2)! / (2 * m! * (4m+4)!)

    The division is checked to be exact and b to be positive.
    """
    n, m = f.n, f.m
    if f.r == 0:
        num, den = binom(5 * m - 2, m - 1) * binom(n, 5), binom(f.k, 5)
    elif f.r == 1:
        num = n * (n - 1) * (n - 2) * (n - 4) * factorial(5 * m)
        den = 4 * factorial(m) * factorial(4 * m + 4)
    else:
        num = 3 * n * (n - 2) * factorial(5 * m + 2)
        den = 2 * factorial(m) * factorial(4 * m + 4)
    b, rem = divmod(num, den)
    if rem or b <= 0:
        raise ValueError(f"degenerate block count for {f}")
    return b


def lambda_levels(f: CodeFamily, levels) -> list[int | Fraction]:
    """[lambda_i for i in levels] of the minimum-weight support design, with
    lambda_i = b * C(k, i) / C(v, i) and one block count b for all of them:
    an int where the division is exact, else a Fraction (the normalising
    gcd is paid only there).

    Every level is checked to lie in [0, k] before any arithmetic; the
    first one outside raises ValueError.
    """
    levels = list(levels)
    k, n = f.k, f.n
    for i in levels:
        if not 0 <= i <= k:
            raise ValueError(f"level {i} outside [0, {k}]")
    b = block_count(f)
    return [exact_quotient(b * binom(k, i), binom(n, i)) for i in levels]


def lambda_at(f: CodeFamily, i: int) -> int | Fraction:
    """lambda_i = b * C(k, i) / C(v, i) of the minimum-weight support design."""
    return lambda_levels(f, (i,))[0]


def lambda_vector(d: DesignParams) -> list[Fraction]:
    """[lambda_0, ..., lambda_t] of a t-(v, k, lambda_t) design, via
    lambda_i = lambda_t * C(v-i, t-i) / C(k-i, t-i)."""
    from fractions import Fraction
    lam_t = Fraction(d.lambda_t)
    return [lam_t * binom(d.v - i, d.t - i) / binom(d.k - i, d.t - i) for i in range(d.t + 1)]


def design_params(f: CodeFamily, t: int) -> DesignParams:
    """The t-design hypothesis on the minimum-weight support design of f,
    for s <= t <= k with s the base strength."""
    s = f.am_strength
    if not s <= t <= f.k:
        raise ValueError(f"need {s} <= t <= {f.k}, got t={t}")
    return DesignParams(v=f.n, k=f.k, t=t, lambda_t=lambda_at(f, t))


def apply_strengthening(f: CodeFamily, t: int) -> int:
    """Effective strength of a t-design hypothesis on f's support design.

    The families' base strengths are odd.  A design one level above the base
    strength (even t = s + 1) is automatically a (t + 1)-design, so the
    hypothesis strengthens to t + 1 exactly there; other strengths are
    returned unchanged.
    """
    if t < f.am_strength:
        raise ValueError(f"t = {t} below base strength {f.am_strength}")
    return t + 1 if t == f.am_strength + 1 else t


def nonintegral_levels(values) -> list[tuple[int, Fraction]]:
    """The (level, lambda) pairs among ``values`` whose lambda is not a
    nonnegative integer (empty list means all pass)."""
    return [(i, v) for i, v in values if v.denominator != 1 or v < 0]


def check_lambda_levels(f: CodeFamily, levels) -> list[tuple[int, Fraction]]:
    """Return the (level, value) pairs among ``levels`` whose lambda is not a
    nonnegative integer (empty list means all pass)."""
    levels = list(levels)
    return nonintegral_levels(zip(levels, lambda_levels(f, levels)))


def scan_range(r: int, m_lo: int | None = None, m_hi: int | None = None) -> range:
    """The m range [m_lo, m_hi] of a scan over family r, defaulting to the
    family's full range [1, m_max]; ValueError if it is empty or outside."""
    m_max = M_MAXES[r]
    if m_lo is None:
        m_lo = 1
    if m_hi is None:
        m_hi = m_max
    if not 1 <= m_lo <= m_hi <= m_max:
        raise ValueError(f"need 1 <= m_lo <= m_hi <= {m_max}, got [{m_lo}, {m_hi}]")
    return range(m_lo, m_hi + 1)


def scan_members(r: int, t: int, m_lo: int | None = None, m_hi: int | None = None):
    """Yield (m, [(level, lambda), ...]) for each m of ``scan_range``, with
    the levels a strength-t hypothesis adds to the base strength, up to the
    effective (strengthened) strength; the list is None for a member whose
    block size k is below that strength."""
    for m in scan_range(r, m_lo, m_hi):
        f = CodeFamily(m, r)
        t_eff = apply_strengthening(f, t)
        levels = range(f.am_strength + 1, t_eff + 1)
        yield m, None if t_eff > f.k else list(zip(levels, lambda_levels(f, levels)))


def admissible_scan(r: int, t: int, m_lo: int | None = None,
                    m_hi: int | None = None) -> list[int]:
    """All m in [m_lo, m_hi] for which every lambda level required by a
    strength-t hypothesis is a nonnegative integer, ascending.  A member
    whose block size k is below the effective strength is not admissible.

    Defaults to the family's full range [1, m_max].
    """
    return [m for m, values in scan_members(r, t, m_lo, m_hi)
            if values is not None and not nonintegral_levels(values)]
