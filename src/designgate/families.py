"""Code families and hypothetical design parameters.

Three families of extremal binary doubly even self-dual codes are modeled,
indexed by r in {0, 1, 2}:

    r = 0:  [24m,      12m,     4m+4]   Assmus-Mattson strength 5, m <= 153
    r = 1:  [24m + 8,  12m + 4, 4m+4]   strength 3,               m <= 158
    r = 2:  [24m + 16, 12m + 8, 4m+4]   strength 1,               m <= 163

The support design of the minimum weight has the code length as point count,
4m + 4 as block size, and as many blocks b as minimum-weight codewords.  Its
level-i block counts lambda_i = b * C(k, i) / C(v, i) are exact rationals;
a hypothesis "this design is a t-design" forces lambda_i to be a nonnegative
integer for every i <= t, which is what :func:`admissible_scan` checks.
Every layer reads b, the levels and the gate polynomials of a member from
one record, :func:`member`, built once per process; the ladder asks
:func:`designgate.gleason.next_weight_count` for A_{k+4} where it gates at
weight k + 4.

It also holds what the other modules share without loading more:
:class:`Record`, the base of the frozen value types, and the CLI's choices
``THEOREM_IDS`` and ``FORMATS``.
"""

from functools import lru_cache
from operator import mul

from .combinat import annihilator_divisor, binom, exact_div, exact_quotient, offset_coefficients

AM_STRENGTHS = (5, 3, 1)
M_MAXES = (153, 158, 163)
FAMILY_LABELS = ("24m", "24m+8", "24m+16")
# The drivers of :mod:`designgate.theorems` and the renderings of :mod:`designgate.report`,
# spelled here so that the CLI can offer them as choices without importing either.
THEOREM_IDS = ("lemma1", "thm1", "thm2", "thm3", "thm4", "thm5.1", "thm5.2")
FORMATS = ("table", "csv", "json")


class Record:
    """Base of the package's frozen value types, built from ``__slots__``
    alone: the record decorator of the standard library imports
    :mod:`inspect`, about half a cold start.  A subclass names its fields,
    in constructor order, in ``__slots__`` and passes their values to
    ``Record.__init__``; equality, hashing and repr go by the field tuple,
    and assigning or deleting a field afterwards raises AttributeError.
    ``_setters`` holds each slot descriptor's ``__set__``, in field order."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(f"{type(self).__name__} takes {len(setters)} fields, got {len(values)}")
        for set_field, value in zip(setters, values):
            set_field(self, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class NonIntegralLambdaError(ValueError):
    """A design hypothesis already fails at the lambda level."""

    def __init__(self, family: "CodeFamily", levels: "list[tuple[int, Fraction]]"):
        self.family = family
        self.levels = levels
        detail = ", ".join(f"lambda_{i} = {v}" for i, v in levels)
        super().__init__(f"non-integral block counts for {family}: {detail}")


def require_ints(**values) -> None:
    """TypeError naming the first of ``values`` that is not an int."""
    for name, value in values.items():
        if not isinstance(value, int):
            raise TypeError(f"{name} = {value!r}: an exact int is required")


class CodeFamily(Record):
    """One member of the three extremal-code families: family index r and
    parameter m in [1, m_max] for r = 0 and in [0, m_max] for r >= 1 (the
    length 8 and 16 base cases); scans run over 1 <= m <= m_max."""

    __slots__ = ("m", "r")

    def __init__(self, m: int, r: int):
        super().__init__(m, r)
        require_ints(m=self.m, r=self.r)
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

    def __init__(self, v: int, k: int, t: int, lambda_t: "int | Fraction"):
        super().__init__(v, k, t, lambda_t)
        require_ints(v=self.v, k=self.k, t=self.t)
        if isinstance(lambda_t, float):
            raise TypeError(f"lambda_t = {lambda_t!r}: floating point is not allowed")
        if not 0 <= self.t <= self.k <= self.v:
            raise ValueError(f"need 0 <= t <= k <= v, got t={self.t} k={self.k} v={self.v}")
        if self.lambda_t < 0:
            raise ValueError("lambda_t must be nonnegative")


def _phi_power_prefix(e: int, terms: int) -> list[int]:
    """The first ``terms`` coefficients of PHI^e, PHI = 1 + 14z + z^2, for
    any integer e, from the recurrence PHI * P' = e * PHI' * P."""
    p = [1] + [0] * (terms - 1)
    for k in range(1, terms):
        prev = p[k - 2] if k > 1 else 0
        p[k] = exact_div(14 * (e - k + 1) * p[k - 1] + (2 * e - k + 2) * prev, k)
    return p


def _burmann_coefficient(a: int, j: int) -> int:
    """c_j = [g^j] PHI^(-a) with g = PSI / PHI^3 = z + O(z^2), PSI =
    z(1 - z)^4, by Lagrange-Buermann inversion with e = 3j - a - 1 >= 0:

        c_j = (-a / j) [z^(j-1)] PHI' * PHI^e * (1 - z)^(-4j)
            = (-a / j) sum_{d <= min(2e+1, j-1)} D_d C(5j-2-d, j-1-d),

    where D_d = 14 p_d + 2 p_(d-1), p = PHI^e, are the coefficients of the
    degree-(2e+1) polynomial PHI' * PHI^e.
    """
    e = 3 * j - a - 1
    if e < 0:
        raise ValueError(f"closed Buermann sum needs 3j > a, got a={a}, j={j}")
    p = _phi_power_prefix(e, 2 * e + 1) + [0]  # p[2e+1] = p[-1] = 0
    top, bottom = 5 * j - 2, j - 1
    c = binom(top, bottom)  # C(top - d, bottom - d) at d = 0
    total = 0
    for d in range(min(2 * e + 1, bottom) + 1):
        total += (14 * p[d] + 2 * p[d - 1]) * c
        c = exact_div(c * (bottom - d), top - d)
    return exact_div(-a * total, j)


class Member(Record):
    """One family member as every layer reads it: its CodeFamily, b = A_k,
    the leading run lambda_0..lambda_j of levels that are counts (it ends by
    j = 8 < k at every member), and, for s <= t <= j, s the base strength
    (None for t < s), the default-offset gate polynomial F(u) = sum_h d_h
    (u)_h, d_h = c_h lambda_h, of strength t as its Horner steps:

        gates[t] = (d_t, ((d_{t-1}, t-1), ..., (d_0, 0)), 2^t t!),

    so that F = d_t, then F = d + (u - h) * F for each step (d, h).  A_{k+4}
    is not here: only the ladder's u = k + 4 rungs read it, from
    :func:`designgate.gleason.next_weight_count`."""

    __slots__ = ("family", "b", "levels", "gates")


@lru_cache(maxsize=None, typed=True)
def member(r: int, m: int) -> Member:
    """The :class:`Member` of family r at m, built once per process and keyed
    by argument type too; the levels come from divmod, so no Fraction is built."""
    f = CodeFamily(m, r)
    b = -_burmann_coefficient(f.n // 8, m + 1)
    if b <= 0:
        raise ValueError(f"degenerate block count for {f}")
    levels, gates = [], [None] * f.am_strength
    for i in range(f.k + 1):
        lam, rem = divmod(b * binom(f.k, i), binom(f.n, i))
        if rem:
            break
        levels.append(lam)
    for t in range(f.am_strength, len(levels)):
        # d_h = c_h lambda_h for h = t, t-1, ..., 0: the Horner order
        d = map(mul, offset_coefficients(range(0, 2 * t, 2))[::-1], levels[t::-1])
        gates.append((next(d), tuple(zip(d, range(t - 1, -1, -1))), annihilator_divisor(t)))
    return Member(f, b, tuple(levels), tuple(gates))


def lambda_levels(f: CodeFamily, levels) -> "list[int | Fraction]":
    """[lambda_i for i in levels] of the minimum-weight support design, with
    lambda_i = b * C(k, i) / C(v, i) and b read off the member record: an
    int where the division is exact and a Fraction where it is not (the
    normalising gcd is paid only there).

    Every level is checked to be an int in [0, k] before any arithmetic;
    the first one that is not raises TypeError or ValueError.
    """
    levels = list(levels)
    k, n = f.k, f.n
    for i in levels:
        require_ints(level=i)
        if not 0 <= i <= k:
            raise ValueError(f"level {i} outside [0, {k}]")
    b = member(f.r, f.m).b
    return [exact_quotient(b * binom(k, i), binom(n, i)) for i in levels]


def lambda_at(f: CodeFamily, i: int) -> "int | Fraction":
    """lambda_i = b * C(k, i) / C(v, i) of the minimum-weight support design."""
    return lambda_levels(f, (i,))[0]


def lambda_vector(d: DesignParams) -> "list[Fraction]":
    """[lambda_0, ..., lambda_t] of a t-(v, k, lambda_t) design, via
    lambda_i = lambda_t * C(v-i, t-i) / C(k-i, t-i)."""
    from fractions import Fraction
    lam_t = Fraction(d.lambda_t)
    return [lam_t * binom(d.v - i, d.t - i) / binom(d.k - i, d.t - i) for i in range(d.t + 1)]


def design_params(f: CodeFamily, t: int) -> DesignParams:
    """The t-design hypothesis on the minimum-weight support design of f,
    for s <= t <= k with s the base strength."""
    require_ints(t=t)
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
    require_ints(t=t)
    if t < f.am_strength:
        raise ValueError(f"t = {t} below base strength {f.am_strength}")
    return t + 1 if t == f.am_strength + 1 else t


def nonintegral_levels(values) -> "list[tuple[int, Fraction]]":
    """The (level, lambda) pairs among ``values`` whose lambda is not a
    nonnegative integer (empty list means all pass)."""
    return [(i, v) for i, v in values if v.denominator != 1 or v < 0]


def check_lambda_levels(f: CodeFamily, levels) -> "list[tuple[int, Fraction]]":
    """Return the (level, value) pairs among ``levels`` whose lambda is not a
    nonnegative integer (empty list means all pass)."""
    levels = list(levels)
    return nonintegral_levels(zip(levels, lambda_levels(f, levels)))


def scan_range(r: int, m_lo: int | None = None, m_hi: int | None = None) -> range:
    """The m range [m_lo, m_hi] of a scan over family r, defaulting to the
    family's full range [1, m_max]; ValueError if r is not a family index or
    the range is empty or outside, and TypeError if a bound is not an int."""
    m_max = CodeFamily(1, r).m_max
    if m_lo is None:
        m_lo = 1
    if m_hi is None:
        m_hi = m_max
    require_ints(m_lo=m_lo, m_hi=m_hi)
    if not 1 <= m_lo <= m_hi <= m_max:
        raise ValueError(f"need 1 <= m_lo <= m_hi <= {m_max}, got [{m_lo}, {m_hi}]")
    return range(m_lo, m_hi + 1)


def scan_members(r: int, t: int, m_lo: int | None = None, m_hi: int | None = None):
    """Yield (m, [(level, lambda), ...]) for each m of ``scan_range``, with
    the levels a strength-t hypothesis adds to the base strength, up to the
    effective (strengthened) strength; the list is None for a member whose
    block size k is below that strength; TypeError if t is not an int."""
    require_ints(t=t)
    for m in scan_range(r, m_lo, m_hi):
        f = member(r, m).family
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
