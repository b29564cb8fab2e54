"""Independent recomputation of everything designgate prints.

Nothing here imports designgate.  Every quantity takes a different route
from the library's:

* block counts come from the Mallows-Sloane closed forms, not from a
  Gleason-basis series solve;
* the coefficients of the extremal enumerator come from Lagrange-Buermann
  inversion of phi^(-n/8) in the variable g = psi / phi^3, not from forward
  elimination, and a full enumerator is accepted only after its defining
  properties are verified (weights divisible by 4, A_0 = 1, the low
  coefficients zero, exact MacWilliams self-duality);
* gate quotients expand prod_j (x - 2j) in falling factorials by Newton
  forward differences, not by Stirling numbers and elementary symmetric
  polynomials;
* the staged survivor sets of every theorem driver are rebuilt from those
  values.

Here z = y^4 / x^4, phi = 1 + 14 z + z^2 stands for the Gleason polynomial
x^8 + 14 x^4 y^4 + y^8 and psi = z (1 - z)^4 for x^4 y^4 (x^4 - y^4)^4.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

LABELS = ("24m", "24m+8", "24m+16")
BASE_STRENGTH = (5, 3, 1)
M_MAX = (153, 158, 163)
T_MAX = 12  # largest gate strength the CLI accepts

# Staged ladders of thm5.1 and thm5.2: (strength, new lambda levels,
# gated offset lengths).
LADDERS = {
    "thm5.1": (1, ((5, (4, 5), (5,)), (6, (6,), ()), (7, (7,), (6, 7)), (8, (8,), ()))),
    "thm5.2": (2, ((3, (2, 3), (3,)), (4, (4,), (4,)), (5, (5,), (5,)), (6, (6,), ()))),
}
FAMILY_24M_IDS = ("lemma1", "thm1", "thm2", "thm3", "thm4")
THEOREM_IDS = ("lemma1", "thm1", "thm2", "thm3", "thm4", "thm5.1", "thm5.2")


class Member:
    """Family member (r, m): length n = 24m + 8r, minimum weight k = 4m + 4."""

    def __init__(self, r: int, m: int):
        self.n = 24 * m + 8 * r
        self.k = 4 * m + 4


# ---------------------------------------------------------------- counts

@lru_cache(maxsize=None)
def block_count(r: int, m: int) -> int:
    """Minimum-weight codeword count (Mallows-Sloane closed forms)."""
    n = 24 * m + 8 * r
    if r == 0:
        num = comb(n, 5) * comb(5 * m - 2, m - 1)
        den = comb(4 * m + 4, 5)
    elif r == 1:
        num = n * (n - 1) * (n - 2) * (n - 4) * factorial(5 * m)
        den = 4 * factorial(m) * factorial(4 * m + 4)
    else:
        num = 3 * n * (n - 2) * factorial(5 * m + 2)
        den = 2 * factorial(m) * factorial(4 * m + 4)
    b, rem = divmod(num, den)
    if rem or b <= 0:
        raise ArithmeticError(f"closed form not a positive integer at r={r} m={m}")
    return b


@lru_cache(maxsize=None)
def level(r: int, m: int, i: int) -> Fraction:
    """lambda_i = b C(k, i) / C(n, i)."""
    mem = Member(r, m)
    return Fraction(block_count(r, m) * comb(mem.k, i), comb(mem.n, i))


def is_count(v: Fraction) -> bool:
    return v.denominator == 1 and v >= 0


def levels_pass(r: int, m: int, levels) -> bool:
    return all(is_count(level(r, m, i)) for i in levels)


def strengthened(r: int, t: int) -> int:
    """A design one level above the odd base strength is one level higher."""
    return t + 1 if t == BASE_STRENGTH[r] + 1 else t


# ------------------------------------------------ Buermann coefficients

def _phi_power_series(e: int, terms: int) -> list[int]:
    """First ``terms`` coefficients of phi^e for any integer e, from the
    differential equation phi * P' = e * phi' * P."""
    p = [1, 14 * e][:terms]
    for s in range(1, terms - 1):
        q, rem = divmod(14 * (e - s) * p[s] + (2 * e - s + 1) * p[s - 1], s + 1)
        if rem:
            raise ArithmeticError("phi power series not integral")
        p.append(q)
    return p


def buermann_coefficient(n: int, j: int) -> int:
    """c_j = [g^j] phi^(-n/8) with g = psi / phi^3, by Lagrange inversion:
    c_j = (-a/j) [z^(j-1)] phi' phi^(3j-a-1) (1-z)^(-4j), a = n/8."""
    a = n // 8
    if j == 0:
        return 1
    p = _phi_power_series(3 * j - a - 1, j)
    total = 0
    for s in range(j):
        dp = 14 * p[s] + (2 * p[s - 1] if s else 0)
        total += dp * comb(4 * j + (j - 1 - s) - 1, j - 1 - s)
    c = Fraction(-a * total, j)
    if c.denominator != 1:
        raise ArithmeticError(f"Buermann coefficient c_{j} not integral at n={n}")
    return int(c)


def next_weight_count(n: int) -> int:
    """A_(d+4) of the extremal enumerator of length n, d = 4 floor(n/24) + 4.

    W = phi^a sum_{j<=m} c_j g^j = 1 - phi^a sum_{j>m} c_j g^j, so
    A_d = -c_(m+1) and A_(d+4) = -c_(m+2) - c_(m+1) [z^1] phi^a (g/z)^(m+1).
    """
    a, m = n // 8, n // 24
    c1 = buermann_coefficient(n, m + 1)
    c2 = buermann_coefficient(n, m + 2)
    return -c2 - c1 * (14 * a - 46 * (m + 1))


def min_weight_count_by_series(n: int) -> int:
    """A_d = -c_(m+1): the series route, compared with the closed forms in
    the checker's tests."""
    return -buermann_coefficient(n, n // 24 + 1)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


_PHI = [1, 14, 1]
_PHI3 = _poly_mul(_poly_mul(_PHI, _PHI), _PHI)
_PSI = [0, 1, -4, 6, -4, 1]


def extremal_enumerator(n: int) -> list[int]:
    """[A_0, ..., A_n] of the extremal enumerator, verified by its defining
    properties before it is returned.

    W = phi^r sum_j c_j psi^j (phi^3)^(m-j) with r = n/8 - 3m, evaluated
    by Horner's rule in psi."""
    m, r = n // 24, n // 8 - 3 * (n // 24)
    cs = [buermann_coefficient(n, j) for j in range(m + 1)]
    powers = [[1]]
    for _ in range(m):
        powers.append(_poly_mul(powers[-1], _PHI3))
    acc = [cs[m]]
    for j in range(m - 1, -1, -1):
        acc = _poly_mul(acc, _PSI)
        acc += [0] * (len(powers[m - j]) - len(acc))
        for i, x in enumerate(powers[m - j]):
            acc[i] += cs[j] * x
    for _ in range(r):
        acc = _poly_mul(acc, _PHI)
    coeffs = [0] * (n + 1)
    for s, x in enumerate(acc):
        if x:
            coeffs[4 * s] = x
    failure = extremal_property_failure(n, coeffs)
    if failure:
        raise ArithmeticError(f"Buermann enumerator of length {n} fails: {failure}")
    return coeffs


def extremal_property_failure(n: int, coeffs: list[int]) -> str | None:
    """Why ``coeffs`` is not the extremal enumerator of length n, or None.

    Gleason's theorem: an enumerator with all weights divisible by 4 that is
    invariant under the MacWilliams transform is a combination of
    g1^(n/8 - 3j) g2^j, j <= n/24, and A_0 = 1 with A_4 = ... =
    A_(4 floor(n/24)) = 0 fixes the combination.  Self-duality is checked
    exactly: 2^(n/2) A_j = sum_i A_i K_j(i) with Krawtchouk polynomials K_j."""
    if len(coeffs) != n + 1:
        return f"{len(coeffs)} coefficients for length {n}"
    if any(a for w, a in enumerate(coeffs) if w % 4):
        return "a weight not divisible by 4 has a nonzero coefficient"
    if coeffs[0] != 1:
        return f"A_0 = {coeffs[0]}"
    low = [w for w in range(4, 4 * (n // 24) + 1, 4) if coeffs[w]]
    if low:
        return f"nonzero coefficients below the extremal weight at {low}"
    if coeffs != coeffs[::-1]:
        return "A_w != A_(n-w)"
    # With A symmetric and every weight even, the odd-j identities hold by
    # themselves; pairing w with n - w halves the sum for even j.
    half = n // 2
    sums = [0] * (half + 1)
    for w in range(0, half + 1, 4):
        a = coeffs[w] if w == half else 2 * coeffs[w]
        if not a:
            continue
        k_prev, k_cur = 1, n - 2 * w
        sums[0] += a
        if half >= 1:
            sums[1] += a * k_cur
        for j in range(1, half):
            k_next, rem = divmod((n - 2 * w) * k_cur - (n - j + 1) * k_prev, j + 1)
            if rem:
                raise ArithmeticError("Krawtchouk recurrence not exact")
            k_prev, k_cur = k_cur, k_next
            if not (j + 1) % 2:
                sums[j + 1] += a * k_cur
    scale = 2 ** half
    for j in range(0, half + 1, 2):
        if sums[j] != scale * coeffs[j]:
            return f"MacWilliams transform differs at weight {j}"
    return None


# ------------------------------------------------------------------ gates

@lru_cache(maxsize=None)
def newton_coefficients(l: int) -> tuple[int, ...]:
    """c_h with prod_{j<l} (x - 2j) = sum_h c_h (x)_h, from the forward
    differences c_h = Delta^h P(0) / h!."""
    def p(x: int) -> int:
        out = 1
        for j in range(l):
            out *= x - 2 * j
        return out
    values = [p(x) for x in range(l + 1)]
    out = []
    for h in range(l + 1):
        diff = sum((-1) ** (h - x) * comb(h, x) * values[x] for x in range(h + 1))
        c, rem = divmod(diff, factorial(h))
        if rem:
            raise ArithmeticError("forward difference not divisible by h!")
        out.append(c)
    return tuple(out)


def falling(x: int, s: int) -> int:
    out = 1
    for i in range(s):
        out *= x - i
    return out


def gate(r: int, m: int, t: int, u: int) -> tuple[int, Fraction]:
    """(F, F / (2^t t!)) for the default-offset gate of strength t at
    reference weight u; the moments are A_h = (u)_h lambda_h."""
    total = Fraction(0)
    for h, c in enumerate(newton_coefficients(t)):
        total += c * falling(u, h) * level(r, m, h)
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral F at r={r} m={m} t={t} u={u}")
    F = int(total)
    return F, Fraction(F, 2 ** t * factorial(t))


def exact(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def gate_record(r: int, m: int, t: int, u: int) -> dict:
    F, q = gate(r, m, t, u)
    return {"family": r, "m": m, "t": t, "u": u, "F": str(F), "quotient": exact(q),
            "verdict": "PASS" if q.denominator == 1 else "FAIL_NONINTEGER"}


# ------------------------------------------------------ theorem drivers

def _set(label: str, ms, stage=None) -> dict:
    row = {"row": "set", "label": label, "ms": sorted(ms)}
    if stage is not None:
        row["stage"] = stage
    return row


def _gate_row(r, m, t, u, stage=None) -> dict:
    row = {"row": "gate", **gate_record(r, m, t, u)}
    if stage is not None:
        row["stage"] = stage
    return row


def _has_next_weight(r: int, m: int) -> bool:
    return next_weight_count(Member(r, m).n) > 0


def _gates_until_failure(r: int, m: int, ls, stage: int) -> tuple[list[dict], bool]:
    """For each offset length in turn, the gate at u = k and then, when the
    enumerator has words there, at u = k + 4; stops at the first failure."""
    k = Member(r, m).k
    rows = []
    for l in ls:
        for u in (k, k + 4):
            if u == k + 4 and not _has_next_weight(r, m):
                continue
            rows.append(_gate_row(r, m, l, u, stage=stage))
            if rows[-1]["verdict"] != "PASS":
                return rows, False
    return rows, True


def _ladder(r: int, stages) -> tuple[list[dict], dict[int, list[int]]]:
    rows: list[dict] = []
    sets: dict[int, list[int]] = {}
    candidates = list(range(1, M_MAX[r] + 1))
    for t, new_levels, gate_ls in stages:
        survivors = []
        for m in candidates:
            if not levels_pass(r, m, new_levels):
                continue
            gates, alive = _gates_until_failure(r, m, gate_ls, t)
            rows += gates
            if alive:
                survivors.append(m)
        rows.append(_set(f"t={t} survivors", survivors, stage=t))
        sets[t] = survivors
        candidates = survivors
    return rows, sets


def _family_24m() -> dict:
    """Every intermediate set and gate of the family-24m chain."""
    M = [m for m in range(1, M_MAX[0] + 1) if levels_pass(0, m, (6, 7))]
    at_k = [_gate_row(0, m, 7, 4 * m + 4, stage=7) for m in M]
    elim_k = [g["m"] for g in at_k if g["verdict"] != "PASS"]
    remainder = [m for m in M if m not in elim_k]
    if not all(_has_next_weight(0, m) for m in remainder):
        raise ArithmeticError("vacuous u = k + 4 gate in family 24m")
    at_k4 = [_gate_row(0, m, 7, 4 * m + 8, stage=7) for m in remainder]
    elim_k4 = [g["m"] for g in at_k4 if g["verdict"] != "PASS"]
    survivors = [m for m in remainder if m not in elim_k4]
    cands8 = [m for m in M if levels_pass(0, m, (8,))]
    left = [m for m in cands8 if m in survivors]
    rows8, final = [], []
    for m in left:
        gates, alive = _gates_until_failure(0, m, (8,), 8)
        rows8 += gates
        if alive:
            final.append(m)
    return dict(M=M, at_k=at_k, elim_k=elim_k, at_k4=at_k4, elim_k4=elim_k4,
                survivors=survivors, cands8=cands8, left=left, rows8=rows8, final=final)


def theorem_reports(ref) -> dict[str, tuple[dict, int]]:
    """Expected ``--format json --no-timestamp`` report and exit status of
    every theorem driver.  ``ref`` is designgate's reference_sets module:
    the exit status is 4 exactly when the recomputed sets or quotients
    differ from it, and the number of MISMATCH lines is that of the
    differing entries."""
    out = {}
    c = _family_24m()

    def differs(got, want) -> int:
        return int(set(got) != set(want))

    def quotient_diffs(gates, table) -> int:
        return sum(1 for g in gates if g["m"] in table and g["quotient"] != exact(table[g["m"]]))

    for tid in FAMILY_24M_IDS:
        rows = [_set("strength-6 lambda-admissible", c["M"])]
        diffs = differs(c["M"], ref.LEMMA1_M)
        surviving = c["M"]
        if tid != "lemma1":
            rows += c["at_k"] + [_set("eliminated by u=k gate", c["elim_k"], 7)]
            diffs += differs(c["elim_k"], ref.THM2_ELIMINATED)
            diffs += quotient_diffs(c["at_k"], ref.TABLE1_QUOTIENTS)
            surviving = [m for m in c["M"] if m not in c["elim_k"]]
        if tid in ("thm1", "thm3", "thm4"):
            rows += c["at_k4"] + [_set("eliminated by u=k+4 gate", c["elim_k4"], 7)]
            diffs += differs(c["elim_k4"], ref.THM3_ELIMINATED)
            diffs += quotient_diffs(c["at_k4"], ref.TABLE2_QUOTIENTS)
            surviving = c["survivors"]
        if tid == "thm1":
            rows.append(_set("strength-7 survivors", c["survivors"], 7))
            diffs += differs(c["survivors"], ref.THM1_SURVIVORS)
        if tid == "thm4":
            rows.append(_set("lambda_8-integral candidates", c["cands8"], 8))
            diffs += differs(c["cands8"], ref.LAMBDA8_CANDIDATES)
            rows.append(_set("not yet eliminated", c["left"], 8))
            rows += c["rows8"]
            rows.append(_set("strength-8 survivors", c["final"], 8))
            diffs += differs(c["final"], ())
            surviving = c["final"]
        report = {"id": tid, "inputs": {"family": "24m", "m_range": [1, M_MAX[0]]},
                  "rows": rows, "surviving_set": surviving}
        out[tid] = (report, diffs)
    for tid, (r, stages) in LADDERS.items():
        rows, sets = _ladder(r, stages)
        reference = ref.THM51_SETS if r == 1 else ref.THM52_SETS
        diffs = sum(differs(sets[t], reference[t]) for t in sets)
        report = {"id": tid, "inputs": {"family": LABELS[r], "m_range": [1, M_MAX[r]]},
                  "rows": rows, "surviving_set": sets[stages[-1][0]]}
        out[tid] = (report, diffs)
    return out


# ------------------------------------------------------------ CLI outputs

def lambda_lines(r: int, m: int, t: int) -> list[str]:
    """Expected stdout lines of ``designgate lambda``."""
    out = []
    for i in range(BASE_STRENGTH[r], strengthened(r, t) + 1):
        v = level(r, m, i)
        flag = "INTEGRAL" if v.denominator == 1 else "NON-INTEGRAL"
        out.append(f"lambda_{i} = {exact(v)}  {flag}")
    return out


def gate_report(r: int, m: int, t: int, u: int) -> dict:
    g = gate_record(r, m, t, u)
    return {"id": "gate", "inputs": {"family": LABELS[r], "m": m, "t": t, "u": u},
            "rows": [{"row": "gate", **g}],
            "surviving_set": [m] if g["verdict"] == "PASS" else []}


def scan_report(r: int, t: int, lo: int, hi: int) -> dict:
    rows, admissible = [], []
    for m in range(lo, hi + 1):
        levels = range(BASE_STRENGTH[r] + 1, strengthened(r, t) + 1)
        for i in levels:
            v = level(r, m, i)
            rows.append({"row": "lambda", "m": m, "level": i, "value": exact(v),
                         "integral": v.denominator == 1})
        if levels_pass(r, m, levels):
            admissible.append(m)
    rows.append(_set("admissible", admissible))
    return {"id": "scan", "inputs": {"family": LABELS[r], "t": t, "m_range": [lo, hi]},
            "rows": rows, "surviving_set": admissible}


def parse_report(text: str, fmt: str) -> dict:
    """Read a report in any of the three formats into the fields that
    format carries.  csv carries no inputs; the table carries no F."""
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        rows, surviving = [], None
        for rec in csv.DictReader(io.StringIO(text)):
            kind = rec["row"]
            if kind == "surviving":
                surviving = _ints(rec["ms"], ";")
                continue
            if kind == "set":
                row = {"row": "set", "label": rec["label"], "ms": _ints(rec["ms"], ";")}
            elif kind == "gate":
                row = {"row": "gate", "family": int(rec["family"]), "m": int(rec["m"]),
                       "t": int(rec["t"]), "u": int(rec["u"]), "F": rec["F"],
                       "quotient": rec["quotient"], "verdict": rec["verdict"]}
            elif kind == "lambda":
                row = {"row": "lambda", "m": int(rec["m"]), "level": int(rec["level"]),
                       "value": rec["value"], "integral": rec["integral"] == "True"}
            else:
                raise ValueError(f"unknown csv row kind {kind!r}")
            if rec["stage"]:
                row["stage"] = int(rec["stage"])
            rows.append(row)
        return {"rows": rows, "surviving_set": surviving}
    return _parse_table(text)


def _ints(text: str, sep: str) -> list[int]:
    return [int(x) for x in text.split(sep) if x.strip()]


def _parse_table(text: str) -> dict:
    lines = text.rstrip("\n").split("\n")
    if not lines[0].startswith("report: "):
        raise ValueError("table report lacks its header")
    out = {"id": lines[0][len("report: "):], "inputs": {}, "rows": []}
    body = iter(lines[1:])
    header = None
    for line in body:
        if line.startswith("surviving ("):
            out["surviving_set"] = _ints(line.split("{", 1)[1].rstrip("}"), ",")
        elif not line:
            header = None
        elif header is None and line.split() in (["m", "level", "value", "integral"],
                                                 ["family", "m", "t", "u", "quotient", "verdict"]):
            header = line.split()
        elif header is not None:
            cells = line.split()
            if header[0] == "m":
                out["rows"].append({"row": "lambda", "m": int(cells[0]), "level": int(cells[1]),
                                    "value": cells[2], "integral": cells[3] == "yes"})
            else:
                out["rows"].append({"row": "gate", "family": int(cells[0]), "m": int(cells[1]),
                                    "t": int(cells[2]), "u": int(cells[3]),
                                    "quotient": cells[4], "verdict": cells[5]})
        elif line.endswith("}") and " (" in line:
            label, rest = line.split(" (", 1)
            row = {"row": "set", "label": label, "ms": _ints(rest.split("{", 1)[1][:-1], ",")}
            if label.endswith("]") and " [t=" in label:
                label, stage = label[:-1].split(" [t=")
                row.update(label=label, stage=int(stage))
            out["rows"].append(row)
        elif ": " in line:
            key, value = line.split(": ", 1)
            out["inputs"][key] = value
        else:
            raise ValueError(f"unparsed table line {line!r}")
    return out


def project(report: dict, fmt: str) -> dict:
    """The part of an expected report that a rendering in ``fmt`` shows."""
    rows = []
    for row in report["rows"]:
        row = dict(row)
        if fmt == "table":
            row.pop("F", None)
            if row["row"] != "set":
                row.pop("stage", None)
        rows.append(row)
    if fmt == "table":  # the table lists sets, then lambda rows, then gates
        rows.sort(key=lambda row: ("set", "lambda", "gate").index(row["row"]))
    out = {"rows": rows, "surviving_set": report["surviving_set"]}
    if fmt == "json":
        out.update(id=report["id"], inputs=report["inputs"])
    elif fmt == "table":
        out.update(id=report["id"], inputs={k: str(v) for k, v in report["inputs"].items()})
    return out


def parse_wenum(text: str, n: int) -> tuple[list[int], bool]:
    """Coefficients printed by ``designgate wenum`` and whether it warned."""
    lines = text.rstrip("\n").split("\n")
    if lines[0] != f"extremal weight enumerator, n = {n}":
        raise ValueError(f"unexpected header {lines[0]!r}")
    coeffs = [0] * (n + 1)
    warned = False
    for line in lines[1:]:
        if line.startswith("WARNING: negative coefficients"):
            warned = True
            continue
        w, a = line[len("A_"):].split(" = ")
        coeffs[int(w)] = int(a)
    return coeffs, warned


def check_wenum(text: str, n: int) -> str | None:
    """None when ``designgate wenum --n n`` printed the extremal enumerator."""
    coeffs, warned = parse_wenum(text, n)
    failure = extremal_property_failure(n, coeffs)
    if failure:
        return failure
    if warned != any(a < 0 for a in coeffs):
        return "negative-coefficient warning does not match the coefficients"
    return None
