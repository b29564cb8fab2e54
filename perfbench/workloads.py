"""The benchmark's three workloads: the operations one round runs, made
from the seed, and the checks on their outputs, made by the independent
checker.

Each operation is one fresh process.  An operation names its arguments
(after the launcher), its expected exit status and a check that returns
None for a correct output or a message saying what is wrong.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checker as c

FORMATS = ("json", "csv", "table")

# Surviving candidates for deep_u as (family index, m, strength): family
# 24m at t=7 (and m=63 at t=8), 24m+16 at t=4 and t=5, 24m+8 at t=7 and
# t=5.  Lengths 256 to 1512.
DEEP_U_CANDIDATES = (
    (0, 15, 7), (0, 52, 7), (0, 55, 7), (0, 57, 7), (0, 59, 7), (0, 60, 7), (0, 63, 7),
    (0, 63, 8),
    (2, 10, 4), (2, 23, 4), (2, 23, 5),
    (1, 58, 7), (1, 15, 5), (1, 35, 5), (1, 45, 5),
)

# The queries mix of one round: 11 lambda, 16 fresh gate queries and 8
# repeats of earlier ones (a third of all gate queries), 9 scans and 6
# wenum calls, 50 in all.
N_LAMBDA, N_GATE, N_GATE_REPEAT, N_SCAN, N_WENUM = 11, 16, 8, 9, 6


@dataclass
class Op:
    label: str
    kind: str                     # "cli" (designgate ARG...) or "deep_u"
    args: list[str]               # "{out}" stands for the operation's output file
    check: Callable[[str, str], str | None]
    expected_code: int = 0
    units: int = 1                # operations the process performs
    repeat_of: int | None = None  # index of an earlier op that must print the same bytes
    unit_times: Callable[[str], list[float]] | None = None  # from stderr


@dataclass
class Workload:
    name: str
    ops: list[Op] = field(default_factory=list)


def load_reference_sets(src: Path):
    """designgate's reference data, loaded from its file alone so that no
    other module of the program runs in the benchmark's process."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_reference_sets", src / "designgate" / "reference_sets.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _equal(got, want, what: str) -> str | None:
    return None if got == want else f"{what} differs from the checker"


def _parsed(text: str, fmt: str):
    try:
        return c.parse_report(text, fmt)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparsable {fmt} output: {exc}"


def reproduce(seed: int, src: Path) -> Workload:
    """The seven theorem drivers with the CLI's default --jobs.  The seed
    does not enter: the reproduction has one input."""
    del seed
    expected = c.theorem_reports(load_reference_sets(src))
    w = Workload("reproduce")
    for tid in c.THEOREM_IDS:
        report, diffs = expected[tid]

        def check(out: str, err: str, report=report, diffs=diffs) -> str | None:
            mismatches = sum(1 for line in err.splitlines() if line.startswith("MISMATCH"))
            if mismatches != diffs:
                return f"{mismatches} MISMATCH lines, the checker predicts {diffs}"
            try:
                got = json.loads(out)
            except ValueError as exc:
                return f"unparsable report: {exc}"
            return _equal(got, report, "report")

        w.ops.append(Op(tid, "cli", ["theorem", tid, "--format", "json", "--no-timestamp",
                                     "--out", "{out}"], check, expected_code=4 if diffs else 0))
    return w


def _digest(quotients: dict) -> str:
    """The digest deep_u.py prints for the same (u, quotient) sequence."""
    h = hashlib.sha256()
    for u, q in quotients.items():
        h.update(f"{u}:{q.numerator}/{q.denominator};".encode())
    return h.hexdigest()


def deep_u(seed: int, src: Path) -> Workload:
    """One process over every candidate, always in the listed order: the
    library's caches make a candidate's time depend on those before it.
    The seed does not enter."""
    del seed, src
    expected = []
    enumerators: dict[int, list[int]] = {}
    for r, m, t in DEEP_U_CANDIDATES:
        mem = c.Member(r, m)
        if mem.n not in enumerators:
            enumerators[mem.n] = c.extremal_enumerator(mem.n)
        coeffs = enumerators[mem.n]
        weights = list(range(mem.k, mem.n - mem.k + 1, 4))
        quotients = {u: c.gate(r, m, t, u)[1] for u in weights if coeffs[u] > 0}
        expected.append({"r": r, "m": m, "t": t, "weights": len(weights),
                         "vacuous": len(weights) - len(quotients),
                         "fails": sum(q.denominator != 1 for q in quotients.values()),
                         "digest": _digest(quotients)})

    def check(out: str, err: str) -> str | None:
        try:
            got = json.loads(out)
        except ValueError as exc:
            return f"unparsable deep_u output: {exc}"
        return _equal(got, expected, "deep_u result")

    def unit_times(err: str) -> list[float]:
        return json.loads(err.splitlines()[-1])

    w = Workload("deep_u")
    w.ops.append(Op("deep_u", "deep_u", [json.dumps(DEEP_U_CANDIDATES)], check,
                    units=len(DEEP_U_CANDIDATES), unit_times=unit_times))
    return w


def gate_pool() -> dict[tuple[int, int], list[int]]:
    """(family, t) -> the m whose level counts lambda_0..lambda_t all pass,
    for every strength the gate accepts."""
    pool: dict[tuple[int, int], list[int]] = {}
    for r in range(3):
        for m in range(1, c.M_MAX[r] + 1):
            for t in range(c.BASE_STRENGTH[r], c.T_MAX + 1):
                if not c.is_count(c.level(r, m, t)):
                    break
                pool.setdefault((r, t), []).append(m)
    return pool


def queries(seed: int, src: Path) -> Workload:
    """A stream of short CLI calls drawn from the seed.  Sizes are drawn
    from fixed strata so that rounds of different seeds cost alike."""
    del src
    rng = random.Random(seed)
    fresh: list[Op] = []
    for i in range(N_LAMBDA):
        r = i % 3
        m = rng.randint(1, c.M_MAX[r])
        t = rng.randint(c.BASE_STRENGTH[r], c.BASE_STRENGTH[r] + 4)
        text = "".join(line + "\n" for line in c.lambda_lines(r, m, t))
        fresh.append(Op(f"lambda {c.LABELS[r]} m={m} t={t}", "cli",
                        ["lambda", "--family", c.LABELS[r], "--m", str(m), "--t", str(t)],
                        lambda out, err, text=text: _equal(out, text, "lambda output")))
    pool = gate_pool()
    gates: list[Op] = []
    drawn: set[tuple[int, int, int, int]] = set()
    for i in range(N_GATE):
        r = i % 3
        # Without replacement on the store's key (family, m, t, u), so that
        # the stated repeats are the only queries the store answers.
        while True:
            t = rng.choice(sorted(t for (rr, t) in pool if rr == r))
            m = rng.choice(pool[(r, t)])
            u = 4 * m + 4 + (4 if i % 2 else 0)
            if (r, m, t, u) not in drawn:
                drawn.add((r, m, t, u))
                break
        fmt = FORMATS[(i // 2) % 3]
        want = c.project(c.gate_report(r, m, t, u), fmt)

        def check(out: str, err: str, fmt=fmt, want=want) -> str | None:
            got = _parsed(out, fmt)
            return got if isinstance(got, str) else _equal(got, want, "gate report")

        gates.append(Op(f"gate {c.LABELS[r]} m={m} t={t} u={u} {fmt}", "cli",
                        ["gate", "--family", c.LABELS[r], "--m", str(m), "--t", str(t),
                         "--u", str(u), "--format", fmt, "--no-timestamp"], check))
    fresh += gates
    for i in range(N_SCAN):
        r, third = i % 3, i // 3
        width = rng.randint(2, 6)
        if third < 2:  # a range in the lower or middle third ...
            lo = rng.randint(1 + third * c.M_MAX[r] // 3, (third + 1) * c.M_MAX[r] // 3)
        else:  # ... or the top of the family, where the series is longest
            lo = c.M_MAX[r] - width + 1
        hi = lo + width - 1
        t = rng.randint(c.BASE_STRENGTH[r] + 1, c.BASE_STRENGTH[r] + 3)
        fmt = FORMATS[(i + third) % 3]
        want = c.project(c.scan_report(r, t, lo, hi), fmt)

        def check(out: str, err: str, fmt=fmt, want=want) -> str | None:
            got = _parsed(out, fmt)
            return got if isinstance(got, str) else _equal(got, want, "scan report")

        fresh.append(Op(f"scan {c.LABELS[r]} t={t} m={lo}..{hi} {fmt}", "cli",
                        ["scan", "--family", c.LABELS[r], "--t", str(t), "--m-min", str(lo),
                         "--m-max", str(hi), "--jobs", "1", "--format", fmt, "--no-timestamp"],
                        check))
    for band in range(N_WENUM):
        n = 8 * rng.randint(1 + 12 * band, 12 * (band + 1))
        fresh.append(Op(f"wenum n={n}", "cli", ["wenum", "--n", str(n)],
                        lambda out, err, n=n: c.check_wenum(out, n)))
    rng.shuffle(fresh)
    # Each repeat goes somewhere after the query it repeats.
    ops = list(fresh)
    for _ in range(N_GATE_REPEAT):
        original = rng.choice(gates)
        at = rng.randint(ops.index(original) + 1, len(ops))
        ops.insert(at, Op(original.label + " (repeat)", "cli", original.args, original.check,
                          repeat_of=id(original)))
    index = {id(op): i for i, op in enumerate(ops)}
    for op in ops:
        if op.repeat_of is not None:
            op.repeat_of = index[op.repeat_of]
    w = Workload("queries")
    w.ops = ops
    return w


WORKLOADS = {"reproduce": reproduce, "deep_u": deep_u, "queries": queries}
