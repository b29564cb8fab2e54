#!/usr/bin/env python3
"""Exhaustive gate exploration for one family member.

Runs the strength-l integrality gate at every admissible reference weight
u = k, k+4, ..., n-k (skipping weights whose enumerator coefficient is zero
or negative, where the gate is vacuous) and prints any failures.  Useful for
checking whether a candidate m can be eliminated by *any* weight, not just
the u = k and u = k+4 ladder the drivers use.  A refused member or strength,
including one whose lambda levels are not counts, prints one ``error:`` line
on stderr and exits 2, with nothing on stdout.
"""

from __future__ import annotations

import argparse
import sys

from designgate.families import FAMILY_LABELS, CodeFamily
from designgate.gate import integrality_gate
from designgate.gleason import extremal_weight_enumerator


def scan(family: str, m: int, t: int, verbose: bool) -> list[str]:
    """The output lines of one member's scan; ValueError before any line
    if the member, the strength or its lambda levels are refused."""
    f = CodeFamily(m, FAMILY_LABELS.index(family))
    enum = extremal_weight_enumerator(f.n)
    lines = []
    fails = vacuous = total = 0
    for u in range(f.k, f.n - f.k + 1, 4):
        total += 1
        if enum.coefficient(u) <= 0:
            vacuous += 1
            continue
        res = integrality_gate(f, t, u)
        if not res.integral:
            fails += 1
            lines.append(f"u={u}: FAIL quotient {res.quotient}")
        elif verbose:
            lines.append(f"u={u}: pass ({res.quotient})")
    lines.append(f"{f}: strength {t}, {total} weights, {vacuous} vacuous, {fails} failing")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", choices=FAMILY_LABELS, required=True)
    ap.add_argument("--m", type=int, required=True)
    ap.add_argument("--t", type=int, required=True, help="gate strength (offset count)")
    ap.add_argument("--verbose", action="store_true", help="print passing gates too")
    args = ap.parse_args()

    try:
        lines = scan(args.family, args.m, args.t, args.verbose)
    except ValueError as exc:  # a bad member or strength, or non-integral lambda levels
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
