#!/usr/bin/env python3
"""Exhaustive gate exploration for one family member.

Runs the strength-l integrality gate at every admissible reference weight
u = k, k+4, ..., n-k (skipping weights whose enumerator coefficient is zero
or negative, where the gate is vacuous) and prints any failures.  Useful for
checking whether a candidate m can be eliminated by *any* weight, not just
the u = k and u = k+4 ladder the drivers use.
"""

from __future__ import annotations

import argparse
import sys

from designgate.families import FAMILY_LABELS, CodeFamily
from designgate.gate import integrality_gate
from designgate.gleason import extremal_weight_enumerator


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", choices=FAMILY_LABELS, required=True)
    ap.add_argument("--m", type=int, required=True)
    ap.add_argument("--t", type=int, required=True, help="gate strength (offset count)")
    ap.add_argument("--verbose", action="store_true", help="print passing gates too")
    args = ap.parse_args()

    f = CodeFamily(args.m, FAMILY_LABELS.index(args.family))
    enum = extremal_weight_enumerator(f.n)
    fails = vacuous = total = 0
    for u in range(f.k, f.n - f.k + 1, 4):
        total += 1
        if enum.coefficient(u) <= 0:
            vacuous += 1
            continue
        res = integrality_gate(f, args.t, u)
        if not res.integral:
            fails += 1
            print(f"u={u}: FAIL quotient {res.quotient}")
        elif args.verbose:
            print(f"u={u}: pass ({res.quotient})")
    print(f"{f}: strength {args.t}, {total} weights, "
          f"{vacuous} vacuous, {fails} failing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
