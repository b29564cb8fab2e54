"""The deep_u workload's process: for each candidate (r, m, t), build the
extremal enumerator and run the strength-t gate at every admissible weight
u = k, k+4, ..., n-k whose coefficient is positive, through the library API
as scripts/deep_u_scan.py does for one candidate.

usage: python3 perfbench/deep_u.py '[[r, m, t], ...]'

Prints one JSON list, one entry per candidate: the counts of weights,
vacuous weights and failing gates, and a SHA-256 digest of the
"u:quotient;" sequence.  The candidates' wall times in seconds go to
stderr as a JSON list, so that stdout depends on the inputs alone.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from designgate.families import CodeFamily
from designgate.gate import integrality_gate
from designgate.gleason import extremal_weight_enumerator


def quotient_digest(pairs) -> str:
    """Digest of the (u, quotient) sequence; the checker builds the same."""
    h = hashlib.sha256()
    for u, q in pairs:
        h.update(f"{u}:{q.numerator}/{q.denominator};".encode())
    return h.hexdigest()


def scan(r: int, m: int, t: int) -> tuple[dict, float]:
    start = time.perf_counter()
    f = CodeFamily(m, r)
    enum = extremal_weight_enumerator(f.n)
    weights = vacuous = fails = 0
    quotients = []
    for u in range(f.k, f.n - f.k + 1, 4):
        weights += 1
        if enum.coefficient(u) <= 0:
            vacuous += 1
            continue
        res = integrality_gate(f, t, u)
        fails += not res.integral
        quotients.append((u, res.quotient))
    seconds = time.perf_counter() - start
    return {"r": r, "m": m, "t": t, "weights": weights, "vacuous": vacuous,
            "fails": fails, "digest": quotient_digest(quotients)}, seconds


def main(argv: list[str]) -> int:
    results, seconds = zip(*(scan(r, m, t) for r, m, t in json.loads(argv[0])))
    print(json.dumps(list(results)))
    print(json.dumps(list(seconds)), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
