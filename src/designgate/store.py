"""On-disk cache of gate results.

One line-delimited JSON record per gate, keyed by the four integers
(family, m, t, u).  All numbers are exact decimal strings (the quotient as
"p/q"); records are append-only and deduplicated on read (a key always maps
to the same value, so last-wins is safe); a record whose verdict contradicts
its quotient is refused with ValueError.  The store directory comes from
the DESIGNGATE_STORE environment variable, defaulting to ./designgate_store.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .combinat import exact_quotient
from .gate import GateResult

ENV_VAR = "DESIGNGATE_STORE"
DEFAULT_DIRNAME = "designgate_store"
_FILENAME = "gates.jsonl"

Key = tuple[int, int, int, int]


def result_to_record(res: GateResult) -> dict:
    return {
        "family": res.family,
        "m": res.m,
        "t": res.t,
        "u": res.u,
        "F": str(res.F),
        "quotient": f"{res.quotient.numerator}/{res.quotient.denominator}",
        "verdict": res.verdict,
    }


def record_to_result(rec: dict) -> GateResult:
    p, q = rec["quotient"].split("/")
    res = GateResult(int(rec["family"]), int(rec["m"]), int(rec["t"]), int(rec["u"]),
                     int(rec["F"]), exact_quotient(int(p), int(q)))
    if rec["verdict"] != res.verdict:
        raise ValueError(f"verdict {rec['verdict']!r} contradicts quotient {res.quotient}")
    return res


class ResultStore:
    """Append-only JSONL store of gate results."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.path = self.directory / _FILENAME
        self._cache: dict[Key, GateResult] = {}
        self._loaded = False

    @staticmethod
    def from_env() -> "ResultStore":
        return ResultStore(os.environ.get(ENV_VAR, Path.cwd() / DEFAULT_DIRNAME))

    def _load(self) -> None:
        if self._loaded:
            return
        if self.path.exists():
            with open(self.path, encoding="ascii") as fh:
                for line in filter(None, map(str.strip, fh)):
                    res = record_to_result(json.loads(line))
                    self._cache[(res.family, res.m, res.t, res.u)] = res
        self._loaded = True

    def get(self, family: int, m: int, t: int, u: int) -> GateResult | None:
        self._load()
        return self._cache.get((family, m, t, u))

    def put(self, res: GateResult) -> None:
        self._load()
        key = (res.family, res.m, res.t, res.u)
        if key in self._cache:
            return
        self._cache[key] = res
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(result_to_record(res), sort_keys=False)
        with open(self.path, "a", encoding="ascii") as fh:
            fh.write(line + "\n")

    def __len__(self) -> int:
        self._load()
        return len(self._cache)
