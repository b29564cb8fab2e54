"""On-disk cache of gate results.

One line-delimited JSON record per gate, keyed by the four integers
(family, m, t, u).  All numbers are exact decimal strings (the quotient as
"p/q"); records are append-only and deduplicated on read (a key always maps
to the same value, so last-wins is safe); a malformed record, or one whose
verdict contradicts its quotient, is refused with a ValueError that names
the file and line.  Loading checks every record in ints; only ``get``
builds a GateResult, for the one key it is asked for.  ``designgate gate``
checks a record against the result it computed and appends one on a miss;
the library never opens the store.
The directory comes from DESIGNGATE_STORE, defaulting to ./designgate_store.
"""

import json
import os
from pathlib import Path

from .combinat import exact_quotient
from .gate import FAIL_NONINTEGER, PASS, GateResult

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


def _checked(rec: dict) -> tuple[Key, int, int, int]:
    """The key, F and quotient p/q of a record, checked in ints: a malformed
    field, or a verdict other than PASS exactly when q divides p, is refused."""
    try:
        p, q = rec["quotient"].split("/")
        key = int(rec["family"]), int(rec["m"]), int(rec["t"]), int(rec["u"])
        F, p, q = int(rec["F"]), int(p), int(q)
        integral = not divmod(p, q)[1]
    except (KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed store record {rec!r}: {exc!r}") from None
    if rec.get("verdict") != (PASS if integral else FAIL_NONINTEGER):
        raise ValueError(f"verdict {rec.get('verdict')!r} contradicts quotient "
                         f"{exact_quotient(p, q)}")
    return key, F, p, q


def record_to_result(rec: dict) -> GateResult:
    (family, m, t, u), F, p, q = _checked(rec)
    return GateResult(family, m, t, u, F, exact_quotient(p, q))


class ResultStore:
    """Append-only JSONL store of gate results."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.path = self.directory / _FILENAME
        self._cache: dict[Key, dict] = {}  # checked records; get builds the result
        self._loaded = False

    @staticmethod
    def from_env() -> "ResultStore":
        return ResultStore(os.environ.get(ENV_VAR, Path.cwd() / DEFAULT_DIRNAME))

    def _load(self) -> None:
        if self._loaded:
            return
        if self.path.exists():
            with open(self.path, "rb") as fh:
                for lineno, line in enumerate(fh, 1):
                    try:
                        if line.strip():
                            rec = json.loads(line.decode("ascii"))
                            self._cache[_checked(rec)[0]] = rec
                    except ValueError as exc:
                        raise ValueError(f"{self.path}:{lineno}: {exc}") from None
        self._loaded = True

    def get(self, family: int, m: int, t: int, u: int) -> GateResult | None:
        self._load()
        rec = self._cache.get((family, m, t, u))
        return None if rec is None else record_to_result(rec)

    def put(self, res: GateResult) -> None:
        self._load()
        key = (res.family, res.m, res.t, res.u)
        if key in self._cache:
            return
        self._cache[key] = rec = result_to_record(res)
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(rec, sort_keys=False)
        with open(self.path, "a", encoding="ascii") as fh:
            fh.write(line + "\n")

    def __len__(self) -> int:
        self._load()
        return len(self._cache)
