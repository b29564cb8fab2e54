import json
import sys
from pathlib import Path

import hypothesis
import pytest

from designgate import families

# perfbench/checker.py shares no code with designgate; the tests import it
# as an independent oracle.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

hypothesis.settings.register_profile(
    "default", max_examples=60, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def block_count_calls(monkeypatch):
    """The members passed to families.block_count while the test runs."""
    calls = []
    real = families.block_count

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(families, "block_count", counting)
    return calls


@pytest.fixture
def forged_store(tmp_path):
    """A store directory holding the (24m, m=8, t=7, u=36) gate's record,
    whose quotient is 1569595833/8, with its verdict hand-edited to PASS."""
    from designgate.gate import integrality_gate
    from designgate.store import result_to_record

    rec = result_to_record(integrality_gate(families.CodeFamily(8, 0), 7))
    assert rec["quotient"] == "1569595833/8" and rec["verdict"] == "FAIL_NONINTEGER"
    store = tmp_path / "forged"
    store.mkdir()
    (store / "gates.jsonl").write_text(json.dumps(dict(rec, verdict="PASS")) + "\n")
    return store
