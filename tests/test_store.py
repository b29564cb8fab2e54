import json
from fractions import Fraction

from designgate.cli import main
from designgate.families import CodeFamily
from designgate.gate import GateResult, integrality_gate
from designgate.store import ENV_VAR, ResultStore, record_to_result, result_to_record


def test_record_roundtrip():
    res = GateResult(0, 8, 7, 36, 126572207973120, Fraction(126572207973120, 645120 * 128))
    rec = result_to_record(res)
    assert rec["quotient"].count("/") == 1
    assert record_to_result(rec) == res


def test_record_exact_decimal_strings():
    res = integrality_gate(CodeFamily(50, 0), 7)
    rec = result_to_record(res)
    assert rec["F"] == str(res.F)
    assert "e" not in rec["F"].lower()
    assert rec["quotient"].endswith("/8")


def test_store_roundtrip(tmp_path):
    store = ResultStore(tmp_path / "s")
    res = integrality_gate(CodeFamily(8, 0), 7, store=store)
    assert store.get(0, 8, 7, 36) == res
    # a fresh handle reads the same record back from disk
    again = ResultStore(tmp_path / "s")
    assert again.get(0, 8, 7, 36) == res
    assert len(again) == 1


def test_store_is_consulted_before_computing(tmp_path):
    store = ResultStore(tmp_path / "s")
    first = integrality_gate(CodeFamily(8, 0), 7, store=store)
    fake = GateResult(0, 8, 7, 9999, first.F, Fraction(first.F, 645120))
    store._cache[(0, 8, 7, 36)] = fake
    assert integrality_gate(CodeFamily(8, 0), 7, store=store) == fake


def test_store_deduplicates(tmp_path):
    store = ResultStore(tmp_path / "s")
    res = integrality_gate(CodeFamily(8, 0), 7)
    store.put(res)
    store.put(res)
    lines = (tmp_path / "s" / "gates.jsonl").read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert list(rec) == ["family", "m", "t", "u", "F", "quotient", "verdict"]


def test_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "envstore"))
    store = ResultStore.from_env()
    assert store.directory == tmp_path / "envstore"
    monkeypatch.delenv(ENV_VAR)
    assert ResultStore.from_env().directory.name == "designgate_store"


def test_pass_verdict_roundtrip(tmp_path):
    store = ResultStore(tmp_path / "s")
    res = integrality_gate(CodeFamily(15, 0), 7, store=store)
    assert res.integral and res.quotient.denominator == 1
    rec = result_to_record(res)
    assert rec["verdict"] == "PASS"
    assert rec["quotient"].endswith("/1")
    assert Fraction(*map(int, rec["quotient"].split("/"))) == res.quotient


def test_int_quotient_roundtrip(tmp_path):
    # An integral quotient is an int both when computed and when read back
    # from its "p/1" record.
    store = ResultStore(tmp_path / "s")
    res = integrality_gate(CodeFamily(63, 0), 8, store=store)
    assert type(res.quotient) is int
    back = ResultStore(tmp_path / "s").get(0, 63, 8, 256)
    assert back == res and hash(back) == hash(res)
    assert type(back.quotient) is int
    assert record_to_result(result_to_record(res)) == res


def test_forged_verdict_exits_2_before_any_output(forged_store, monkeypatch, capsys):
    monkeypatch.setenv(ENV_VAR, str(forged_store))
    assert main(["gate", "--family", "24m", "--m", "8", "--t", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "verdict 'PASS' contradicts quotient 1569595833/8" in err
