import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from designgate.cli import main
from designgate.families import CodeFamily
from designgate.gate import GateResult, integrality_gate
from designgate.store import ENV_VAR, ResultStore, record_to_result, result_to_record

GATE_ARGV = ["gate", "--family", "24m", "--m", "8", "--t", "7"]


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


def test_the_gate_takes_no_store():
    assert list(inspect.signature(integrality_gate).parameters) == ["f", "t", "u"]


def test_store_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "s"))
    assert main(GATE_ARGV) == 0
    res = integrality_gate(CodeFamily(8, 0), 7)
    # a fresh handle reads the same record back from disk
    again = ResultStore(tmp_path / "s")
    assert again.get(0, 8, 7, 36) == res
    assert len(again) == 1


# Edits to the honest (24m, m=8, t=7, u=36) record, whose quotient is
# 1569595833/8, and the error each must give.
FAULTS = {
    "zero denominator": ({"quotient": "5/0"}, "malformed store record"),
    "self-consistent forgery": ({"F": "5", "quotient": "5/1", "verdict": "PASS"},
                                "differs from the computed"),
}


def _faulty_store(tmp_path, lines) -> Path:
    """A store directory whose lines are raw text or, for a dict, the honest
    (24m, m=8, t=7, u=36) record with the dict's changes."""
    rec = result_to_record(integrality_gate(CodeFamily(8, 0), 7))
    store = tmp_path / "faulty"
    store.mkdir()
    (store / "gates.jsonl").write_text("".join(
        (line if isinstance(line, str) else json.dumps(dict(rec, **line))) + "\n"
        for line in lines), encoding="utf-8")
    return store


def test_a_store_hit_is_checked_not_trusted(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "s"))
    # Without a timestamp, so that the two reports compare across a clock tick.
    assert main(GATE_ARGV + ["--no-timestamp"]) == 0
    first = capsys.readouterr().out
    path = tmp_path / "s" / "gates.jsonl"
    lines = path.read_text()
    # An honest hit prints the same report and appends nothing.
    assert main(GATE_ARGV + ["--no-timestamp"]) == 0
    assert capsys.readouterr().out == first
    assert path.read_text() == lines and len(ResultStore(tmp_path / "s")) == 1
    # A hit that differs from the computed result is refused, before any
    # output and without an append.
    rec = json.loads(lines)
    path.write_text(json.dumps(dict(rec, F=str(int(rec["F"]) + 8))) + "\n")
    forged = path.read_text()
    assert main(GATE_ARGV) == 2
    out, err = capsys.readouterr()
    assert out == "" and "differs from the computed" in err
    assert path.read_text() == forged


def test_malformed_records_raise_value_error():
    good = result_to_record(integrality_gate(CodeFamily(8, 0), 7))
    bad = [{k: v for k, v in good.items() if k != "quotient"},
           {k: v for k, v in good.items() if k != "verdict"},
           dict(good, F="12x"), dict(good, m=None), dict(good, quotient="5/0"),
           dict(good, quotient="5"), dict(good, quotient=5), ["not", "a", "record"]]
    for rec in bad:
        with pytest.raises(ValueError):
            record_to_result(rec)


@pytest.mark.parametrize("fault", FAULTS)
def test_faulty_record_exits_2_before_any_output(fault, tmp_path, monkeypatch, capsys):
    changes, message = FAULTS[fault]
    monkeypatch.setenv(ENV_VAR, str(_faulty_store(tmp_path, [changes])))
    assert main(GATE_ARGV) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err


# Store files that cannot be loaded, and the line each error must name.
UNLOADABLE = {
    "not JSON": (['{"family": 0,, "m": 8}'], 1),
    "zero denominator": ([{"quotient": "5/0"}], 1),
    "not JSON after an honest line": ([{}, "[1, 2"], 2),
    "not ASCII after a blank line": (["", '{"family": "\u00e9"}'], 2),
}


@pytest.mark.parametrize("case", UNLOADABLE)
def test_load_error_names_the_store_file_and_line(case, tmp_path, monkeypatch, capsys):
    lines, lineno = UNLOADABLE[case]
    monkeypatch.setenv(ENV_VAR, str(_faulty_store(tmp_path, lines)))
    assert main(GATE_ARGV) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"gates.jsonl:{lineno}: " in err and err.startswith("error: ")


def test_a_lambda_level_failure_never_opens_the_store(tmp_path, monkeypatch, capsys):
    # The store is read only once a gate has been computed, so a member
    # whose level counts fail reports them even beside an unloadable store.
    monkeypatch.setenv(ENV_VAR, str(_faulty_store(tmp_path, UNLOADABLE["not JSON"][0])))
    assert main(["gate", "--family", "24m", "--m", "7", "--t", "7", "--no-timestamp"]) == 0
    out, err = capsys.readouterr()
    assert "PRE-GATE FAIL" in out and err == ""


@pytest.mark.parametrize("fault", FAULTS)
def test_faulty_record_exits_2_under_python_O(fault, tmp_path):
    changes, message = FAULTS[fault]
    code = ("import sys\n"
            "from designgate.cli import main\n"
            "assert False, 'assertions are on'\n"
            f"sys.exit(main({GATE_ARGV!r}))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env[ENV_VAR] = str(_faulty_store(tmp_path, [changes]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert message in proc.stderr


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
    res = integrality_gate(CodeFamily(15, 0), 7)
    ResultStore(tmp_path / "s").put(res)
    assert ResultStore(tmp_path / "s").get(0, 15, 7, 64) == res
    assert res.integral and res.quotient.denominator == 1
    rec = result_to_record(res)
    assert rec["verdict"] == "PASS"
    assert rec["quotient"].endswith("/1")
    assert Fraction(*map(int, rec["quotient"].split("/"))) == res.quotient


def test_int_quotient_roundtrip(tmp_path):
    # An integral quotient is an int both when computed and when read back
    # from its "p/1" record.
    res = integrality_gate(CodeFamily(63, 0), 8)
    ResultStore(tmp_path / "s").put(res)
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
