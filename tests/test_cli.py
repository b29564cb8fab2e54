import json

import pytest

from designgate.cli import build_parser, main
from designgate.families import FAMILY_LABELS, M_MAXES, admissible_scan
from designgate.report import FORMATS


@pytest.fixture(autouse=True)
def isolated_store(tmp_path, monkeypatch):
    monkeypatch.setenv("DESIGNGATE_STORE", str(tmp_path / "store"))
    monkeypatch.chdir(tmp_path)


def test_lambda_command(capsys):
    assert main(["lambda", "--family", "24m", "--m", "8", "--t", "7"]) == 0
    out = capsys.readouterr().out
    assert "lambda_5 = 12620256  INTEGRAL" in out
    assert "lambda_7 = 337440  INTEGRAL" in out


def test_lambda_flags_nonintegral(capsys):
    assert main(["lambda", "--family", "24m", "--m", "1", "--t", "6"]) == 0
    out = capsys.readouterr().out
    assert "NON-INTEGRAL" in out
    assert "lambda_5 = 1  INTEGRAL" in out


def test_lambda_out_of_range_exits_2(capsys):
    assert main(["lambda", "--family", "24m", "--m", "154", "--t", "6"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args,message", [
    (["gate", "--family", "24m", "--m", "200", "--t", "7"],
     "m = 200 outside [1, 153] for family 24m"),
    (["lambda", "--family", "24m", "--m", "0", "--t", "6"],
     "m = 0 outside [1, 153] for family 24m"),
    (["gate", "--family", "24m+16", "--m", "164", "--t", "3"],
     "m = 164 outside [0, 163] for family 24m+16"),
    (["lambda", "--family", "24m+8", "--m", "-1", "--t", "3"],
     "m = -1 outside [0, 158] for family 24m+8"),
])
def test_m_outside_family_range_exits_2_before_output(capsys, args, message):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_lambda_hamming_base_case(capsys):
    # m = 0 of family 24m+8 is the [8, 4, 4] Hamming code: a 3-(8, 4, 1) design.
    assert main(["lambda", "--family", "24m+8", "--m", "0", "--t", "3"]) == 0
    assert capsys.readouterr().out == "lambda_3 = 1  INTEGRAL\n"


def test_lambda_strength_above_k_exits_2_before_output(capsys):
    assert main(["lambda", "--family", "24m", "--m", "8", "--t", "700"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: strength 700 outside [5, 36]" in captured.err


def test_jobs_default_to_one_and_reject_zero(capsys):
    parser = build_parser()
    assert parser.parse_args(["scan", "--family", "24m", "--t", "6"]).jobs == 1
    assert parser.parse_args(["theorem", "lemma1"]).jobs == 1
    assert main(["scan", "--family", "24m", "--t", "6", "--jobs", "0"]) == 2
    assert main(["theorem", "lemma1", "--jobs", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("--jobs must be >= 1") == 2


def test_scan_lemma1_table(capsys):
    assert main(["scan", "--family", "24m", "--t", "6", "--m-min", "1",
                 "--m-max", "20", "--no-timestamp", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "admissible (4): {5, 8, 15, 19}" in out


def test_scan_csv_and_json(tmp_path, capsys):
    args = ["scan", "--family", "24m", "--t", "6", "--m-min", "5", "--m-max", "5",
            "--no-timestamp"]
    assert main(args + ["--format", "json", "--out", str(tmp_path / "r.json")]) == 0
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["surviving_set"] == [5]
    assert data["id"] == "scan"
    assert "generated_at" not in data
    assert main(args + ["--format", "csv", "--out", str(tmp_path / "r.csv")]) == 0
    text = (tmp_path / "r.csv").read_text()
    assert text.splitlines()[0].startswith("row,stage,label")


def test_scan_deterministic_across_jobs(capsys):
    args = ["scan", "--family", "24m", "--t", "6", "--m-min", "1", "--m-max", "40",
            "--no-timestamp", "--format", "json"]
    assert main(args + ["--jobs", "1"]) == 0
    first = capsys.readouterr().out
    assert main(args + ["--jobs", "4"]) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("family,t,m_range", [
    ("24m", 6, None), ("24m", 7, (40, 90)), ("24m+8", 5, None), ("24m+16", 4, None),
])
def test_scan_set_matches_admissible_scan(block_count_calls, capsys, family, t, m_range):
    r = FAMILY_LABELS.index(family)
    lo, hi = m_range or (1, M_MAXES[r])
    args = ["scan", "--family", family, "--t", str(t), "--no-timestamp", "--format", "json"]
    if m_range:
        args += ["--m-min", str(lo), "--m-max", str(hi)]
    assert main(args) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(block_count_calls) == hi - lo + 1  # one per member
    assert data["surviving_set"] == admissible_scan(r, t, *(m_range or ()))
    assert data["rows"][-1]["ms"] == data["surviving_set"]


def test_gate_command_and_cache(tmp_path, capsys):
    args = ["gate", "--family", "24m", "--m", "8", "--t", "7", "--no-timestamp"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "1569595833/8" in out and "FAIL_NONINTEGER" in out
    store_file = tmp_path / "store" / "gates.jsonl"
    assert store_file.exists()
    cached_lines = store_file.read_text().splitlines()
    assert main(args) == 0
    assert store_file.read_text().splitlines() == cached_lines


def test_gate_pre_gate_lambda_failure(capsys):
    assert main(["gate", "--family", "24m", "--m", "1", "--t", "6"]) == 0
    assert "PRE-GATE FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", FORMATS)
def test_gate_pre_gate_failure_is_a_report(tmp_path, capsys, fmt):
    args = ["gate", "--family", "24m", "--m", "7", "--t", "7", "--format", fmt,
            "--no-timestamp"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert main(args + ["--out", str(tmp_path / "x")]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "x").read_text() == out
    if fmt == "json":
        data = json.loads(out)
        assert data["inputs"] == {"family": "24m", "m": 7, "t": 7, "u": 32}
        assert [(r["level"], r["value"], r["integral"]) for r in data["rows"]
                if r["row"] == "lambda"] == [(6, "29904336/163", False),
                                             (7, "14398384/489", False)]
        assert data["surviving_set"] == []
    else:
        assert "29904336/163" in out and "14398384/489" in out
        assert "PRE-GATE FAIL" in out


def test_gate_bad_u_exits_2(capsys):
    assert main(["gate", "--family", "24m", "--m", "8", "--t", "7", "--u", "37"]) == 2


def test_theorem_lemma1_passes(capsys):
    assert main(["theorem", "lemma1", "--no-timestamp", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "(39)" in out


def test_theorem_thm52_reports_mismatch(capsys):
    assert main(["theorem", "thm5.2", "--no-timestamp", "--jobs", "1"]) == 4
    err = capsys.readouterr().err
    assert "MISMATCH" in err and "extra m: [23]" in err


def test_theorem_upto_t(capsys):
    assert main(["theorem", "thm5.1", "--t", "7", "--no-timestamp", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "surviving (1): {58}" in out


def test_theorem_ignores_a_forged_store_record(tmp_path, capsys):
    # A self-consistent PASS record for the (24m, m=63, t=8, u=k+4) gate,
    # whose honest quotient is non-integral.
    F = 7 * 2**8 * 40320
    forged = json.dumps({"family": 0, "m": 63, "t": 8, "u": 260, "F": str(F),
                         "quotient": "7/1", "verdict": "PASS"}) + "\n"
    args = ["theorem", "thm4", "--no-timestamp", "--format", "json"]
    assert main(args) == 0
    clean = capsys.readouterr().out
    assert not (tmp_path / "store").exists()
    store_file = tmp_path / "store" / "gates.jsonl"
    store_file.parent.mkdir()
    store_file.write_text(forged)
    assert main(args) == 0
    assert capsys.readouterr().out == clean
    assert store_file.read_text() == forged


def test_theorem_deterministic_output(capsys):
    args = ["theorem", "thm2", "--no-timestamp", "--format", "json", "--jobs", "1"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_unwritable_out_exits_3(tmp_path, capsys):
    assert main(["wenum", "--n", "24", "--out", str(tmp_path / "nope" / "x.txt")]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_wenum(capsys):
    assert main(["wenum", "--n", "24"]) == 0
    out = capsys.readouterr().out
    assert "A_8 = 759" in out and "A_12 = 2576" in out and "A_24 = 1" in out
    assert "A_0 = 1" in out


def test_wenum_bad_n_exits_2(capsys):
    assert main(["wenum", "--n", "20"]) == 2


def test_theorem_ids_offered_and_checked_by_the_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["theorem", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{lemma1,thm1,thm2,thm3,thm4,thm5.1,thm5.2}" in out
    with pytest.raises(SystemExit) as exc:
        main(["theorem", "thm9"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument id: invalid choice: 'thm9'" in captured.err
