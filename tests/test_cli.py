import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import checker
import cli_oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from designgate import cli
from designgate.cli import main
from designgate.families import FAMILY_LABELS, M_MAXES, THEOREM_IDS, admissible_scan
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


def test_gate_strength_above_k_exits_2_before_output(capsys):
    assert main(["gate", "--family", "24m", "--m", "1", "--t", "9"]) == 2
    assert capsys.readouterr() == ("", "error: t = 9 above the block size 8\n")


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
    assert cli.parse_args(["scan", "--family", "24m", "--t", "6"]).jobs == 1
    assert cli.parse_args(["theorem", "lemma1"]).jobs == 1
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
def test_scan_set_matches_admissible_scan(member_builds, capsys, family, t, m_range):
    r = FAMILY_LABELS.index(family)
    lo, hi = m_range or (1, M_MAXES[r])
    args = ["scan", "--family", family, "--t", str(t), "--no-timestamp", "--format", "json"]
    if m_range:
        args += ["--m-min", str(lo), "--m-max", str(hi)]
    assert main(args) == 0
    data = json.loads(capsys.readouterr().out)
    assert member_builds == [(r, m) for m in range(lo, hi + 1)]  # one b per member
    assert data["surviving_set"] == admissible_scan(r, t, *(m_range or ()))
    assert data["rows"][-1]["ms"] == data["surviving_set"]


@pytest.mark.parametrize("family", FAMILY_LABELS)
def test_scan_lists_members_whose_block_size_is_below_the_strength(capsys, family):
    # m = 1 has k = 8 < 9 in every family; every larger m is scanned.
    r = FAMILY_LABELS.index(family)
    assert main(["scan", "--family", family, "--t", "9", "--no-timestamp",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    sets = [(row["label"], row["ms"]) for row in data["rows"] if row["row"] == "set"]
    assert sets == [("block size below strength", [1]), ("admissible", data["surviving_set"])]
    assert data["surviving_set"] == admissible_scan(r, 9)
    assert {row["m"] for row in data["rows"] if row["row"] == "lambda"} == set(
        range(2, M_MAXES[r] + 1))


def test_scan_strength_above_every_block_size(capsys):
    t = 10**20
    assert main(["scan", "--family", "24m", "--t", str(t), "--no-timestamp",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rows"] == [
        {"row": "set", "label": "block size below strength", "ms": list(range(1, 154))},
        {"row": "set", "label": "admissible", "ms": []},
    ]
    assert data["surviving_set"] == admissible_scan(0, t) == []


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


_OUT_CALLS = {
    "scan": ["scan", "--family", "24m+8", "--t", "152"],
    "gate": ["gate", "--family", "24m", "--m", "8", "--t", "7"],
    "theorem": ["theorem", "thm2"],
    "wenum": ["wenum", "--n", "48"],
}


# An --out whose directory is missing, and the empty path, which names no file.
@pytest.mark.parametrize("argv,out", [
    *((argv, "missing/x") for argv in _OUT_CALLS.values()),
    *((_OUT_CALLS[name], "") for name in ("gate", "theorem", "wenum")),
], ids=[*_OUT_CALLS, "gate-empty", "theorem-empty", "wenum-empty"])
def test_out_in_missing_directory_exits_3_before_the_work(tmp_path, capsys, monkeypatch, argv,
                                                          out):
    def no_work(args):
        raise AssertionError(f"{args.command} ran although --out cannot be written")

    monkeypatch.setitem(cli.COMMANDS, argv[0], (*cli.COMMANDS[argv[0]][:2], no_work))
    assert main(argv + ["--out", out]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"i/o error: [Errno 2] No such file or directory: {out!r}\n"
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize("argv", [
    ["gate", "--family", "24m", "--m", "8", "--t", "7"],
    ["theorem", "thm2"],
], ids=lambda argv: argv[0])
def test_out_naming_a_directory_exits_3_before_the_work(tmp_path, capsys, monkeypatch, argv):
    from designgate import gate, theorems

    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for module, name in ((gate, "integrality_gate"), (theorems, "run_theorem")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    assert main(argv + ["--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"i/o error: [Errno 21] Is a directory: '{tmp_path}'\n"
    assert calls == []
    assert not list((tmp_path / "store").rglob("gates.jsonl"))


def test_wenum(capsys):
    assert main(["wenum", "--n", "24"]) == 0
    out = capsys.readouterr().out
    assert "A_8 = 759" in out and "A_12 = 2576" in out and "A_24 = 1" in out
    assert "A_0 = 1" in out


def test_wenum_bad_n_exits_2(capsys):
    # The enumerator checks the length before any output; the CLI has no copy.
    for n, message in (("20", "length must be a positive multiple of 8, got 20"),
                       ("0", "length must be a positive multiple of 8, got 0"),
                       ("4000", "length 4000 exceeds the supported cap 3928")):
        assert main(["wenum", "--n", n]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("flag", [["--no-timestamp"], ["--format", "json"]])
def test_wenum_takes_only_out_and_exits_2_on_report_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["wenum", "--n", "24", *flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


def test_theorem_ids_offered_and_checked_by_the_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["theorem", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{lemma1,thm1,thm2,thm3,thm4,thm5.1,thm5.2}" in out
    # Each help page goes to stdout alone and lists what the table holds:
    # each subcommand with its help, or each option with its help and its
    # {choices}.  argparse may wrap a line, so words are compared.
    pages = {"": [(name, None, text) for name, (text, _, _) in cli.COMMANDS.items()]}
    pages.update((command, [(flag, kind, text) for flag, kind, _, text in opts])
                 for command, (_, opts, _) in cli.COMMANDS.items())
    for command, rows in pages.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"] if command else ["-h"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        words = " ".join(captured.out.split())
        for name, kind, text in rows:
            choices = "{%s}" % ",".join(kind) if type(kind) is tuple else ""
            assert (choices if name == "id" else f"{name} {choices}".rstrip()) in words
            assert " ".join((text or "").split()) in words
    with pytest.raises(SystemExit) as exc:
        main(["theorem", "thm9"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument id: invalid choice: 'thm9'" in captured.err


# SHA-256 of stdout, with the exit code, for a sample of calls: non-integral
# lambdas, a FAIL_NONINTEGER gate in each format, a PRE-GATE FAIL gate, a scan
# per family and rejected input.
CLI_GOLDEN = {
    "lambda --family 24m --m 1 --t 8":
        (0, "92ecf5a78e4113b895468398c352618c5c08a1082eaebb7af154d6fa8bfcd242"),
    "lambda --family 24m --m 8 --t 7":
        (0, "37843f7d960f7e5cbbcfde4957d639989ad6f775a7dc5316d2148dc1966d7ec4"),
    "lambda --family 24m+8 --m 0 --t 3":
        (0, "4bf88721a49809236bce6c1e3c03b1b5d23a46a52294e5e97d452882ad12ddaa"),
    "lambda --family 24m+16 --m 23 --t 5":
        (0, "d848ba0c2e1ab16fd8111297a431b0f522cc97b5faed6de55e6cbc1248359802"),
    "lambda --family 24m --m 154 --t 6":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "gate --family 24m --m 8 --t 7 --no-timestamp":
        (0, "e29a343ba38c166d1a9fc54bb4582d12c29838c5c28af308c9d4876c320fc314"),
    "gate --family 24m --m 8 --t 7 --no-timestamp --format csv":
        (0, "99d41a6e390b9e0577fcf6d86ac373c791dc795d8c0abd778777b2547545cf84"),
    "gate --family 24m --m 8 --t 7 --no-timestamp --format json":
        (0, "98050f5cc0552bafa4ea7a85095b3e6992284e0184e2baf9cd4aa8d1e2fa6da3"),
    "gate --family 24m --m 1 --t 6 --no-timestamp":
        (0, "b4095e649db3197cb0cbec8833bd3e9a997c553d70e46a5b7e5c7da92394825d"),
    "gate --family 24m --m 7 --t 7 --no-timestamp --format json":
        (0, "7aa99db96b56ea734bad9f51142d9001bb900e58a0989c40b403b07e251db408"),
    "gate --family 24m+8 --m 58 --t 7 --no-timestamp":
        (0, "8b2c889b02effd567c69b74773da2aa1e8d49abfb7f2f9a7424d975fb3c8362c"),
    "gate --family 24m+16 --m 23 --t 5 --u 100 --no-timestamp --format csv":
        (0, "354531678bb12bff3c2f4d5b8eb9323af844d3f004c40661275ff02bf0a80161"),
    "gate --family 24m --m 8 --t 7 --u 37":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "scan --family 24m --t 6 --no-timestamp":
        (0, "43456894bcf4cf8a960763ceb1ba1509585bddceecf3c0569eaf8bd2aee3a6d1"),
    "scan --family 24m+8 --t 5 --no-timestamp --format csv":
        (0, "ef91444bd5519bd145ff64f51d198e553a68106540d4bc97620dff97c90a8fac"),
    "scan --family 24m+16 --t 4 --no-timestamp --format json":
        (0, "f493323dd5a29f7ded5df0d0004f26aa006f94bc1249bebd4b4da8baa3a841e7"),
    "scan --family 24m --t 8 --m-min 40 --m-max 90 --no-timestamp --format json":
        (0, "e13efda4a6e3cdd9ea3988e63b406176ec3b983bf9a0dc11f69fa8d535d15bba"),
    "scan --family 24m+8 --t 3 --m-max 10 --no-timestamp":
        (0, "cd27398309185745cbfd8c8a332634475e469f11255fac54241bc749cb699d84"),
    "scan --family 24m --t 6 --m-min 5 --m-max 3":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "wenum --n 24":
        (0, "30ba6e4d9f66c9e81e1bea1d38495eca56a88813eb39501edbec633e98f839c3"),
    "wenum --n 48":
        (0, "e55eb0ec11cd0c6687126d5c3eb4f94cb4e1cafe718279817b0b3f8f0573c808"),
    "wenum --n 20":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("args", CLI_GOLDEN)
def test_cli_output_matches_golden_digests(capsys, args):
    code = main(args.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == CLI_GOLDEN[args]


# The checker does not model a gate whose level counts fail; those two
# golden calls stay digest-only.
PRE_GATE_FAILS = ("gate --family 24m --m 1 --t 6 --no-timestamp",
                  "gate --family 24m --m 7 --t 7 --no-timestamp --format json")


@pytest.mark.parametrize("args", [args for args, (code, _) in CLI_GOLDEN.items()
                                  if code == 0 and args not in PRE_GATE_FAILS])
def test_cli_golden_sample_matches_the_independent_checker(capsys, args):
    ns = cli.parse_args(args.split())
    assert main(args.split()) == 0
    out = capsys.readouterr().out
    if ns.command == "wenum":
        assert checker.check_wenum(out, ns.n) is None
        return
    r = FAMILY_LABELS.index(ns.family)
    if ns.command == "lambda":
        assert out.splitlines() == checker.lambda_lines(r, ns.m, ns.t)
        return
    if ns.command == "gate":
        want = checker.gate_report(r, ns.m, ns.t, 4 * ns.m + 4 if ns.u is None else ns.u)
    else:
        want = checker.scan_report(r, ns.t, ns.m_min or 1, ns.m_max or M_MAXES[r])
    assert checker.parse_report(out, ns.format) == checker.project(want, ns.format)


def _number(near):
    """Mostly a value near the valid range, one time in four any in +-10**25."""
    return st.tuples(st.integers(0, 3), near, st.integers(-10**25, 10**25)).map(
        lambda c: str(c[1] if c[0] else c[2]))


_M, _T = _number(st.integers(-2, 170)), _number(st.integers(-1, 14))
_FLAGS = {
    "lambda": (("--m", _M, True), ("--t", _T, True)),
    "scan": (("--t", _T, True), ("--m-min", _M, False), ("--m-max", _M, False),
             ("--jobs", _number(st.integers(-1, 3)), False)),
    "gate": (("--m", _M, True), ("--t", _T, True),
             ("--u", _number(st.integers(-1, 200).map(lambda x: 4 * x)), False)),
    "wenum": (("--n", _number(st.integers(-1, 130).map(lambda x: 8 * x)), True),),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    if command != "wenum":
        argv += ["--family", draw(st.sampled_from(FAMILY_LABELS))]
    for flag, value, required in _FLAGS[command]:
        if required or draw(st.booleans()):
            argv += [flag, draw(value)]
    if command in ("scan", "gate"):
        if draw(st.booleans()):
            argv += ["--format", draw(st.sampled_from(FORMATS))]
        if draw(st.booleans()):
            argv.append("--no-timestamp")
    return argv


@settings(max_examples=150)
@given(argv=_argv(), out=st.sampled_from([None, "file", "missing-dir"]))
@example(argv=["scan", "--family", "24m", "--t", "99999999999999999999"], out=None)
@example(argv=["lambda", "--family", "24m", "--m", "8", "--t", "7", "--format", "json"],
         out=None)
def test_cli_exits_0_with_output_or_2_and_3_with_none(argv, out):
    # Every call prints complete output and exits 0, or rejects its input
    # (2) or its --out path (3) with nothing on stdout; no traceback.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("nope" if out == "missing-dir" else "") / "out.txt"
        if argv[0] == "lambda":  # the one subcommand without --out
            out = None
        if out is not None:
            argv = argv + ["--out", str(path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # the parser refusing the argv
                code = exc.code
                assert code == 2, stderr.getvalue()
        if code == 0:
            written = stdout.getvalue() if out is None else path.read_text()
            assert written
            assert out is None or stdout.getvalue() == ""
        else:
            assert code in (2, 3), stderr.getvalue()
            assert stdout.getvalue() == ""
            assert stderr.getvalue()


def _parsed(parse, argv):
    """What ``parse(argv)`` does: ("ok", values), ("help", whether the help
    went to stdout alone) or ("error", exit code, stdout, last stderr line)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            values = vars(parse(argv))
        except SystemExit as exc:
            if exc.code == 0:
                return "help", bool(stdout.getvalue()) and not stderr.getvalue()
            return "error", exc.code, stdout.getvalue(), stderr.getvalue().splitlines()[-1]
    return "ok", values


def _oracle(argv):
    return cli_oracle.build_parser().parse_args(argv)


# argv the parser refuses, and the last line of its stderr, as argparse has it.
PARSER_ERRORS = {
    "": "designgate: error: the following arguments are required: command",
    "foo": "designgate: error: argument command: invalid choice: 'foo' "
           "(choose from 'lambda', 'scan', 'gate', 'theorem', 'wenum')",
    "gate": "designgate gate: error: the following arguments are required: --family, --m, --t",
    "gate --family x": "designgate gate: error: argument --family: invalid choice: 'x' "
                       "(choose from '24m', '24m+8', '24m+16')",
    "theorem thm9": "designgate theorem: error: argument id: invalid choice: 'thm9' (choose "
                    "from 'lemma1', 'thm1', 'thm2', 'thm3', 'thm4', 'thm5.1', 'thm5.2')",
    "gate --m x": "designgate gate: error: argument --m: invalid int value: 'x'",
    "gate --m=": "designgate gate: error: argument --m: invalid int value: ''",
    "gate --m --t": "designgate gate: error: argument --m: expected one argument",
    "gate --m -x": "designgate gate: error: argument --m: expected one argument",
    "gate --m 8 --f 24m": "designgate gate: error: ambiguous option: --f could match "
                          "--family, --format",
    "gate --m x --f 24m": "designgate gate: error: ambiguous option: --f could match "
                          "--family, --format",
    "gate --no-timestamp=x": "designgate gate: error: argument --no-timestamp: "
                             "ignored explicit argument 'x'",
    "gate -hx": "designgate gate: error: argument -h/--help: ignored explicit argument 'x'",
    "--bogus wenum --n 8 extra1 -- extra2": "designgate: error: unrecognized arguments: "
                                            "--bogus extra1 -- extra2",
    "wenum extra1 --bogus extra2 --n 8": "designgate: error: unrecognized arguments: "
                                         "extra1 --bogus extra2",
    "theorem thm2 -- x": "designgate: error: unrecognized arguments: x",
    "-- wenum --n 8": "designgate: error: argument command: invalid choice: '--' "
                      "(choose from 'lambda', 'scan', 'gate', 'theorem', 'wenum')",
}


@pytest.mark.parametrize("argv", PARSER_ERRORS)
def test_parser_error_lines(argv):
    want = ("error", 2, "", PARSER_ERRORS[argv])
    assert _parsed(cli.parse_args, argv.split()) == _parsed(_oracle, argv.split()) == want


@pytest.mark.parametrize("argv,values", [
    ("theorem --t 5 thm5.1", {"id": "thm5.1", "t": 5}),
    ("theorem -- thm5.1", {"id": "thm5.1", "t": None}),
    ("gate --fam=24m --m -5 --t 7 --t=8 --no-t --u 10000000000000000000000000",
     {"family": "24m", "m": -5, "t": 8, "u": 10**25, "no_timestamp": True}),
])
def test_parser_reads_like_argparse(argv, values):
    status, got = _parsed(cli.parse_args, argv.split())
    assert (status, got) == _parsed(_oracle, argv.split())
    assert values.items() <= got.items()


_ALL_FLAGS = sorted({flag for _, opts, _ in cli.COMMANDS.values() for flag, *_ in opts
                     if flag.startswith("-")} | {"-h", "--help"})
_VALUES = st.one_of(
    st.integers(-3, 200).map(str), st.integers(-10**25, 10**25).map(str),
    st.sampled_from(FAMILY_LABELS + THEOREM_IDS + FORMATS),
    st.sampled_from(["", "x", "1e3", " 5", "-1.5", "a b", "-x y", "-", "-x", "-hh", "-hx", "-h="]))
_PREFIXES = st.sampled_from(_ALL_FLAGS).flatmap(
    lambda flag: st.integers(2, len(flag)).map(lambda k: flag[:k]))
_TOKENS = st.one_of(
    st.sampled_from(list(cli.COMMANDS)), st.sampled_from(_ALL_FLAGS), _PREFIXES,
    st.tuples(_PREFIXES, _VALUES).map("=".join), _VALUES,
    st.sampled_from(["-h", "--help", "--bogus", "extra", "--"]))


@st.composite
def _parser_argv(draw):
    """A subcommand and some of its options, each a flag and a value most
    often of the right kind, shuffled, with a few tokens of any kind."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    words = []
    for flag, kind, _, _ in cli.COMMANDS[command][1]:
        if draw(st.integers(0, 3)):
            value = (draw(st.sampled_from(kind)) if type(kind) is tuple
                     else draw(_VALUES) if draw(st.integers(0, 4)) == 0
                     else str(draw(st.integers(-2, 70))))
            words.append([value] if flag[0] != "-" else [flag] if kind is None
                         else [flag, value])
    words = draw(st.permutations(words))
    noise = draw(st.lists(st.tuples(st.integers(0, len(words)), _TOKENS), max_size=2))
    for at, token in noise:
        words.insert(at, [token])
    return [command] + [word for group in words for word in group]


@settings(max_examples=400)
@given(argv=st.one_of(_parser_argv(), st.lists(_TOKENS, max_size=8)))
def test_parser_agrees_with_argparse(argv):
    # The oracle reads --flag=-- as an empty list, which the CLI refuses
    # (test_flag_joined_to_a_double_dash_is_refused); the joins drawn here
    # never carry '--' as a value.
    assert _parsed(cli.parse_args, argv) == _parsed(_oracle, argv)


# argparse reads --flag=-- as an empty list; the CLI refuses it as an option
# without its value, before any output, file or store record is written.
@pytest.mark.parametrize("argv", ["gate --family 24m --m=-- --t 7", "gate --family=-- --m 8 --t 7",
                                  "theorem thm2 --format=--",
                                  "gate --family 24m --m 8 --t 7 --out=--"])
def test_flag_joined_to_a_double_dash_is_refused(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    flag = argv.partition("=--")[0].split()[-1]
    assert captured.err.splitlines()[-1] == (f"designgate {argv.split()[0]}: error: "
                                             f"argument {flag}: expected one argument")
    assert not (tmp_path / "--").exists()
    assert not (tmp_path / "store").exists()
