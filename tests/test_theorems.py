import hashlib
import json

import checker
import pytest

from designgate import reference_sets as ref
from designgate.families import admissible_scan
from designgate.report import render
from designgate.theorems import THEOREM_IDS, run_theorem


def _sets(report):
    return {row["label"]: row["ms"] for row in report.rows if row["row"] == "set"}


def test_lemma1():
    out = run_theorem("lemma1", timestamp=False)
    assert out.report.surviving_set == list(ref.LEMMA1_M)
    assert not out.mismatches


def test_thm2_eliminations_and_quotients():
    out = run_theorem("thm2", timestamp=False)
    assert not out.mismatches
    sets = _sets(out.report)
    assert sets["eliminated by u=k gate"] == list(ref.THM2_ELIMINATED)
    gate_rows = {row["m"]: row for row in out.report.rows if row["row"] == "gate"}
    assert len(gate_rows) == 39
    for m, want in ref.TABLE1_QUOTIENTS.items():
        assert gate_rows[m]["quotient"] == f"{want.numerator}/{want.denominator}"
        assert gate_rows[m]["verdict"] == "FAIL_NONINTEGER"


def test_thm3_eliminations_and_quotients():
    out = run_theorem("thm3", timestamp=False)
    assert not out.mismatches
    sets = _sets(out.report)
    assert sets["eliminated by u=k+4 gate"] == list(ref.THM3_ELIMINATED)
    rows_k4 = [row for row in out.report.rows
               if row["row"] == "gate" and row["u"] == 4 * row["m"] + 8]
    assert len(rows_k4) == 27
    by_m = {row["m"]: row for row in rows_k4}
    for m, want in ref.TABLE2_QUOTIENTS.items():
        assert by_m[m]["quotient"] == f"{want.numerator}/{want.denominator}"


def test_thm1_survivors_and_identity():
    out = run_theorem("thm1", timestamp=False)
    assert not out.mismatches
    assert out.report.surviving_set == list(ref.THM1_SURVIVORS)
    assert len(ref.LEMMA1_M) - 12 - 9 == len(ref.THM1_SURVIVORS) == 18


def test_thm4_conclusion():
    out = run_theorem("thm4", timestamp=False)
    assert not out.mismatches
    assert out.report.surviving_set == []
    sets = _sets(out.report)
    assert sets["lambda_8-integral candidates"] == list(ref.LAMBDA8_CANDIDATES)
    assert sets["not yet eliminated"] == [63]
    m63 = [row for row in out.report.rows
           if row["row"] == "gate" and row["m"] == 63 and row["t"] == 8]
    assert [row["u"] for row in m63] == [256, 260]
    assert m63[0]["verdict"] == "PASS"       # honest u=k quotient is integral
    assert m63[1]["verdict"] == "FAIL_NONINTEGER"


def test_thm51_all_stages():
    out = run_theorem("thm5.1", timestamp=False)
    assert not out.mismatches
    sets = _sets(out.report)
    for t, want in ref.THM51_SETS.items():
        assert sets[f"t={t} survivors"] == list(want)


def test_thm51_upto_t7():
    out = run_theorem("thm5.1", timestamp=False, upto_t=7)
    assert out.report.surviving_set == [58]
    assert not out.mismatches


def test_thm52_stages_with_known_discrepancy():
    # The drivers compute honestly; the reference sets at t = 4 and t = 5
    # omit m = 23, which no lambda condition or gate eliminates, so those two
    # stages must report a mismatch consisting of exactly that m.
    out = run_theorem("thm5.2", timestamp=False)
    sets = _sets(out.report)
    assert sets["t=3 survivors"] == list(ref.THM52_SETS[3])
    assert sets["t=4 survivors"] == sorted(set(ref.THM52_SETS[4]) | {23})
    assert sets["t=5 survivors"] == sorted(set(ref.THM52_SETS[5]) | {23})
    assert sets["t=6 survivors"] == []
    assert len(out.mismatches) == 2
    assert all("extra m: [23]" in m for m in out.mismatches)


def test_thm52_t3_exact():
    out = run_theorem("thm5.2", timestamp=False, upto_t=3)
    assert out.report.surviving_set == list(ref.THM52_SETS[3])
    assert not out.mismatches


def test_unknown_id_rejected():
    with pytest.raises(ValueError):
        run_theorem("thm9")
    with pytest.raises(ValueError):
        run_theorem("thm1", upto_t=7)


def test_all_ids_exposed():
    assert THEOREM_IDS == ("lemma1", "thm1", "thm2", "thm3", "thm4", "thm5.1", "thm5.2")


# SHA-256 of render(run_theorem(id, timestamp=False, upto_t=t).report, fmt),
# taken from the drivers before the family-24m chain became a staged ladder.
GOLDEN = {
    ("lemma1", None): {
        "table": "83328152f770805c4e60132caac048cba4431f7f9042c19520716097f18298fb",
        "csv": "7493ada3d042645519d21fa731ad143193718098a0138a6e6e331b2df3b11af0",
        "json": "936da130fd70820b4104b20cf0fe49ae357f1e5c61157ef84a687ae15b140e15"},
    ("thm1", None): {
        "table": "3d49d255b4eafc6ceb0a92930736dfc6b23e802d48cf3c4d78dbde3b00fe015d",
        "csv": "922383e5058317be509b845527af4691b2d32f0fef5ae305480bfc80b420b85e",
        "json": "ff4e9f625a09a554c81460bca27e73063e79812e490711c3939bd0ae515591c6"},
    ("thm2", None): {
        "table": "e001a4444e2e5f042dbd48b3e7740646a4e75540120965c4d9d09b05a663c44c",
        "csv": "4e2e4fb8640f839def63c90231ea34609fb08d7ea30459aa944367aabdb5c012",
        "json": "67cfa06542f600b93252869eef4ebeec0381eddd539211872c0227744185e7e5"},
    ("thm3", None): {
        "table": "aa830d7fc099ff31ce7f5ec1419c5e61d22c58a19c498abafc8a9e4b3e3a2e19",
        "csv": "bbf0761427a5a7892ea2a113207922971bd5197ab173549c517f9cb24f414701",
        "json": "afd81d803ca4e7c9c74f9555717e0e6e7bd89835551f8824657180af6d3fbb02"},
    ("thm4", None): {
        "table": "3b7dc0ecb096dcf57f211261fddc6919f255bd1b0911113eb59a5ae88613f975",
        "csv": "154a7cf9426d1771a0637cfe14514dcba6d07dff9bce6796e92b924cb9fbc743",
        "json": "fa15a2514fde41a98b3b9d5698d44f90372d31fb949c200a892167005fed8fd6"},
    ("thm5.1", None): {
        "table": "41d6714ae8ab9252e01a8e61035cd77b24a8bcd830348bf8b75577f4d07f14d8",
        "csv": "bff87b498df9bc6de67ac0fe5350e6baade692d8b47d253763753a06a12d308d",
        "json": "94f8a85654284deb8a69712f16a80b66b456aaf74879326e2d29718dd88680a0"},
    ("thm5.2", None): {
        "table": "6c462ff4a07df7de8baa8aed335b0850570ed3ed02d00b6517075e76e5a421fb",
        "csv": "b5cf51094f4b48a315fa08760d904fec2764b72f7ba3534e325502daf27b81fa",
        "json": "4d10e3ef342015333f9393cdb59cb88c6ac852cd6e6fea6e83389bad7046e2f8"},
    ("thm5.1", 7): {
        "table": "5d66e6ed3ecba7574e7b7850f8ea803644816698f1cd770ce282034959ffe4ba",
        "csv": "32e39bc981b2feb183dd6baf70e8b918fa4949a2a056d7df5ccfe480de3e79fd",
        "json": "aad31079a30c127202204c6fdcf8da249701f11ae687aae426a7cf1c38dac397"},
    ("thm5.2", 3): {
        "table": "beaf7961f1c3d82cca872f6edad55b0812169e2abed76ae3db808725da9b7087",
        "csv": "635fd2673f9640b87fd5efe728f1b82d9b327528df9a5b9062c84dcc061df36c",
        "json": "7adbcc17bf7c209f309627a1a6d817c4c081ef5ebec3d32a4b925ddd83886167"},
}


@pytest.mark.parametrize("theorem_id,upto_t", GOLDEN)
def test_driver_output_matches_golden_digests(theorem_id, upto_t):
    report = run_theorem(theorem_id, timestamp=False, upto_t=upto_t).report
    digests = {fmt: hashlib.sha256(render(report, fmt).encode()).hexdigest()
               for fmt in GOLDEN[theorem_id, upto_t]}
    assert digests == GOLDEN[theorem_id, upto_t]


@pytest.fixture(scope="module")
def checker_reports():
    return checker.theorem_reports(ref)


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_driver_report_matches_the_independent_checker(checker_reports, theorem_id):
    # The checker spells out each rung's lambda levels and shares no code
    # with designgate, so it also guards the rungs' derived levels.
    outcome = run_theorem(theorem_id, timestamp=False)
    expected, mismatches = checker_reports[theorem_id]
    assert json.loads(render(outcome.report, "json")) == expected
    assert len(outcome.mismatches) == mismatches
    for fmt in ("csv", "table"):
        got = checker.parse_report(render(outcome.report, fmt), fmt)
        assert got == checker.project(expected, fmt), fmt


@pytest.mark.parametrize("theorem_id,r,t", [("thm1", 0, 6), ("thm5.2", 2, 3)])
def test_vacuous_next_weight_gate_raises(monkeypatch, theorem_id, r, t):
    # The first member to reach a gate is the first of the stage's lambda scan.
    first = admissible_scan(r, t)[0]
    monkeypatch.setattr("designgate.theorems.next_weight_count", lambda n: 0)
    with pytest.raises(ValueError, match=rf"vacuous u = k \+ 4 gate at m = {first}\b"):
        run_theorem(theorem_id, timestamp=False)
