import hashlib
import json
from fractions import Fraction
from itertools import count

import checker
import pytest

from designgate import cli, families, theorems
from designgate import reference_sets as ref
from designgate.families import admissible_scan
from designgate.gleason import next_weight_count
from designgate.report import render
from designgate.theorems import DRIVERS, THEOREM_IDS, run_theorem


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


# Each reference the drivers read, perturbed so that every kind of mismatch
# line shows: extra and missing m, a quotient that differs, and two quotient
# lines in one view, to pin their order.
M, K, K4, S7 = (list(ref.LEMMA1_M), list(ref.THM2_ELIMINATED), list(ref.THM3_ELIMINATED),
                list(ref.THM1_SURVIVORS))
S51, S52 = list(ref.THM51_SETS[5]), list(ref.THM52_SETS[3])
PERTURBED = {
    "LEMMA1_M": tuple(M[1:] + [154]),
    "THM2_ELIMINATED": tuple([9] + K[1:]),
    "THM3_ELIMINATED": tuple(K4[1:]),
    "TABLE1_QUOTIENTS": {**ref.TABLE1_QUOTIENTS, 8: Fraction(1569595841, 8)},
    "TABLE2_QUOTIENTS": {**ref.TABLE2_QUOTIENTS, 5: Fraction(9009, 8), 19: Fraction(1, 8)},
    "THM1_SURVIVORS": tuple([1] + S7),
    "LAMBDA8_CANDIDATES": (8, 42, 75, 130),
    "THM51_SETS": {**ref.THM51_SETS, 5: tuple(S51[1:]), 7: (), 8: (1,)},
    "THM52_SETS": {**ref.THM52_SETS, 3: tuple(S52[1:]), 6: (2,)},
}
LINES_24M = [
    f"lambda-admissible set: computed {M} != reference {M[1:] + [154]} "
    "(extra m: [5]; missing m: [154])",
    f"u=k eliminated: computed {K} != reference {[9] + K[1:]} (extra m: [8]; missing m: [9])",
    "u=k quotient at m=8: 1569595833/8 != reference 1569595841/8",
    f"u=k+4 eliminated: computed {K4} != reference {K4[1:]} (extra m: [5])",
    "u=k+4 quotient at m=5: 9009/4 != reference 9009/8",
    "u=k+4 quotient at m=19: 10290542185356908976248643/8 != reference 1/8",
]
T4, T5 = list(ref.THM52_SETS[4]), list(ref.THM52_SETS[5])
MISMATCH_LINES = {
    "lemma1": LINES_24M[:1],
    "thm2": LINES_24M[:3],
    "thm3": LINES_24M,
    "thm1": LINES_24M + [f"surviving set: computed {S7} != reference {[1] + S7} "
                         "(missing m: [1])"],
    "thm4": LINES_24M + ["lambda_8 candidates: computed [8, 42, 63, 75, 130] != reference "
                         "[8, 42, 75, 130] (extra m: [63])"],
    "thm5.1": [f"stage t=5: computed {S51} != reference {S51[1:]} (extra m: [15])",
               "stage t=7: computed [58] != reference [] (extra m: [58])",
               "stage t=8: computed [] != reference [1] (missing m: [1])"],
    "thm5.2": [f"stage t=3: computed {S52} != reference {S52[1:]} (extra m: [5])",
               f"stage t=4: computed {sorted(T4 + [23])} != reference {T4} (extra m: [23])",
               f"stage t=5: computed {sorted(T5 + [23])} != reference {T5} (extra m: [23])",
               "stage t=6: computed [] != reference [2] (missing m: [2])"],
}


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_mismatch_lines_under_a_perturbed_reference(monkeypatch, theorem_id):
    for name, value in PERTURBED.items():
        monkeypatch.setattr(ref, name, value)
    outcome = run_theorem(theorem_id, timestamp=False)
    assert outcome.mismatches == [f"{theorem_id} {line}" for line in MISMATCH_LINES[theorem_id]]


def test_unknown_id_rejected():
    with pytest.raises(ValueError, match=r"^unknown id 'thm9'; expected one of \("):
        run_theorem("thm9")
    with pytest.raises(ValueError, match=r"^--t staging only applies to thm5\.1 / thm5\.2$"):
        run_theorem("thm1", upto_t=7)
    with pytest.raises(ValueError, match=r"^thm5\.1 starts at strength 5; --t 4 is below it$"):
        run_theorem("thm5.1", upto_t=4)
    with pytest.raises(ValueError, match=r"^thm5\.2 starts at strength 3; --t 2 is below it$"):
        run_theorem("thm5.2", upto_t=2)
    # An inexact strength is refused by name; 5.5 used to give the t = 5 report.
    for upto_t in (5.5, 5.0, "6"):
        with pytest.raises(TypeError, match=rf"^upto_t = {upto_t!r}: an exact int is required$"):
            run_theorem("thm5.1", upto_t=upto_t)
    with pytest.raises(ValueError, match=r"^thm5\.1 starts at strength 5; --t True is below it$"):
        run_theorem("thm5.1", upto_t=True)  # a bool stays accepted


def test_all_ids_exposed():
    assert THEOREM_IDS == ("lemma1", "thm1", "thm2", "thm3", "thm4", "thm5.1", "thm5.2")


def test_driver_table_lists_the_ids_the_cli_offers():
    # The CLI offers families.THEOREM_IDS without importing the drivers
    # (test_imports pins that), so the driver table must hold exactly those
    # ids, in that order.
    assert tuple(DRIVERS) == THEOREM_IDS == families.THEOREM_IDS
    (_, choices, _, _), *_ = cli.COMMANDS["theorem"][1]
    assert choices == THEOREM_IDS


# Each driver family's ladder in the checker's terms: per rung, the lambda
# levels it adds and its gates as (offset length, u - k), in order.  Family
# 24m spells out the paper's chain; the staged families read checker.LADDERS.
CHECKER_24M = (((6, 7), ((7, 0),)), ((), ((7, 4),)), ((8,), ((8, 0), (8, 4))))


# How many of the family-24m rungs each driver climbs: up to the highest rung
# that one of its views reads.
RUNGS_CLIMBED_24M = {"lemma1": 0, "thm2": 1, "thm1": 2, "thm3": 2, "thm4": 3}


def _checker_ladder(theorem_id, upto_t):
    if theorem_id not in checker.LADDERS:
        return 0, CHECKER_24M[:RUNGS_CLIMBED_24M[theorem_id]]
    r, stages = checker.LADDERS[theorem_id]
    return r, tuple((levels, tuple((l, d) for l in ls for d in (0, 4)))
                    for t, levels, ls in stages if upto_t is None or t <= upto_t)


def _checker_climb(r, m, ladder):
    """m's terminal record (stop rung, first non-count level, failing gate's
    (t, u, quotient) or None) and its gates as (rung, (m, t, u, quotient)),
    all by the checker's route."""
    k = checker.Member(r, m).k
    level = next(i for i in count() if not checker.is_count(checker.level(r, m, i)))
    gates = []
    for i, (levels, rung_gates) in enumerate(ladder):
        if not checker.levels_pass(r, m, levels):
            return (i, level, None), gates
        for l, d in rung_gates:
            q = checker.gate(r, m, l, k + d)[1]
            gates.append((i, (m, l, k + d, q)))
            if q.denominator != 1:
                return (i, level, (l, k + d, q)), gates
    return (len(ladder), level, None), gates


@pytest.mark.parametrize("theorem_id,upto_t", [(tid, None) for tid in THEOREM_IDS] + [
    ("thm5.1", t) for t in range(5, 9)] + [("thm5.2", t) for t in range(3, 7)])
def test_terminal_records_match_the_independent_checker(monkeypatch, theorem_id, upto_t):
    # The driver's one ladder run, read through a spy on _run_ladder, gives
    # every m the rung where it stops, its first non-count lambda level and
    # its failing gate; the checker climbs its own ladder to the same record.
    runs, real = [], theorems._run_ladder

    def spy(r, rungs):
        runs.append((r, real(r, rungs)))
        return runs[-1][1]

    monkeypatch.setattr(theorems, "_run_ladder", spy)
    run_theorem(theorem_id, timestamp=False, upto_t=upto_t)
    [(r, (records, gates))] = runs
    want_r, ladder = _checker_ladder(theorem_id, upto_t)
    assert r == want_r
    want_records, want_gates = {}, []
    for m in range(1, checker.M_MAX[r] + 1):
        want_records[m], climbed = _checker_climb(r, m, ladder)
        want_gates += climbed
    got = {m: (stop, level, None if res is None else (res.t, res.u, res.quotient))
           for m, (stop, level, res) in records.items()}
    assert got == want_records
    by_rung = sorted(((i, (res.m, res.t, res.u, res.quotient)) for i, res in gates),
                     key=lambda g: g[0])
    assert by_rung == sorted(want_gates, key=lambda g: g[0])


# SHA-256 of render(run_theorem(id, timestamp=False, upto_t=t).report, fmt),
# taken from the drivers before the family-24m chain became a staged ladder;
# the --t entries other than thm5.1 --t 7 and thm5.2 --t 3 were taken before
# its strength-7 gates at u = k and u = k + 4 became two rungs.
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
    ("thm5.1", 5): {
        "table": "193f0f9986fe565aa682abaafe2da2bc0e4a5f205d7c1788790b3d1bba65e8b8",
        "csv": "16d22d927fdea59aaf178648e0e773d673620596833dc37927fe3e97eed5e8e8",
        "json": "0a9b89abe1c65232d6a014a5769aa4219c6a589e684e290f03983423c53ef0d6"},
    ("thm5.1", 6): {
        "table": "301def5be8c763b6d3c508057949a34e7967feb636fb0e435de402c31ce57896",
        "csv": "864efef4ae3b57e20e069fb4720e33732578d4db5c16e99277a2c6c2db7b97bc",
        "json": "8498fea6052082e6a69c05e5656d50994a7cd7efc1e45d5c809077890b15dfdc"},
    ("thm5.1", 7): {
        "table": "5d66e6ed3ecba7574e7b7850f8ea803644816698f1cd770ce282034959ffe4ba",
        "csv": "32e39bc981b2feb183dd6baf70e8b918fa4949a2a056d7df5ccfe480de3e79fd",
        "json": "aad31079a30c127202204c6fdcf8da249701f11ae687aae426a7cf1c38dac397"},
    ("thm5.1", 8): {
        "table": "41d6714ae8ab9252e01a8e61035cd77b24a8bcd830348bf8b75577f4d07f14d8",
        "csv": "bff87b498df9bc6de67ac0fe5350e6baade692d8b47d253763753a06a12d308d",
        "json": "94f8a85654284deb8a69712f16a80b66b456aaf74879326e2d29718dd88680a0"},
    ("thm5.1", 9): {
        "table": "41d6714ae8ab9252e01a8e61035cd77b24a8bcd830348bf8b75577f4d07f14d8",
        "csv": "bff87b498df9bc6de67ac0fe5350e6baade692d8b47d253763753a06a12d308d",
        "json": "94f8a85654284deb8a69712f16a80b66b456aaf74879326e2d29718dd88680a0"},
    ("thm5.2", 3): {
        "table": "beaf7961f1c3d82cca872f6edad55b0812169e2abed76ae3db808725da9b7087",
        "csv": "635fd2673f9640b87fd5efe728f1b82d9b327528df9a5b9062c84dcc061df36c",
        "json": "7adbcc17bf7c209f309627a1a6d817c4c081ef5ebec3d32a4b925ddd83886167"},
    ("thm5.2", 4): {
        "table": "8c6a2a26638e97d68d096de1ee68804aaf753464a9492474d6b87b274573d61a",
        "csv": "da2985117497e1d7f41417826fb4992897c923194e538612be275d9a2dc6d728",
        "json": "755408dd8fa41b0f6b2c080bb05cc7b5a443fcb5ff4997f6ea99c77aedd0fc2a"},
    ("thm5.2", 5): {
        "table": "5c50afdbab913f1da03988ef7def2362a49e0dc19c39f440e638aa79375e4fe3",
        "csv": "965e42a1c1fd6f8fefe0cd77e037bdbe15b41c656ada4b4609bdbf708e30f2ca",
        "json": "2905b9f7caf0bebcfff7eb09517dd88306ddd7da3a6df59d3f89fc2c49b5bf40"},
    ("thm5.2", 6): {
        "table": "6c462ff4a07df7de8baa8aed335b0850570ed3ed02d00b6517075e76e5a421fb",
        "csv": "b5cf51094f4b48a315fa08760d904fec2764b72f7ba3534e325502daf27b81fa",
        "json": "4d10e3ef342015333f9393cdb59cb88c6ac852cd6e6fea6e83389bad7046e2f8"},
    ("thm5.2", 7): {
        "table": "6c462ff4a07df7de8baa8aed335b0850570ed3ed02d00b6517075e76e5a421fb",
        "csv": "b5cf51094f4b48a315fa08760d904fec2764b72f7ba3534e325502daf27b81fa",
        "json": "4d10e3ef342015333f9393cdb59cb88c6ac852cd6e6fea6e83389bad7046e2f8"},
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


@pytest.mark.parametrize("theorem_id,r,t", [
    ("lemma1", 0, 6), ("thm1", 0, 6), ("thm2", 0, 6), ("thm3", 0, 6), ("thm4", 0, 6),
    ("thm5.1", 1, 5), ("thm5.2", 2, 3)])
def test_vacuous_next_weight_gate_raises(monkeypatch, theorem_id, r, t):
    # The first member to reach a u = k + 4 gate is the first of the first
    # rung's lambda scan (in family 24m, that member passes the u = k rung
    # first).  lemma1 and thm2 stop their ladder below the u = k + 4 rung, so
    # they never ask for A_{k+4} and give their usual report.
    first, calls = admissible_scan(r, t)[0], []
    monkeypatch.setattr("designgate.theorems.next_weight_count",
                        lambda n: calls.append(n) or 0)  # A_{k+4} = 0
    if theorem_id in ("lemma1", "thm2"):
        report = run_theorem(theorem_id, timestamp=False).report
        assert calls == []
        assert hashlib.sha256(render(report, "json").encode()).hexdigest() == GOLDEN[
            theorem_id, None]["json"]
        return
    with pytest.raises(ValueError, match=rf"vacuous u = k \+ 4 gate at m = {first}\b"):
        run_theorem(theorem_id, timestamp=False)


@pytest.mark.parametrize("r,calls", [(0, 27), (1, 24), (2, 36)])
def test_ladder_asks_for_next_weight_count_once_per_member_at_its_k4_rungs(
        monkeypatch, r, calls):
    # A member asks once, at the first rung that gates at u = k + 4 and whose
    # lambda filter it passes: a later stop, or a stop there past lambda_t.
    lengths = []

    def counting(n):
        lengths.append(n)
        return next_weight_count(n)

    monkeypatch.setattr("designgate.theorems.next_weight_count", counting)
    records, _ = theorems._run_ladder(r, theorems.RUNGS[r])
    assert lengths == [24 * m + 8 * r for m, (stop, j, _) in records.items()
                       if any(4 in weights and (stop > i or stop == i and j > t)
                              for i, (t, _, weights) in enumerate(theorems.RUNGS[r]))]
    assert len(lengths) == calls


@pytest.mark.parametrize("theorem_id,gate_cells,asks", [
    ("lemma1", 0, 0), ("thm1", 66, 27), ("thm2", 39, 0), ("thm3", 66, 27), ("thm4", 68, 27),
    ("thm5.1", 44, 24), ("thm5.2", 107, 36)])
def test_each_driver_climbs_only_the_rungs_its_views_read(monkeypatch, theorem_id, gate_cells,
                                                          asks):
    # The gate cells a driver evaluates and the A_{k+4} it asks for: each
    # family-24m driver stops below the rungs none of its views read.
    gates, asked = [], []
    real_gate = theorems.integrality_gate
    monkeypatch.setattr(theorems, "integrality_gate", lambda *a: gates.append(a) or real_gate(*a))
    monkeypatch.setattr(theorems, "next_weight_count",
                        lambda n: asked.append(n) or next_weight_count(n))
    run_theorem(theorem_id, timestamp=False)
    assert (len(gates), len(asked)) == (gate_cells, asks)
