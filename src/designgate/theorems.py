"""Drivers reproducing the classification of support t-designs.

Each driver id runs a full pipeline from scratch and diffs its sets against
the reference data in :mod:`designgate.reference_sets`:

    lemma1   family 24m: strength-6 lambda scan over m in [1, 153]
    thm2     within lemma1's set: strength-7 gate at u = k
    thm3     within the remainder: strength-7 gate at u = k + 4
    thm1     the surviving set of the two strength-7 gates
    thm4     strength-8 candidates and gates (u = k, then u = k + 4)
    thm5.1   family 24m+8: staged ladder, strengths 5 to 8
    thm5.2   family 24m+16: staged ladder, strengths 3 to 6

All three families run one kind of staged ladder, which alternates
lambda-integrality filters with default-offset integrality gates.  A rung
names its strength t and the offset lengths it gates; its lambda levels are
those above the previous rung's strength.  Gates at a rung run at u = k and
then at u = k + 4; the first non-integral quotient eliminates the
candidate.  A member whose extremal enumerator has no codewords of
weight k + 4 would make that second gate vacuous, and raises ValueError
instead.  The 24m drivers are views over one run of the 24m ladder,
filtered by stage and by u.  Stage 6 of the 24m+8 ladder carries lambda
conditions only, matching the reference classification (which does not
sharpen there); its offset-length-6 gates run as part of stage 7, where
they remain valid since a 7-design is in particular a 6-design.
"""

from __future__ import annotations

from . import reference_sets as ref
from .families import AM_STRENGTHS, CodeFamily, M_MAXES, THEOREM_IDS, check_lambda_levels
from .gate import GateResult, integrality_gate
from .gleason import next_weight_count
from .report import Report, gate_row, set_row, timestamp_now

# A rung is (t, the offset lengths gated at strength t).  Its lambda levels
# are those above the previous rung's strength, or above the family's base
# strength for the first rung.
STAGES_24M = ((7, (7,)), (8, (8,)))
STAGES_24M8 = ((5, (5,)), (6, ()), (7, (6, 7)), (8, ()))
STAGES_24M16 = ((3, (3,)), (4, (4,)), (5, (5,)), (6, ()))


class TheoremOutcome:
    """A driver's report and its reference mismatches (none on a match)."""

    def __init__(self, report: Report, mismatches: list[str] | None = None):
        self.report = report
        self.mismatches = [] if mismatches is None else mismatches


def _diff(label: str, computed, expected) -> list[str]:
    got, want = set(computed), set(expected)
    if got == want:
        return []
    extra = sorted(got - want)
    missing = sorted(want - got)
    parts = []
    if extra:
        parts.append(f"extra m: {extra}")
    if missing:
        parts.append(f"missing m: {missing}")
    return [f"{label}: computed {sorted(got)} != reference {sorted(want)} ({'; '.join(parts)})"]


def _gates_pass(f: CodeFamily, gate_ls: tuple[int, ...], gates: list[GateResult]) -> bool:
    """Gate f at every offset length of ``gate_ls``, at u = k and then
    u = k + 4, appending each result to ``gates``; False at the first
    non-integral quotient."""
    for l in gate_ls:
        for u in (f.k, f.k + 4):
            res = integrality_gate(f, l, u)
            gates.append(res)
            if not res.integral:
                return False
    return True


def _run_ladder(r: int, stages, upto_t: int | None = None) -> list[tuple]:
    """Run family r's ladder over m in [1, m_max], stopping after strength
    ``upto_t`` when given.  Returns, per rung run, the tuple (its strength,
    the candidates passing its lambda filter, its gate results in execution
    order, its survivors)."""
    candidates = list(range(1, M_MAXES[r] + 1))
    runs, done = [], AM_STRENGTHS[r]
    for t, gate_ls in stages:
        if upto_t is not None and t > upto_t:
            break
        passed, gates, survivors = [], [], []
        for m in candidates:
            f = CodeFamily(m, r)
            if check_lambda_levels(f, range(done + 1, t + 1)):
                continue
            passed.append(m)
            if gate_ls and next_weight_count(f.n) <= 0:
                raise ValueError(f"vacuous u = k + 4 gate at m = {m} of family {f.label}: "
                                 "no codewords there")
            if _gates_pass(f, gate_ls, gates):
                survivors.append(m)
        runs.append((t, passed, gates, survivors))
        candidates, done = survivors, t
    return runs


def _report_staged(theorem_id: str, runs: list[tuple], reference: dict,
                   report: Report) -> tuple[list[int], list[str]]:
    mismatches: list[str] = []
    for t, _, gates, survivors in runs:
        report.rows += [gate_row(res, stage=t) for res in gates]
        report.rows.append(set_row(f"t={t} survivors", survivors, stage=t))
        mismatches += _diff(f"{theorem_id} stage t={t}", survivors, reference[t])
    return survivors, mismatches


def _report_24m(theorem_id: str, runs: list[tuple],
                report: Report) -> tuple[list[int], list[str]]:
    """lemma1 and thm1-thm4 as views over one run of the 24m ladder: the
    strength-7 lambda filter is lemma1's scan, its gates at u = k and
    u = k + 4 are thm2's and thm3's, and stage 8 is thm4's."""
    (_, M, gates7, survivors7), (_, left8, gates8, survivors8) = runs
    report.rows.append(set_row("strength-6 lambda-admissible", M))
    mism = _diff(f"{theorem_id} lambda-admissible set", M, ref.LEMMA1_M)
    if theorem_id == "lemma1":
        return M, mism

    views = (("u=k", 0, ref.THM2_ELIMINATED, ref.TABLE1_QUOTIENTS),
             ("u=k+4", 4, ref.THM3_ELIMINATED, ref.TABLE2_QUOTIENTS))
    for label, offset, eliminated, quotients in views:
        gates = [res for res in gates7 if res.u == CodeFamily(res.m, 0).k + offset]
        elim = [res.m for res in gates if not res.integral]
        report.rows += [gate_row(res, stage=7) for res in gates]
        report.rows.append(set_row(f"eliminated by {label} gate", elim, stage=7))
        mism += _diff(f"{theorem_id} {label} eliminated", elim, eliminated)
        for res in gates:
            want = quotients.get(res.m)
            if want is not None and res.quotient != want:
                mism.append(f"{theorem_id} {label} quotient at m={res.m}: "
                            f"{res.quotient} != reference {want}")
        if theorem_id == "thm2":
            return [m for m in M if m not in elim], mism

    if theorem_id == "thm3":
        return survivors7, mism
    if theorem_id == "thm1":
        report.rows.append(set_row("strength-7 survivors", survivors7, stage=7))
        mism += _diff("thm1 surviving set", survivors7, ref.THM1_SURVIVORS)
        return survivors7, mism

    # thm4: the lambda_8 row is taken over all of lemma1's set.
    cands8 = [m for m in M if not check_lambda_levels(CodeFamily(m, 0), (8,))]
    report.rows.append(set_row("lambda_8-integral candidates", cands8, stage=8))
    mism += _diff("thm4 lambda_8 candidates", cands8, ref.LAMBDA8_CANDIDATES)
    report.rows.append(set_row("not yet eliminated", left8, stage=8))
    report.rows += [gate_row(res, stage=8) for res in gates8]
    report.rows.append(set_row("strength-8 survivors", survivors8, stage=8))
    mism += _diff("thm4 surviving set", survivors8, ())
    return survivors8, mism


def run_theorem(theorem_id: str, timestamp: bool = True,
                upto_t: int | None = None) -> TheoremOutcome:
    """Run the named driver; returns its report and any reference mismatches."""
    if theorem_id not in THEOREM_IDS:
        raise ValueError(f"unknown id {theorem_id!r}; expected one of {THEOREM_IDS}")
    if theorem_id == "thm5.1":
        r, stages, reference = 1, STAGES_24M8, ref.THM51_SETS
    elif theorem_id == "thm5.2":
        r, stages, reference = 2, STAGES_24M16, ref.THM52_SETS
    else:
        r, stages, reference = 0, STAGES_24M, None
    if upto_t is not None:
        if r == 0:
            raise ValueError("--t staging only applies to thm5.1 / thm5.2")
        if upto_t < stages[0][0]:
            raise ValueError(f"{theorem_id} starts at strength {stages[0][0]}; "
                             f"--t {upto_t} is below it")
    runs = _run_ladder(r, stages, upto_t)
    report = Report(id=theorem_id, inputs={"family": CodeFamily(1, r).label,
                                           "m_range": [1, M_MAXES[r]]})
    if r == 0:
        surviving, mismatches = _report_24m(theorem_id, runs, report)
    else:
        surviving, mismatches = _report_staged(theorem_id, runs, reference, report)
    report.surviving_set = surviving
    if timestamp:
        report.generated_at = timestamp_now()
    return TheoremOutcome(report, mismatches)
