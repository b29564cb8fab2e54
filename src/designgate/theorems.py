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
lambda-integrality filters with default-offset integrality gates.  A rung is
(t, the offset lengths it gates, the weights u - k it gates at); its lambda
levels are those above the previous rung's strength, so a rung at the
previous rung's strength adds none.  A rung's gates run by offset length,
then by weight; the first non-integral quotient eliminates the candidate.
A member whose extremal enumerator has no codewords of weight k + 4 would
make a u = k + 4 gate vacuous, and raises ValueError instead.  Family 24m's
strength-7 gates at u = k and at u = k + 4 are two rungs, and its drivers
are views over one run of its ladder.  Stage 6 of the 24m+8 ladder carries
lambda conditions only, matching the reference classification (which does
not sharpen there); its offset-length-6 gates run as part of stage 7, where
they remain valid since a 7-design is in particular a 6-design.  Every
driver renders each stage as row groups: gate rows, then a set row diffed
against the reference.
"""

from __future__ import annotations

from . import reference_sets as ref
from .families import FAMILY_LABELS, M_MAXES, THEOREM_IDS, member
from .gate import integrality_gate
from .report import Report, gate_row, set_row, timestamp_now

# Per family, its rungs (t, the offset lengths gated at strength t, the
# weights u - k gated at).  A rung's lambda levels are those above the
# previous rung's strength, or above the family's base strength for the
# first rung; a rung at the previous rung's strength adds none.
RUNGS = (
    ((7, (7,), (0,)), (7, (7,), (4,)), (8, (8,), (0, 4))),
    ((5, (5,), (0, 4)), (6, (), ()), (7, (6, 7), (0, 4)), (8, (), ())),
    ((3, (3,), (0, 4)), (4, (4,), (0, 4)), (5, (5,), (0, 4)), (6, (), ())),
)


class TheoremOutcome:
    """A driver's report and its reference mismatches (none on a match)."""

    def __init__(self, report: Report, mismatches: list[str] | None = None):
        self.report = report
        self.mismatches = [] if mismatches is None else mismatches


def _run_ladder(r: int, upto_t: int | None = None) -> list[tuple]:
    """Run family r's rungs over m in [1, m_max], stopping after strength
    ``upto_t`` when given.  Returns, per rung run, the tuple (its strength,
    the candidates passing its lambda filter, its gate results in execution
    order, its survivors)."""
    candidates, runs = list(range(1, M_MAXES[r] + 1)), []
    for t, gate_ls, weights in RUNGS[r]:
        if upto_t is not None and t > upto_t:
            break
        passed, gates, survivors = [], [], []
        for m in candidates:
            rec = member(r, m)
            if len(rec.levels) <= t:  # lambda_t or a level below is not a count
                continue
            passed.append(m)
            f = rec.family
            if 4 in weights and rec.next_count <= 0:
                raise ValueError(f"vacuous u = k + 4 gate at m = {m} of family {f.label}: "
                                 "no codewords there")
            for res in (integrality_gate(f, l, f.k + d) for l in gate_ls for d in weights):
                gates.append(res)
                if not res.integral:
                    break
            else:
                survivors.append(m)
        runs.append((t, passed, gates, survivors))
        candidates = survivors
    return runs


def _group(report: Report, label: str, ms, stage: int | None, what: str | None = None,
           reference=(), gates=()) -> list[str]:
    """Append one row group, its gate rows and then its set row, to the
    report.  Returns the set's mismatch against the reference, labelled with
    the report's id and ``what``: none on a match, or for a group without
    ``what``."""
    report.rows += [gate_row(res, stage=stage) for res in gates]
    report.rows.append(set_row(label, ms, stage))
    got, want = set(ms), set(reference)
    if what is None or got == want:
        return []
    extra = sorted(got - want)
    missing = sorted(want - got)
    parts = []
    if extra:
        parts.append(f"extra m: {extra}")
    if missing:
        parts.append(f"missing m: {missing}")
    return [f"{report.id} {what}: computed {sorted(got)} != reference {sorted(want)} "
            f"({'; '.join(parts)})"]


def _report_24m(report: Report, runs: list[tuple]) -> tuple[list[int], list[str]]:
    """lemma1 and thm1-thm4 as views over one run of the 24m ladder: the
    first rung's lambda filter is lemma1's scan, the two strength-7 rungs
    hold thm2's and thm3's gates, and the strength-8 rung is thm4's."""
    (_, M, gates_k, left), (_, _, gates_k4, survivors7), (_, left8, gates8, survivors8) = runs
    tid = report.id
    mism = _group(report, "strength-6 lambda-admissible", M, None, "lambda-admissible set",
                  ref.LEMMA1_M)
    rungs7 = (("u=k", gates_k, ref.THM2_ELIMINATED, ref.TABLE1_QUOTIENTS),
              ("u=k+4", gates_k4, ref.THM3_ELIMINATED, ref.TABLE2_QUOTIENTS))
    shown = {"lemma1": 0, "thm2": 1}.get(tid, 2)  # strength-7 rungs in the view
    for label, gates, eliminated, quotients in rungs7[:shown]:
        elim = [res.m for res in gates if not res.integral]
        mism += _group(report, f"eliminated by {label} gate", elim, 7, f"{label} eliminated",
                       eliminated, gates)
        mism += [f"{tid} {label} quotient at m={res.m}: {res.quotient} != reference "
                 f"{quotients[res.m]}" for res in gates
                 if quotients.get(res.m, res.quotient) != res.quotient]
    if tid == "thm1":
        mism += _group(report, "strength-7 survivors", survivors7, 7, "surviving set",
                       ref.THM1_SURVIVORS)
    if tid == "thm4":  # the lambda_8 row is taken over all of lemma1's set
        cands8 = [m for m in M if len(member(0, m).levels) > 8]
        mism += _group(report, "lambda_8-integral candidates", cands8, 8, "lambda_8 candidates",
                       ref.LAMBDA8_CANDIDATES)
        mism += _group(report, "not yet eliminated", left8, 8)
        mism += _group(report, "strength-8 survivors", survivors8, 8, "surviving set", (), gates8)
    return {"lemma1": M, "thm2": left, "thm4": survivors8}.get(tid, survivors7), mism


def run_theorem(theorem_id: str, timestamp: bool = True,
                upto_t: int | None = None) -> TheoremOutcome:
    """Run the named driver; returns its report and any reference mismatches."""
    if theorem_id not in THEOREM_IDS:
        raise ValueError(f"unknown id {theorem_id!r}; expected one of {THEOREM_IDS}")
    r = {"thm5.1": 1, "thm5.2": 2}.get(theorem_id, 0)
    if upto_t is not None:
        if r == 0:
            raise ValueError("--t staging only applies to thm5.1 / thm5.2")
        if upto_t < RUNGS[r][0][0]:
            raise ValueError(f"{theorem_id} starts at strength {RUNGS[r][0][0]}; "
                             f"--t {upto_t} is below it")
    runs = _run_ladder(r, upto_t)
    report = Report(id=theorem_id, inputs={"family": FAMILY_LABELS[r],
                                           "m_range": [1, M_MAXES[r]]})
    if r == 0:
        surviving, mismatches = _report_24m(report, runs)
    else:
        reference = ref.THM51_SETS if r == 1 else ref.THM52_SETS
        mismatches = []
        for t, _, gates, surviving in runs:
            mismatches += _group(report, f"t={t} survivors", surviving, t, f"stage t={t}",
                                 reference[t], gates)
    report.surviving_set = surviving
    if timestamp:
        report.generated_at = timestamp_now()
    return TheoremOutcome(report, mismatches)
