"""Drivers reproducing the classification of support t-designs.

Each driver id runs a full pipeline from scratch and diffs its sets against
the reference data in :mod:`designgate.reference_sets`:

    lemma1   family 24m: strength-6 lambda scan over m in [1, 153]
    thm2     within lemma1's set: strength-7 gate at u = k
    thm3     within the remainder: strength-7 gate at u = k + 4
    thm1     the surviving set of the two strength-7 gates
    thm4     strength-8 candidates and gates (u = k, then u = k + 4)
    thm5.1   family 24m+8: staged scan/gate ladder, strengths 5 to 8
    thm5.2   family 24m+16: staged scan/gate ladder, strengths 3 to 6

The staged ladders alternate lambda-integrality filters with default-offset
integrality gates.  Gates at a stage run at u = k first and then, when the
next-weight coefficient of the extremal enumerator is positive, at u = k+4;
the first non-integral quotient eliminates the candidate.  Stage 6 of the
24m+8 ladder carries lambda conditions only, matching the reference
classification (which does not sharpen there); its offset-length-6 gates
run as part of stage 7, where they remain valid since a 7-design is in
particular a 6-design.
"""

from __future__ import annotations

from . import reference_sets as ref
from ._record import Record
from .families import (
    CodeFamily,
    M_MAXES,
    THEOREM_IDS,
    admissible_scan,
    check_lambda_levels,
)
from .gate import GateResult, integrality_gate
from .gleason import next_weight_count
from .report import Report, gate_row, set_row, timestamp_now


class Stage(Record):
    """One rung of a staged ladder: the effective strength, the lambda
    levels newly required, and the offset lengths gated at this strength."""

    __slots__ = ("t", "lambda_levels", "gate_ls")

    def __init__(self, t: int, lambda_levels: tuple[int, ...], gate_ls: tuple[int, ...]):
        super().__init__(t, lambda_levels, gate_ls)


STAGES_24M8 = (
    Stage(t=5, lambda_levels=(4, 5), gate_ls=(5,)),
    Stage(t=6, lambda_levels=(6,), gate_ls=()),
    Stage(t=7, lambda_levels=(7,), gate_ls=(6, 7)),
    Stage(t=8, lambda_levels=(8,), gate_ls=()),
)

STAGES_24M16 = (
    Stage(t=3, lambda_levels=(2, 3), gate_ls=(3,)),
    Stage(t=4, lambda_levels=(4,), gate_ls=(4,)),
    Stage(t=5, lambda_levels=(5,), gate_ls=(5,)),
    Stage(t=6, lambda_levels=(6,), gate_ls=()),
)


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


def _eval_stage_member(f: CodeFamily, stage: Stage) -> tuple[list[GateResult], bool]:
    """Run one candidate through one stage.  Returns its gate results in
    execution order and whether it survives."""
    if check_lambda_levels(f, stage.lambda_levels):
        return [], False
    results: list[GateResult] = []
    for l in stage.gate_ls:
        res = integrality_gate(f, l, f.k)
        results.append(res)
        if not res.integral:
            return results, False
        if next_weight_count(f.n) > 0:
            res = integrality_gate(f, l, f.k + 4)
            results.append(res)
            if not res.integral:
                return results, False
    return results, True


def _run_stage(r: int, stage: Stage, candidates: list[int], store,
               rows: list[dict]) -> list[int]:
    survivors = []
    for m in candidates:
        results, alive = _eval_stage_member(CodeFamily(m, r), stage)
        for res in results:
            if store is not None:
                store.put(res)
            rows.append(gate_row(res, stage=stage.t))
        if alive:
            survivors.append(m)
    rows.append(set_row(f"t={stage.t} survivors", survivors, stage=stage.t))
    return survivors


def _run_staged(theorem_id: str, r: int, stages, reference: dict, store,
                upto_t: int | None) -> TheoremOutcome:
    if upto_t is not None and upto_t < stages[0].t:
        raise ValueError(f"{theorem_id} starts at strength {stages[0].t}; "
                         f"--t {upto_t} is below it")
    report = Report(id=theorem_id, inputs={"family": CodeFamily(1, r).label,
                                           "m_range": [1, M_MAXES[r]]})
    mismatches: list[str] = []
    candidates = list(range(1, M_MAXES[r] + 1))
    for stage in stages:
        if upto_t is not None and stage.t > upto_t:
            break
        candidates = _run_stage(r, stage, candidates, store, report.rows)
        mismatches += _diff(f"{theorem_id} stage t={stage.t}", candidates,
                            reference[stage.t])
    report.surviving_set = candidates
    return TheoremOutcome(report, mismatches)


def _gate_24m(m: int, t: int, u_offset: int) -> GateResult:
    f = CodeFamily(m, 0)
    return integrality_gate(f, t, f.k + u_offset)


def _chain_24m(store):
    """The family-24m elimination chain shared by lemma1/thm1/thm2/thm3/thm4:
    the strength-6 lambda scan, then the strength-7 gates at u = k and
    u = k + 4."""
    M = admissible_scan(0, 6)
    res_k = [_gate_24m(m, 7, 0) for m in M]
    elim_k = [r.m for r in res_k if not r.integral]
    remainder = [m for m in M if m not in elim_k]
    for m in remainder:
        if next_weight_count(24 * m) <= 0:
            raise ValueError(f"vacuous u = k + 4 gate at m = {m}: no codewords there")
    res_k4 = [_gate_24m(m, 7, 4) for m in remainder]
    elim_k4 = [r.m for r in res_k4 if not r.integral]
    survivors = [m for m in remainder if m not in elim_k4]
    if store is not None:
        for r in res_k + res_k4:
            store.put(r)
    return M, res_k, elim_k, res_k4, elim_k4, survivors


def run_theorem(theorem_id: str, jobs: int = 1, store=None, timestamp: bool = True,
                upto_t: int | None = None) -> TheoremOutcome:
    """Run the named driver; returns its report and any reference mismatches.

    ``jobs`` is accepted for compatibility and ignored: drivers run serially,
    which beats a process pool now that block counts are closed forms."""
    if theorem_id not in THEOREM_IDS:
        raise ValueError(f"unknown id {theorem_id!r}; expected one of {THEOREM_IDS}")
    if theorem_id == "thm5.1":
        out = _run_staged(theorem_id, 1, STAGES_24M8, ref.THM51_SETS, store, upto_t)
    elif theorem_id == "thm5.2":
        out = _run_staged(theorem_id, 2, STAGES_24M16, ref.THM52_SETS, store, upto_t)
    else:
        if upto_t is not None:
            raise ValueError("--t staging only applies to thm5.1 / thm5.2")
        out = _run_24m(theorem_id, store)
    if timestamp:
        out.report.generated_at = timestamp_now()
    return out


def _run_24m(theorem_id: str, store) -> TheoremOutcome:
    report = Report(id=theorem_id, inputs={"family": "24m", "m_range": [1, 153]})
    mism: list[str] = []
    M, res_k, elim_k, res_k4, elim_k4, survivors = _chain_24m(store)
    report.rows.append(set_row("strength-6 lambda-admissible", M))
    mism += _diff(f"{theorem_id} lambda-admissible set", M, ref.LEMMA1_M)

    if theorem_id == "lemma1":
        report.surviving_set = M
        return TheoremOutcome(report, mism)

    for r in res_k:
        report.rows.append(gate_row(r, stage=7))
    report.rows.append(set_row("eliminated by u=k gate", elim_k, stage=7))
    mism += _diff(f"{theorem_id} u=k eliminated", elim_k, ref.THM2_ELIMINATED)
    for r in res_k:
        want = ref.TABLE1_QUOTIENTS.get(r.m)
        if want is not None and r.quotient != want:
            mism.append(f"{theorem_id} u=k quotient at m={r.m}: "
                        f"{r.quotient} != reference {want}")
    if theorem_id == "thm2":
        report.surviving_set = [m for m in M if m not in elim_k]
        return TheoremOutcome(report, mism)

    for r in res_k4:
        report.rows.append(gate_row(r, stage=7))
    report.rows.append(set_row("eliminated by u=k+4 gate", elim_k4, stage=7))
    mism += _diff(f"{theorem_id} u=k+4 eliminated", elim_k4, ref.THM3_ELIMINATED)
    for r in res_k4:
        want = ref.TABLE2_QUOTIENTS.get(r.m)
        if want is not None and r.quotient != want:
            mism.append(f"{theorem_id} u=k+4 quotient at m={r.m}: "
                        f"{r.quotient} != reference {want}")
    if theorem_id == "thm3":
        report.surviving_set = survivors
        return TheoremOutcome(report, mism)

    if theorem_id == "thm1":
        report.rows.append(set_row("strength-7 survivors", survivors, stage=7))
        mism += _diff("thm1 surviving set", survivors, ref.THM1_SURVIVORS)
        if len(M) - len(elim_k) - len(elim_k4) != len(survivors):
            mism.append("thm1 set-difference identity violated")
        report.surviving_set = survivors
        return TheoremOutcome(report, mism)

    # thm4: strength-8 candidates within M, gates at offset length 8.
    cands8 = [m for m in M if not check_lambda_levels(CodeFamily(m, 0), (8,))]
    report.rows.append(set_row("lambda_8-integral candidates", cands8, stage=8))
    mism += _diff("thm4 lambda_8 candidates", cands8, ref.LAMBDA8_CANDIDATES)
    left = [m for m in cands8 if m in survivors]
    report.rows.append(set_row("not yet eliminated", left, stage=8))
    final = []
    for m in left:
        f = CodeFamily(m, 0)
        res = integrality_gate(f, 8, f.k, store=store)
        report.rows.append(gate_row(res, stage=8))
        alive = res.integral
        if alive and next_weight_count(f.n) > 0:
            res = integrality_gate(f, 8, f.k + 4, store=store)
            report.rows.append(gate_row(res, stage=8))
            alive = res.integral
        if alive:
            final.append(m)
    report.rows.append(set_row("strength-8 survivors", final, stage=8))
    mism += _diff("thm4 surviving set", final, ())
    report.surviving_set = final
    return TheoremOutcome(report, mism)
