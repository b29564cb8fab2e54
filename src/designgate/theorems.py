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

All three families run one kind of staged ladder, ``RUNGS``, which
alternates lambda-integrality filters with default-offset integrality gates.
A rung's filter passes a member whose levels lambda_0..lambda_t are counts;
its gates run by offset length, then by weight, and the first non-integral
quotient eliminates the member.  A member without codewords of weight k + 4
would make a u = k + 4 gate vacuous, and raises ValueError instead; A_{k+4}
is computed there only, once per member at the first such rung it reaches,
by :func:`designgate.gleason.next_weight_count`.
Stage 6 of the 24m+8 ladder carries lambda conditions only, matching the
reference classification (which does not sharpen there); its offset-length-6
gates run in stage 7, where they remain valid since a 7-design is a
6-design.  One run of a family's ladder gives each m a terminal record, and
each driver is a list of views over those records, ``DRIVERS``.  The run
stops after the highest rung a driver's views read, so lemma1 runs no gate,
thm2 the u = k rung only, thm1 and thm3 the two strength-7 rungs, and thm4
and thm5.x the whole ladder; ``--t`` drops the thm5.x views above it.
"""

from . import reference_sets as ref
from .families import FAMILY_LABELS, M_MAXES, THEOREM_IDS, Record, member, require_ints
from .gate import integrality_gate
from .gleason import next_weight_count
from .report import Report, gate_row, set_row, timestamp_now

# Per family, its rungs (t, the offset lengths gated at strength t, the
# weights u - k gated at).
RUNGS = (
    ((7, (7,), (0,)), (7, (7,), (4,)), (8, (8,), (0, 4))),
    ((5, (5,), (0, 4)), (6, (), ()), (7, (6, 7), (0, 4)), (8, (), ())),
    ((3, (3,), (0, 4)), (4, (4,), (0, 4)), (5, (5,), (0, 4)), (6, (), ())),
)

# A view is (set-row label, stage, rung, members shown, reference name,
# mismatch label, quotient checks...).  It shows the members its rung's gates
# eliminate ("eliminated") or those past its rung ("survivors"), after the
# rung's gate rows; or, for an int s, those reaching its rung whose first
# non-count lambda level is above s.  A view with a mismatch label diffs its
# set against the named reference as it reads when the driver runs (a staged
# family's sets by stage; no name for the empty set).  A quotient check
# (gate label, table name) diffs each of the rung's gate quotients.  A view
# reads the rungs up to its own, or for an int s only those below it: a
# member that passes every rung that ran stops at or past its rung.
_ADMISSIBLE = ("strength-6 lambda-admissible", None, 0, 7, "LEMMA1_M", "lambda-admissible set")
_U_K = ("eliminated by u=k gate", 7, 0, "eliminated", "THM2_ELIMINATED", "u=k eliminated",
        ("u=k", "TABLE1_QUOTIENTS"))
_U_K4 = ("eliminated by u=k+4 gate", 7, 1, "eliminated", "THM3_ELIMINATED", "u=k+4 eliminated",
         ("u=k+4", "TABLE2_QUOTIENTS"))

# Per driver id, in the order of THEOREM_IDS: its family and its views.
DRIVERS = {
    "lemma1": (0, (_ADMISSIBLE,)),
    "thm1": (0, (_ADMISSIBLE, _U_K, _U_K4,
                 ("strength-7 survivors", 7, 2, 7, "THM1_SURVIVORS", "surviving set"))),
    "thm2": (0, (_ADMISSIBLE, _U_K)),
    "thm3": (0, (_ADMISSIBLE, _U_K, _U_K4)),
    "thm4": (0, (_ADMISSIBLE, _U_K, _U_K4,
                 ("lambda_8-integral candidates", 8, 0, 8, "LAMBDA8_CANDIDATES",
                  "lambda_8 candidates"),
                 ("not yet eliminated", 8, 2, 8, None, None),
                 ("strength-8 survivors", 8, 2, "survivors", None, "surviving set"))),
    **{tid: (r, tuple((f"t={t} survivors", t, i, "survivors", name, f"stage t={t}")
                      for i, (t, _, _) in enumerate(RUNGS[r])))
       for tid, r, name in (("thm5.1", 1, "THM51_SETS"), ("thm5.2", 2, "THM52_SETS"))},
}


class TheoremOutcome(Record):
    """A driver's report and its reference mismatches (none on a match)."""

    __slots__ = ("report", "mismatches")


def _run_ladder(r: int, rungs) -> tuple[dict, list[tuple]]:
    """Run ``rungs`` of family r over m in [1, m_max].  Returns each m's
    terminal record (the index of the rung where m stops, or the number of
    rungs for a survivor; the index of its first lambda level that is not a
    count; the failing gate result, or None), and every gate result with its
    rung index, in execution order.  A member's A_{k+4} is checked once, at
    the first rung that gates at u = k + 4."""
    gates, first_k4 = [], next((i for i, (_, _, ws) in enumerate(rungs) if 4 in ws), None)

    def terminal(rec) -> tuple:
        f, j = rec.family, len(rec.levels)
        for i, (t, gate_ls, weights) in enumerate(rungs):
            if j <= t:  # lambda_t or a level below is not a count
                return i, j, None
            if i == first_k4 and next_weight_count(f.n) <= 0:
                raise ValueError(f"vacuous u = k + 4 gate at m = {f.m} of family {f.label}: "
                                 "no codewords there")
            for res in (integrality_gate(f, l, f.k + d) for l in gate_ls for d in weights):
                gates.append((i, res))
                if not res.integral:
                    return i, j, res
        return len(rungs), j, None

    return {m: terminal(member(r, m)) for m in range(1, M_MAXES[r] + 1)}, gates


def _members(records: dict, rung: int, shown) -> list[int]:
    """The members a view shows, in order of m."""
    if shown == "eliminated":
        return [m for m, (stop, _, failed) in records.items() if stop == rung and failed]
    if shown == "survivors":
        return [m for m, (stop, _, _) in records.items() if stop > rung]
    return [m for m, (stop, level, _) in records.items() if stop >= rung and level > shown]


def _diff(what: str, ms: list[int], name: str | None, stage: int | None) -> list[str]:
    """The mismatch of ``ms`` against the named reference: none on a match."""
    want = getattr(ref, name) if name else ()
    got, want = set(ms), set(want[stage] if isinstance(want, dict) else want)
    if got == want:
        return []
    parts = [f"{kind} m: {sorted(s)}" for kind, s in (("extra", got - want),
                                                     ("missing", want - got)) if s]
    return [f"{what}: computed {sorted(got)} != reference {sorted(want)} ({'; '.join(parts)})"]


def run_theorem(theorem_id: str, timestamp: bool = True,
                upto_t: int | None = None) -> TheoremOutcome:
    """Run the named driver; returns its report and any reference mismatches."""
    if theorem_id not in DRIVERS:
        raise ValueError(f"unknown id {theorem_id!r}; expected one of {THEOREM_IDS}")
    r, views = DRIVERS[theorem_id]
    if upto_t is not None:
        require_ints(upto_t=upto_t)
        if r == 0:
            raise ValueError("--t staging only applies to thm5.1 / thm5.2")
        if upto_t < RUNGS[r][0][0]:
            raise ValueError(f"{theorem_id} starts at strength {RUNGS[r][0][0]}; "
                             f"--t {upto_t} is below it")
        views = [view for view in views if view[1] <= upto_t]
    # The ladder stops after the highest rung a view reads.
    cut = max(rung + 1 if isinstance(shown, str) else rung for _, _, rung, shown, *_ in views)
    records, gates = _run_ladder(r, RUNGS[r][:cut])
    report = Report(id=theorem_id, inputs={"family": FAMILY_LABELS[r], "m_range": [1, M_MAXES[r]]},
                    generated_at=timestamp_now() if timestamp else None)
    mismatches = []
    for label, stage, rung, shown, name, what, *checks in views:
        ms = _members(records, rung, shown)
        decided = [res for i, res in gates if i == rung] if isinstance(shown, str) else []
        report.rows += [gate_row(res, stage=stage) for res in decided]
        report.rows.append(set_row(label, ms, stage))
        if what:
            mismatches += _diff(f"{theorem_id} {what}", ms, name, stage)
        for gates_label, table in checks:
            quotients = getattr(ref, table)
            mismatches += [f"{theorem_id} {gates_label} quotient at m={res.m}: {res.quotient} "
                           f"!= reference {quotients[res.m]}" for res in decided
                           if quotients.get(res.m, res.quotient) != res.quotient]
        report.surviving_set = _members(records, rung, "survivors") if shown == "eliminated" else ms
    return TheoremOutcome(report, mismatches)
