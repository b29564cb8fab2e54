"""Command-line front end.

Subcommands: lambda, scan, gate, theorem, wenum.  Exit codes: 0 success,
2 bad input, 3 I/O failure, 4 reference-set mismatch.

Each handler imports the modules only it needs when it runs, so that a
cold start loads no more than its subcommand uses.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .families import (
    FAMILY_LABELS,
    THEOREM_IDS,
    NonIntegralLambdaError,
    apply_strengthening,
    lambda_levels,
    member,
    nonintegral_levels,
    scan_members,
    scan_range,
)
from .report import FORMATS, Report, gate_row, lambda_row, render, set_row, timestamp_now

_FAMILY_INDEX = {label: r for r, label in enumerate(FAMILY_LABELS)}
_JOBS_HELP = "accepted for compatibility and ignored: the work runs serially"


def _add_common(p: argparse.ArgumentParser, *, fmt: bool = True) -> None:
    if fmt:
        p.add_argument("--format", choices=FORMATS, default="table")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the generation timestamp (byte-deterministic output)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write output to PATH instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="designgate",
        description="Exact integrality tests for support t-designs of "
                    "extremal doubly even self-dual codes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", help="print exact lambda levels for one family member")
    p.add_argument("--family", choices=FAMILY_LABELS, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("scan", help="lambda-integrality scan over an m range")
    p.add_argument("--family", choices=FAMILY_LABELS, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--m-min", type=int, default=None)
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    _add_common(p)

    p = sub.add_parser("gate", help="run one integrality gate")
    p.add_argument("--family", choices=FAMILY_LABELS, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--u", type=int, default=None, help="reference weight (default: k)")
    _add_common(p)

    p = sub.add_parser("theorem", help="reproduce a classification result and diff it")
    p.add_argument("id", choices=THEOREM_IDS)
    p.add_argument("--t", type=int, default=None,
                   help="for thm5.x: stop the ladder at this strength")
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    _add_common(p)

    p = sub.add_parser("wenum", help="extremal weight enumerator coefficients")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, fmt=False)
    return ap


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="ascii") as fh:
        fh.write(text)


def _check_jobs(args) -> None:
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")


def _cmd_lambda(args) -> int:
    f = member(_FAMILY_INDEX[args.family], args.m).family
    t_eff = apply_strengthening(f, args.t)
    if t_eff > f.k:
        raise ValueError(f"strength {t_eff} outside [{f.am_strength}, {f.k}]")
    levels = range(f.am_strength, t_eff + 1)
    for i, v in zip(levels, lambda_levels(f, levels)):
        flag = "INTEGRAL" if v.denominator == 1 else "NON-INTEGRAL"
        print(f"lambda_{i} = {v}  {flag}")
    return 0


def _cmd_scan(args) -> int:
    _check_jobs(args)
    r = _FAMILY_INDEX[args.family]
    m_range = scan_range(r, args.m_min, args.m_max)
    report = Report(id="scan", inputs={"family": args.family, "t": args.t,
                                       "m_range": [m_range[0], m_range[-1]]},
                    generated_at=None if args.no_timestamp else timestamp_now())
    ms, short = [], []
    for m, values in scan_members(r, args.t, args.m_min, args.m_max):
        if values is None:
            short.append(m)
            continue
        report.rows += [lambda_row(m, i, v) for i, v in values]
        if not nonintegral_levels(values):
            ms.append(m)
    if short:
        report.rows.append(set_row("block size below strength", short))
    report.rows.append(set_row("admissible", ms))
    report.surviving_set = ms
    _emit(render(report, args.format), args.out)
    return 0


def _cmd_gate(args) -> int:
    from .gate import integrality_gate
    from .store import ResultStore

    f = member(_FAMILY_INDEX[args.family], args.m).family
    u = f.k if args.u is None else args.u
    try:
        res = integrality_gate(f, args.t, u)
    except NonIntegralLambdaError as exc:
        # The hypothesis already fails at the level counts: report each
        # failing level with its exact value, and m as eliminated there.
        rows = [lambda_row(args.m, i, v) for i, v in exc.levels]
        rows.append(set_row("PRE-GATE FAIL", [args.m]))
        surviving = []
    else:
        store = ResultStore.from_env()
        stored = store.get(f.r, f.m, args.t, u)
        if stored is None:
            store.put(res)
        elif stored != res:
            raise ValueError(f"stored gate F = {stored.F}, quotient {stored.quotient} differs "
                             f"from the computed F = {res.F}, quotient {res.quotient}")
        rows = [gate_row(res)]
        surviving = [args.m] if res.integral else []
    report = Report(id="gate", inputs={"family": args.family, "m": args.m, "t": args.t, "u": u},
                    rows=rows, surviving_set=surviving,
                    generated_at=None if args.no_timestamp else timestamp_now())
    _emit(render(report, args.format), args.out)
    return 0


def _cmd_theorem(args) -> int:
    from .theorems import run_theorem

    _check_jobs(args)
    outcome = run_theorem(args.id, timestamp=not args.no_timestamp, upto_t=args.t)
    _emit(render(outcome.report, args.format), args.out)
    if outcome.mismatches:
        for line in outcome.mismatches:
            print(f"MISMATCH {line}", file=sys.stderr)
        return 4
    return 0


def _cmd_wenum(args) -> int:
    from .gleason import extremal_weight_enumerator

    enum = extremal_weight_enumerator(args.n)
    lines = [f"extremal weight enumerator, n = {args.n}"]
    for w, a in enumerate(enum.coefficients):
        if a:
            lines.append(f"A_{w} = {a}")
    negs = enum.negative_weights()
    if negs:
        lines.append(f"WARNING: negative coefficients at weights {negs}; "
                     "no code attains this enumerator")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_HANDLERS = {
    "lambda": _cmd_lambda,
    "scan": _cmd_scan,
    "gate": _cmd_gate,
    "theorem": _cmd_theorem,
    "wenum": _cmd_wenum,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = getattr(args, "out", None)  # before the work, so a bad --out wastes none
        if out and not os.path.isdir(os.path.dirname(out) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
        if out and os.path.isdir(out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
