"""Command-line front end.

Subcommands: lambda, scan, gate, theorem, wenum.  Exit codes: 0 success,
2 bad input, 3 I/O failure, 4 reference-set mismatch.

One table, ``COMMANDS``, holds every subcommand's help, options and handler.
A plain argv (a subcommand, then exact flags, each value its own token) is
read from it without importing argparse; any other goes to an argparse
parser built from it, which gives the help and every error.
tests/cli_oracle.py holds both paths to an argparse parser written out by
hand.  Each handler imports report, gate, store, theorems or gleason when it
runs, as it needs them, so that a cold start loads what its subcommand uses.
"""

import errno
import os
import sys
from types import SimpleNamespace

from .families import (
    FAMILY_LABELS,
    FORMATS,
    THEOREM_IDS,
    NonIntegralLambdaError,
    apply_strengthening,
    lambda_levels,
    member,
    nonintegral_levels,
    scan_members,
    scan_range,
)

_FAMILY_INDEX = {label: r for r, label in enumerate(FAMILY_LABELS)}
_JOBS_HELP = "accepted for compatibility and ignored: the work runs serially"


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
    from .report import Report, lambda_row, render, set_row, timestamp_now

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
    from .report import Report, gate_row, lambda_row, render, set_row, timestamp_now
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
    from .report import render
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


# A subcommand's row is its help, options and handler; an option's, its flag (a
# bare name for a positional), what it reads (int, str, a tuple of choices, or
# None for a switch), its default (REQUIRED if it must be given) and its help.
REQUIRED = ...
_FAMILY, _M, _T = (("--family", FAMILY_LABELS, REQUIRED, None),
                   ("--m", int, REQUIRED, None), ("--t", int, REQUIRED, None))
_JOBS = ("--jobs", int, 1, _JOBS_HELP)
_OUT = ("--out", str, None, "write output to PATH instead of stdout")
_REPORT = (("--format", FORMATS, "table", None), ("--no-timestamp", None, False,
           "omit the generation timestamp (byte-deterministic output)"), _OUT)
COMMANDS = {
    "lambda": ("print exact lambda levels for one family member", (_FAMILY, _M, _T), _cmd_lambda),
    "scan": ("lambda-integrality scan over an m range", (_FAMILY, _T, ("--m-min", int, None, None),
             ("--m-max", int, None, None), _JOBS, *_REPORT), _cmd_scan),
    "gate": ("run one integrality gate", (_FAMILY, _M, _T, ("--u", int, None,
             "reference weight (default: k)"), *_REPORT), _cmd_gate),
    "theorem": ("reproduce a classification result and diff it",
                (("id", THEOREM_IDS, REQUIRED, None), ("--t", int, None,
                 "for thm5.x: stop the ladder at this strength"), _JOBS, *_REPORT), _cmd_theorem),
    "wenum": ("extremal weight enumerator coefficients", (("--n", int, REQUIRED, None), _OUT),
              _cmd_wenum),
}


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The values of a plain argv, else None: a subcommand, then its options,
    each an exact flag and, unless a switch, a value of its kind not starting
    with '-' as the next token, with theorem's id among them and every
    required option given.  argparse reads it the same way, and a repeated
    option keeps its last value."""
    if not argv or argv[0] not in COMMANDS:
        return None
    opts = {flag: kind for flag, kind, _, _ in COMMANDS[argv[0]][1]}
    values = {flag: default for flag, _, default, _ in COMMANDS[argv[0]][1]}
    rest = argv[:0:-1]  # the tokens after the subcommand, last first
    while rest:
        tok = rest.pop()
        if tok[:1] != "-":  # theorem's id, given once
            if values.get("id", 0) is not REQUIRED:
                return None
            flag, value = "id", tok
        elif tok in opts and opts[tok] is None:  # a switch
            values[tok] = True
            continue
        elif tok in opts and rest:
            flag, value = tok, rest.pop()
        else:
            return None
        kind = opts[flag]
        if value[:1] == "-" or type(kind) is tuple and value not in kind:
            return None
        try:
            values[flag] = int(value) if kind is int else value
        except ValueError:
            return None
    if REQUIRED in values.values():
        return None
    return SimpleNamespace(command=argv[0], **{flag.lstrip("-").replace("-", "_"): value
                                               for flag, value in values.items()})


def _argparse(argv: list[str]) -> SimpleNamespace:
    """Read any argv with an argparse parser built from COMMANDS, refusing
    the empty list argparse makes of --flag=--."""
    import argparse

    parser = argparse.ArgumentParser(prog="designgate")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (text, opts, _) in COMMANDS.items():
        sub = commands.add_parser(name, help=text)
        for flag, kind, default, help_text in opts:
            how = ({"action": "store_true"} if kind is None else {"choices": kind}
                   if type(kind) is tuple else {"type": int} if kind is int
                   else {"metavar": "PATH"})
            if default is not REQUIRED:
                how["default"] = default
            elif flag[0] == "-":
                how["required"] = True
            sub.add_argument(flag, help=help_text, **how)
    args = parser.parse_args(argv)
    for dest, value in vars(args).items():
        if value == []:
            flag = "--" + dest.replace("_", "-")
            commands.choices[args.command].error(f"argument {flag}: expected one argument")
    return SimpleNamespace(**vars(args))


def parse_args(argv: list[str] | None = None) -> SimpleNamespace:
    """Read argv (default sys.argv[1:]) as tests/cli_oracle.py's parser does:
    a plain argv without argparse, any other with it."""
    argv = sys.argv[1:] if argv is None else list(argv)
    return _read_plain(argv) or _argparse(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        out = getattr(args, "out", None)  # before the work, so a bad --out wastes none
        if out is not None and not (out and os.path.isdir(os.path.dirname(out) or ".")):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
        if out and os.path.isdir(out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
        return COMMANDS[args.command][2](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
