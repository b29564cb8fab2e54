"""Command-line front end.

Subcommands: lambda, scan, gate, theorem, wenum.  Exit codes: 0 success,
2 bad input, 3 I/O failure, 4 reference-set mismatch.

argv is read against one table, ``COMMANDS``, as argparse reads it: each
token is classified (an option, whole, by a unique prefix or as --flag=value,
or a positional), then the tokens are taken from left to right.  argparse
stays in tests/cli_oracle.py as the oracle this reading is held to; the two
differ only on ``--flag=--``, which argparse reads as an empty list.
Each handler imports the modules only it needs when it runs, so that a
cold start loads no more than its subcommand uses.
"""

from __future__ import annotations

import errno
import os
import sys
from types import SimpleNamespace

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

# One row per option: its flag (a bare name for a positional), what it reads
# (int, str, a tuple of choices, or None for a switch), its default (REQUIRED
# if it must be given) and its help.
REQUIRED = ...
_FAMILY, _M, _T = (("--family", FAMILY_LABELS, REQUIRED, None),
                   ("--m", int, REQUIRED, None), ("--t", int, REQUIRED, None))
_JOBS = ("--jobs", int, 1, _JOBS_HELP)
_OUT = ("--out", str, None, "write output to PATH instead of stdout")
_REPORT = (("--format", FORMATS, "table", None), ("--no-timestamp", None, False,
           "omit the generation timestamp (byte-deterministic output)"), _OUT)
COMMANDS = {
    "lambda": ("print exact lambda levels for one family member", (_FAMILY, _M, _T)),
    "scan": ("lambda-integrality scan over an m range", (_FAMILY, _T, ("--m-min", int, None, None),
             ("--m-max", int, None, None), _JOBS, *_REPORT)),
    "gate": ("run one integrality gate",
             (_FAMILY, _M, _T, ("--u", int, None, "reference weight (default: k)"), *_REPORT)),
    "theorem": ("reproduce a classification result and diff it",
                (("id", THEOREM_IDS, REQUIRED, None), ("--t", int, None,
                 "for thm5.x: stop the ladder at this strength"), _JOBS, *_REPORT)),
    "wenum": ("extremal weight enumerator coefficients", (("--n", int, REQUIRED, None), _OUT)),
}
_PROG, _HELP = "designgate", ("-h/--help", None, False, "show this help message and exit")
_TOP = (("command", tuple(COMMANDS), REQUIRED, None),)


def _exit(prog: str, opts, message: str = ""):
    """Exit 2 with the usage and message on stderr or, without a message, 0
    with the help on stdout: each option, its value's name and its help."""
    rows, usage = [], [f"usage: {prog}"]
    for flag, kind, default, text in (_HELP, *opts):
        meta = ("{%s}" % ",".join(kind) if type(kind) is tuple else "PATH" if kind is str
                else flag[2:].upper() if kind else "")
        rows.append((f"{flag} {meta}".rstrip() if flag[0] == "-" else meta, text or ""))
        usage.append(rows[-1][0] if default is REQUIRED else f"[{rows[-1][0]}]")
    if message:
        sys.stderr.write(f"{' '.join(usage)}\n{prog}: error: {message}\n")
        raise SystemExit(2)
    rows += [(f"  {name}", text) for name, (text, _) in COMMANDS.items() if opts is _TOP]
    sys.stdout.write("\n".join([" ".join(usage), ""] + [f"  {a:<28} {b}".rstrip()
                                                         for a, b in rows]) + "\n")
    raise SystemExit(0)


def _classify(prog: str, opts, flags: dict, tok: str):
    """None for a positional (negative numbers included), else the flag tok
    names, whole, by a unique prefix or joined to a value by '=' (None if
    unknown), and that value.  flags holds -h and --help, then the options
    in table order, the order argparse tries prefixes in."""
    if tok[:1] != "-" or tok == "-":
        return None
    name, eq, value = tok.partition("=")
    if name in flags:
        return name, value if eq else None
    if tok[1] == "-":  # a prefix of long flags, with any '='-joined value
        hits, value = [f for f in flags if f.startswith(name)], value if eq else None
    else:  # a short flag, with the rest of tok as its value
        hits, value = [f for f in flags if f == tok[:2]], tok[2:]
    if len(hits) > 1:
        _exit(prog, opts, f"ambiguous option: {tok} could match {', '.join(hits)}")
    if hits:
        return hits[0], value
    whole, dot, frac = tok[1:].removesuffix("\n").partition(".")  # -\d+$ or -\d*\.\d+$
    number = (frac if dot else whole).isdecimal() and (not whole or whole.isdecimal())
    return None if number or " " in tok else (None, None)


def _read(prog: str, opts, argv: list[str], values: dict) -> list[str]:
    """Read one parser's argv into values, keyed by flag, and return the
    tokens it leaves.  Tokens are classified first, then taken left to
    right: the first bad value or -h decides, then a missing required
    option.  Every token after a '--' is a positional."""
    flags = {"-h": _HELP, "--help": _HELP, **{opt[0]: opt for opt in opts if opt[0][0] == "-"}}
    positional = [opt for opt in opts if opt[0][0] != "-"]
    values.update((f, None if d is REQUIRED else d) for f, _, d, _ in opts)
    end = argv.index("--") if "--" in argv else len(argv)
    kinds = [_classify(prog, opts, flags, tok) for tok in argv[:end]]

    def take(opt, value):
        flag, kind = opt[:2]
        if type(kind) is tuple and value not in kind:
            choices = ", ".join(map(repr, kind))
            _exit(prog, opts, f"argument {flag}: invalid choice: {value!r} (choose from {choices})")
        try:
            values[flag] = int(value) if kind is int else value
        except ValueError:
            _exit(prog, opts, f"argument {flag}: invalid int value: {value!r}")

    extras, i = [], 0
    while i < end:
        tok, kind = argv[i], kinds[i]
        opt, value = (None, None) if kind is None or kind[0] is None else (flags[kind[0]], kind[1])
        i += 1
        if kind is None and positional:
            take(positional.pop(), tok)
            if opts is _TOP:  # the subcommand reads every later token
                return extras + _read(f"{prog} {tok}", COMMANDS[tok][1], argv[i:], values)
            if i == end < len(argv):  # a '--' right after the positional goes with it
                i += 1
        elif opt is None:
            extras.append(tok)
        elif opt[1] is None:  # -h/--help or a switch
            if kind[0] == "-h" and value:  # -hh is -h twice
                value = value.lstrip("h") or None
            if value is not None:
                _exit(prog, opts, f"argument {opt[0]}: ignored explicit argument {value!r}")
            if opt is _HELP:
                _exit(prog, opts)
            values[opt[0]] = True
        elif value is not None:
            take(opt, value)
        elif i < end and kinds[i] is None:
            take(opt, argv[i])
            i += 1
        else:
            _exit(prog, opts, f"argument {opt[0]}: expected one argument")
    rest = argv[i:]
    if positional and rest[1:]:  # '--' and a positional; argparse names no subcommand '--'
        take(positional.pop(), rest[0] if opts is _TOP else rest[1])
        rest = rest[2:]
    missing = [f for f, _, d, _ in opts if d is REQUIRED and values[f] is None]
    if missing:
        _exit(prog, opts, f"the following arguments are required: {', '.join(missing)}")
    return extras + rest


def parse_args(argv: list[str] | None = None) -> SimpleNamespace:
    """Read argv (default sys.argv[1:]) as tests/cli_oracle.py's parser does."""
    values = {}
    extras = _read(_PROG, _TOP, sys.argv[1:] if argv is None else list(argv), values)
    if extras:
        _exit(_PROG, _TOP, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**{f.lstrip("-").replace("-", "_"): v for f, v in values.items()})


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
    args = parse_args(argv)
    try:
        out = getattr(args, "out", None)  # before the work, so a bad --out wastes none
        if out is not None and not (out and os.path.isdir(os.path.dirname(out) or ".")):
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
