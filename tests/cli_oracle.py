"""Test oracle for the argv reading of :mod:`designgate.cli`: the CLI's
interface as an argparse parser, written out by hand.  ``cli.parse_args``
reads a plain argv from one option table without importing argparse, and
any other argv with an argparse parser built from that table; the tests
check that the CLI and this parser accept the same argv, give the same
values and fail with the same ``error:`` line.  They differ only on
``--flag=--``, which argparse reads as an empty list and the CLI refuses.
"""

from __future__ import annotations

import argparse

from designgate.cli import _JOBS_HELP
from designgate.families import FAMILY_LABELS, THEOREM_IDS
from designgate.report import FORMATS


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
