"""The package's one memo, families.member, and what it saves.

A new memo must show in a benchmark that it pays for itself; the static
test below makes adding one a visible change to this file."""

import ast
from pathlib import Path

from designgate import families, gleason
from designgate.families import M_MAXES
from designgate.theorems import THEOREM_IDS, run_theorem

SRC = Path(__file__).resolve().parents[1] / "src" / "designgate"
MEMOS = {"lru_cache", "cache"}


def _is_memo(node) -> bool:
    """Whether ``node`` names functools.lru_cache or functools.cache."""
    if isinstance(node, ast.Name):
        return node.id in MEMOS
    return (isinstance(node, ast.Attribute) and node.attr in MEMOS
            and isinstance(node.value, ast.Name) and node.value.id == "functools")


def test_the_package_has_exactly_one_memo():
    decorated, uses = set(), 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            uses += _is_memo(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    if _is_memo(dec.func if isinstance(dec, ast.Call) else dec):
                        decorated.add(f"{path.stem}.{node.name}")
    assert decorated == {"families.member"}
    assert uses == len(decorated)  # no memo is made other than by decorating a def


def test_the_seven_drivers_make_at_most_two_buermann_evaluations_per_member(
        member_builds, monkeypatch):
    calls = []
    real = families._burmann_coefficient

    def counting(a, j):
        calls.append((a, j))
        return real(a, j)

    for module in (families, gleason):
        monkeypatch.setattr(module, "_burmann_coefficient", counting)
    for theorem_id in THEOREM_IDS:
        run_theorem(theorem_id, timestamp=False)
    # Every m >= 1 of every family enters its ladder; each record is built once.
    assert sorted(member_builds) == [(r, m) for r in range(3) for m in range(1, M_MAXES[r] + 1)]
    assert len(calls) <= 2 * len(member_builds) == 2 * 474
