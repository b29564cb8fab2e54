"""Layout rules for the package source."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "designgate"


def test_no_source_line_is_longer_than_100_columns():
    # Line counts are a measure of the package's size only while lines stay
    # this short.
    long = [f"{path.relative_to(SRC)}:{n}: {len(line)} columns"
            for path in sorted(SRC.rglob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 100]
    assert long == []


def test_no_assert_statement_in_the_package_or_scripts():
    # ``python -O`` strips assert statements, so an invariant checked by
    # one would silently stop being checked.
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted([*SRC.rglob("*.py"), *(ROOT / "scripts").rglob("*.py")])
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
