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


def test_cross_module_private_imports_are_the_known_ones():
    # A helper private to its module that another module imports couples the
    # two; a new coupling shows up as an edit to this set.
    found = {(path.stem, node.module, alias.name)
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) and node.level and node.module
             for alias in node.names if alias.name.startswith("_")}
    assert found == {("gleason", "families", name) for name in (
        "_burmann_coefficient", "_extremal_counts", "_phi_power_prefix")}


def test_no_package_module_imports_future():
    # Annotations evaluate at definition time on every supported Python, so
    # the line buys nothing, and ``__future__`` is one more module a cold
    # start reads; an annotation naming a module-local import is a string.
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) and node.module == "__future__"
             or isinstance(node, ast.Import) and any(a.name == "__future__" for a in node.names)]
    assert found == []
