"""Layout rules for the package source."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "designgate"


def test_no_source_line_is_longer_than_100_columns():
    # Line counts are a measure of the package's size only while lines stay
    # this short.
    long = [f"{path.relative_to(SRC)}:{n}: {len(line)} columns"
            for path in sorted(SRC.rglob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 100]
    assert long == []
