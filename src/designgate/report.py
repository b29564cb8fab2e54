"""Structured reports and their deterministic renderings.

A report is a flat list of rows plus a surviving set.  Rows are plain dicts
with a ``row`` discriminator ("set", "gate" or "lambda"); every number is
rendered as an exact decimal or "p/q" string, never rounded.  Renderings are
byte-deterministic for identical inputs: fixed field order, ascending keys,
no locale formatting.  The timestamp is excluded from that contract and can
be dropped entirely (``generated_at=None``).  The json, csv and datetime
modules are imported by the function that uses them, so that a command that
renders a table does not load them.
"""

from .families import FORMATS

_CSV_FIELDS = (
    "row", "stage", "label", "family", "m", "t", "u", "level",
    "value", "integral", "F", "quotient", "verdict", "ms",
)


def timestamp_now() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def set_row(label: str, ms, stage: int | None = None) -> dict:
    row = {"row": "set", "label": label, "ms": sorted(ms)}
    if stage is not None:
        row["stage"] = stage
    return row


def gate_row(res, stage: int | None = None) -> dict:
    row = {
        "row": "gate",
        "family": res.family,
        "m": res.m,
        "t": res.t,
        "u": res.u,
        "F": str(res.F),
        "quotient": str(res.quotient),
        "verdict": res.verdict,
    }
    if stage is not None:
        row["stage"] = stage
    return row


def lambda_row(m: int, level: int, value) -> dict:
    return {
        "row": "lambda",
        "m": m,
        "level": level,
        "value": str(value),
        "integral": value.denominator == 1,
    }


class Report:
    """One report: identifier, parameter echo, rows, surviving set."""

    def __init__(self, id: str, inputs: dict, rows: list[dict] | None = None,
                 surviving_set: list[int] | None = None, generated_at: str | None = None):
        self.id = id
        self.inputs = inputs
        self.rows = [] if rows is None else rows
        self.surviving_set = [] if surviving_set is None else surviving_set
        self.generated_at = generated_at

    def to_dict(self) -> dict:
        out = {"id": self.id}
        if self.generated_at is not None:
            out["generated_at"] = self.generated_at
        out["inputs"] = self.inputs
        out["rows"] = self.rows
        out["surviving_set"] = self.surviving_set
        return out


def render(report: Report, fmt: str) -> str:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if fmt == "json":
        import json

        return json.dumps(report.to_dict(), indent=2) + "\n"
    if fmt == "csv":
        return _render_csv(report)
    return _render_table(report)


def _render_csv(report: Report) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for row in report.rows:
        out = dict(row)
        if "ms" in out:
            out["ms"] = ";".join(str(m) for m in out["ms"])
        writer.writerow(out)
    writer.writerow({"row": "surviving",
                     "ms": ";".join(str(m) for m in report.surviving_set)})
    return buf.getvalue()


def _format_cells(rows: list[list[str]]) -> list[str]:
    if not rows:
        return []
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows]


def _render_table(report: Report) -> str:
    lines = [f"report: {report.id}"]
    if report.generated_at is not None:
        lines.append(f"generated: {report.generated_at}")
    for key in sorted(report.inputs):
        lines.append(f"{key}: {report.inputs[key]}")
    gate_rows = [r for r in report.rows if r["row"] == "gate"]
    lambda_rows = [r for r in report.rows if r["row"] == "lambda"]
    for r in report.rows:
        if r["row"] == "set":
            stage = f" [t={r['stage']}]" if "stage" in r else ""
            ms = ", ".join(str(m) for m in r["ms"])
            lines.append(f"{r['label']}{stage} ({len(r['ms'])}): {{{ms}}}")
    if lambda_rows:
        cells = [["m", "level", "value", "integral"]]
        for r in lambda_rows:
            cells.append([str(r["m"]), str(r["level"]), r["value"],
                          "yes" if r["integral"] else "NO"])
        lines.append("")
        lines.extend(_format_cells(cells))
    if gate_rows:
        cells = [["family", "m", "t", "u", "quotient", "verdict"]]
        for r in gate_rows:
            cells.append([str(r["family"]), str(r["m"]), str(r["t"]), str(r["u"]),
                          r["quotient"], r["verdict"]])
        lines.append("")
        lines.extend(_format_cells(cells))
    surv = ", ".join(str(m) for m in report.surviving_set)
    lines.append(f"surviving ({len(report.surviving_set)}): {{{surv}}}")
    return "\n".join(lines) + "\n"
