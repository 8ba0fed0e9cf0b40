"""Deterministic CSV / JSON emission of verification records.

Records are flat dicts; rows are sorted by instance id so identical runs
produce byte-identical files.  Floating-point values are emitted with 12
significant digits in both formats.  CSV is formatted one column at a time:
a column whose cells are all exactly float, int or str takes one % pass, and
only its cells that hold a comma or a quote are quoted afterwards; any other
column goes through ``format_value`` cell by cell, to the same bytes.
"""

from __future__ import annotations

from pathlib import Path

from .bounds import BoundReport
from .errors import IoFailure

BOUND_COLUMNS = [
    "instance",
    "bound_name",
    "group",
    "group_order",
    "set_size",
    "d",
    "g",
    "omega_size",
    "bound",
    "measured",
    "slack",
    "holds",
    "verdict",
]


def records_pass(records: list[dict]) -> bool:
    """True when no asserted record fails; rows marked ``asserted=False`` are
    informational and never fail a run."""
    return not any(r.get("asserted", True) and r.get("verdict") == "fail" for r in records)


def format_value(value) -> str:
    """12-significant-digit rendering for floats; plain str otherwise."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def round_float(value: float) -> float:
    return float(f"{value:.12g}")


def bound_record(
    report: BoundReport, instance: str, group_name: str, asserted: bool | None = None
) -> dict:
    """Flat record of a bound report; ``asserted`` is added as the last key
    when given (experiments mark informational rows ``asserted=False``)."""
    params = report.parameters
    record = {
        "instance": instance,
        "bound_name": report.bound_name,
        "group": group_name,
        "group_order": params.get("group_order", params.get("vertex_count", "")),
        "set_size": params.get("set_size", params.get("valency", "")),
        "d": params.get("d", ""),
        "g": params.get("g", ""),
        "omega_size": params.get("omega_size", ""),
        "bound": report.bound_value,
        "measured": report.measured,
        "slack": report.slack,
        "holds": report.holds,
        "verdict": report.verdict,
    }
    if asserted is not None:
        record["asserted"] = asserted
    return record


_COLUMN_FORMATS = {float: "%.12g\n", int: "%d\n", str: "%s\n"}  # format_value of a cell of exactly that type


def _csv_column(cells: list) -> list[str]:
    """The column's CSV cells, each quoted when it holds ``,`` or ``"``: one % pass, with
    each cell's format by its type, when every cell is exactly a float, int or str (a
    bool or np.float64 is none of them) and no str cell holds a newline;
    ``format_value`` cell by cell otherwise."""
    texts = None
    if set(map(type, cells)) <= _COLUMN_FORMATS.keys():
        text = "".join(map(_COLUMN_FORMATS.__getitem__, map(type, cells))) % tuple(cells)
        if text.count("\n") == len(cells):
            texts = text.split("\n")[:-1]
            if "," not in text and '"' not in text:
                return texts
    texts = texts or map(format_value, cells)
    return ['"' + text.replace('"', '""') + '"' if "," in text or '"' in text else text for text in texts]


def render_csv(records: list[dict], columns: list[str]) -> str:
    """CSV text, one column formatted at a time (``_csv_column``) and the rows joined once."""
    cells = [_csv_column([record.get(col, "") for record in records]) for col in columns]
    rows = map(",".join, zip(*cells)) if columns else [""] * len(records)
    return "\n".join([",".join(columns), *rows]) + "\n"


def json_ready(record: dict) -> dict:
    out = {}
    for key, value in record.items():
        if isinstance(value, float):
            out[key] = round_float(value)
        elif isinstance(value, (bool, int, str)) or value is None:
            out[key] = value
        else:
            out[key] = str(value)
    return out


def render_report(records: list[dict], fmt: str, columns: list[str] | None = None) -> str:
    """Deterministic CSV or JSON text of the records, sorted by instance; CSV
    columns default to the keys in first-seen order (BOUND_COLUMNS if none)."""
    if fmt not in ("csv", "json"):
        raise IoFailure(f"unsupported format {fmt!r}; use csv or json")
    ordered = sorted(records, key=lambda r: str(r.get("instance", "")))
    if fmt == "json":
        import json  # only JSON reports load it: the CLI's CSV runs skip its import
        return json.dumps([json_ready(r) for r in ordered], indent=2, sort_keys=True) + "\n"
    if columns is None:
        columns = list(dict.fromkeys(key for r in ordered for key in r)) or BOUND_COLUMNS
    return render_csv(ordered, columns)


def emit_report(
    records: list[dict],
    fmt: str,
    out_path: str | Path,
    columns: list[str] | None = None,
) -> Path:
    """Write records deterministically; returns the output path."""
    text = render_report(records, fmt, columns)
    path = Path(out_path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write report to {path}: {exc}") from exc
    return path
