"""CSV rendering: column-at-a-time formatting against the former per-cell loop."""

from pathlib import Path

import numpy as np
import pytest

from cayleygap import cli
from cayleygap.reports import format_value, render_csv


def _per_cell_csv(records, columns):
    """The former per-cell ``render_csv`` loop, kept as the oracle."""
    lines = [",".join(columns)]
    for record in records:
        cells = []
        for col in columns:
            text = format_value(record.get(col, ""))
            if "," in text or '"' in text:
                text = '"' + text.replace('"', '""') + '"'
            cells.append(text)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _column(values):
    return [{"x": value} for value in values]


CASES = {
    "floats": (_column([0.5, -0.0, 1e16, 1e-5, 5e-324, 123456789012.5, float("inf"), float("nan")]), ["x"]),
    "ints": (_column([0, -7, 10**40]), ["x"]),
    "bools": (_column([True, False]), ["x"]),
    "bool among ints": (_column([1, True, 0]), ["x"]),
    "numpy floats": (_column([np.float64(0.1), np.float64(2.5)]), ["x"]),
    "numpy float among floats": (_column([0.1, np.float64(2.5)]), ["x"]),
    "none": (_column([None, "a"]), ["x"]),
    "missing cells": ([{"x": 1.5}, {"y": 2}, {}], ["x", "y", "z"]),
    "comma": (_column(["a", "b,c"]), ["x"]),
    "quote": (_column(['say "hi"', "b"]), ["x"]),
    "newline": (_column(["a\nb", "c"]), ["x"]),
    "mixed types": (_column([1, 1.5, "s", None, True]), ["x"]),
    "no records": ([], ["x", "y"]),
    "no columns": (_column([1, 2]), []),
    "plain strings": ([{"x": "dense-00001", "y": "pass"}, {"x": "zz", "y": "fail"}], ["x", "y"]),
    "floats among ints": (_column([3, 0.5, -0.0, 2**64 + 1, float("nan"), -7, float("inf"), -float("inf"), -(2**70)]), ["x"]),
    "strings among floats and ints": (_column([1, 0.25, "pass", 2**63, "-0"]), ["x"]),
    "quoted string among floats and ints": (_column([1, 0.25, "a,b"]), ["x"]),
    "newline string among ints": (_column([1, "a\nb"]), ["x"]),
    "numpy scalars among floats and ints": (
        _column([1, 0.5, np.float64(-0.0), np.int64(2**62), True, float("nan"), 2**63 + 5, np.float64("inf")]),
        ["x"],
    ),
    "bool among floats": (_column([0.5, False, -0.0]), ["x"]),
}


@pytest.mark.parametrize("records, columns", CASES.values(), ids=CASES.keys())
def test_render_csv_matches_per_cell_loop(records, columns):
    assert render_csv(records, columns) == _per_cell_csv(records, columns)


def test_random_float_bits_match_per_cell_loop():
    bits = np.random.default_rng(5).integers(0, 2**63, size=20000, dtype=np.int64).view(np.float64)
    records = _column(bits.tolist())
    assert render_csv(records, ["x"]) == _per_cell_csv(records, ["x"])


@pytest.mark.parametrize(
    "stem",
    [
        "spectrum-cyclic1200",
        "spectrum-cyclic1000",
        "spectrum-dihedral500",
        "spectrum-abelian12x15",
        "spectrum-s5",
        # the measured and bound columns mix floats and ints
        "bohr-dihedral200",
        "bohr-cyclic199",
        "bohr-abelian12x15",
    ],
)
def test_cli_reports_match_per_cell_loop(stem, monkeypatch, capsys):
    """The records ``cayleygap spectrum`` and ``bohr`` render on each benchmark config."""
    seen = []

    def render(records, fmt, columns=None):
        ordered = sorted(records, key=lambda r: r["instance"])
        text = render_csv(ordered, columns)
        seen.append(text == _per_cell_csv(ordered, columns))
        return text

    monkeypatch.setattr(cli, "render_report", render)
    config = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / f"{stem}.cfg"
    assert cli.main([stem.partition("-")[0], "--config", str(config), "--seed", "4"]) == cli.EXIT_PASS
    assert seen == [True]
    assert len(capsys.readouterr().out.splitlines()) > 120
