"""Every Python file of the project parses as Python 3.10, the oldest version
``pyproject.toml`` supports (``requires-python = ">=3.10"``), so syntax added
in 3.11 or later (``except*``, for one) fails here on any newer interpreter.
The files are only read, never imported."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py"))


def test_sources_found():
    tops = {path.relative_to(ROOT).parts[0] for path in SOURCES}
    assert tops == {"src", "tests", "perfbench"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_310(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_rejects_exception_groups():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
