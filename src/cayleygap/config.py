"""Key-value experiment configuration files.

Format: one ``key = value`` pair per line, each key once, ``#`` comments,
values parsed as Python literals when possible (numbers, lists) and as bare
strings otherwise.

    group = cyclic(101)
    set = symmetric_random(8)
    seed = 7
    delta = 0.3
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from .errors import IoFailure
from .groups import FiniteGroup, GroupSubset
from .sampling import SeededStream, random_subset, random_symmetric_subset


def parse_config_text(text: str) -> dict:
    """The ``key = value`` pairs of ``text``; a key given twice is an error."""
    values: dict = {}
    lines: dict[str, int] = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key in lines:
            raise ValueError(f"config line {lineno}: key {key!r} repeats line {lines[key]}")
        lines[key] = lineno
        try:
            value = ast.literal_eval(value_text)
        except (ValueError, SyntaxError):
            value = value_text
        values[key] = value
    return values


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


_SET_CALL_RE = re.compile(r"^([a-z_]+)\s*\((.*)\)$")


def resolve_subset(group: FiniteGroup, spec, seed: int) -> GroupSubset:
    """Subset from a config value: explicit index list, ``full``,
    ``random(size)``, ``symmetric_random(size)``, or ``interval(start, length)``.
    A size or length must lie in [0, |G|], and a ``symmetric_random`` size in [1, |G|].
    The two random kinds draw from ``SeededStream(seed)``, which equals
    ``numpy.random.default_rng(seed)`` draw for draw without importing ``numpy.random``."""
    if isinstance(spec, (list, tuple)):
        if any(isinstance(x, bool) for x in spec):  # from_indices would read True as 1
            raise ValueError(f"subset indices must be integers, got {spec!r}")
        return GroupSubset.from_indices(group, spec)
    if isinstance(spec, str):
        text = spec.strip()
        if text == "full":
            return GroupSubset.full(group)
        match = _SET_CALL_RE.match(text)
        if match:
            kind = match.group(1)
            args = [int(a) for a in match.group(2).split(",") if a.strip()]
            if len(args) == {"random": 1, "symmetric_random": 1, "interval": 2}.get(kind):
                low = int(kind == "symmetric_random")
                if not low <= args[-1] <= group.order:
                    raise ValueError(f"set {spec!r}: size {args[-1]} outside [{low}, {group.order}] on {group.name}")
                if kind == "interval":
                    return GroupSubset.from_indices(group, [(args[0] + j) % group.order for j in range(args[1])])
                draw = random_symmetric_subset if low else random_subset
                return draw(group, args[0], SeededStream(seed))
    raise ValueError(f"cannot resolve set spec {spec!r}")
