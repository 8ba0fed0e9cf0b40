"""Result check for one cayleygap invocation.

An invocation is reduced to a digest of what a later change must not alter:
the exit code, the ``(instance, verdict)`` pairs and the ``bound`` /
``measured`` values of every report row, and for ``spectrum`` the row
counts, the ``zz-path-agreement`` verdict and 17 order statistics of each
dense spectrum column.  Provenance columns (``scan``, ``path`` of eigenvalue
rows, witnesses, parameters) are not part of the digest.  Numbers compare to
1e-9 relative.

Expectations are stored per shipped seed in ``expected/<workload>.json``.
For any other seed, only the digest fields that are identical on every
shipped seed are compared: the exit code everywhere, and every field of
invocations whose output does not depend on the seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

REL_TOL = 1e-9
ABS_FLOOR = 1e-12  # roundoff-level values near 0 (e.g. the trivial eigenvalue)
ORDER_STATISTICS = 17
SPECTRUM_COLUMNS = ("eigenvalue_re", "eigenvalue_im", "star_eigenvalue")


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _order_statistics(values: list[float]) -> list[float]:
    ordered = sorted(values)
    last = len(ordered) - 1
    return [ordered[round(k * last / (ORDER_STATISTICS - 1))] for k in range(ORDER_STATISTICS)]


def digest(command: str, exit_code: int, report: Path) -> dict:
    """The comparable content of one invocation's exit code and CSV report."""
    rows = []
    try:
        if report.is_file():
            with report.open(newline="", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
        return {"exit": exit_code, **_digest_rows(command, rows)}
    except (csv.Error, KeyError, TypeError, ValueError) as exc:
        return {"exit": exit_code, "unreadable": repr(exc)}


def _digest_rows(command: str, rows: list[dict]) -> dict:
    if command == "spectrum":
        dense = [row for row in rows if row["instance"].startswith("dense-")]
        agreement = [row["path"] for row in rows if row["instance"] == "zz-path-agreement"]
        result = {
            "dense_rows": len(dense),
            "blocks_rows": sum(row["instance"].startswith("blocks-") for row in rows),
            "agreement": agreement[0] if agreement else None,
        }
        for column in SPECTRUM_COLUMNS:
            values = [float(row[column]) for row in dense]
            result[column] = _order_statistics(values) if values else []
        return result
    return {
        "verdicts": sorted([row["instance"], row["verdict"]] for row in rows),
        "numbers": {
            row["instance"]: [_number(row.get("bound", "")), _number(row.get("measured", ""))]
            for row in rows
        },
    }


def digest_key(value: dict) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def compare(expected, observed, where: str = "") -> list[str]:
    """Mismatches between an expected and an observed digest (empty when equal)."""
    if isinstance(expected, float) and isinstance(observed, float):
        scale = max(abs(expected), abs(observed))
        if expected == observed or abs(expected - observed) <= REL_TOL * scale + ABS_FLOOR:
            return []
    elif isinstance(expected, dict) and isinstance(observed, dict):
        problems = []
        for key in sorted(set(expected) | set(observed), key=str):
            if key not in observed or key not in expected:
                problems.append(f"{where}/{key}: present on one side only")
            else:
                problems += compare(expected[key], observed[key], f"{where}/{key}")
        return problems
    elif isinstance(expected, list) and isinstance(observed, list) and len(expected) == len(observed):
        problems = []
        for i, (a, b) in enumerate(zip(expected, observed)):
            problems += compare(a, b, f"{where}[{i}]")
        return problems
    elif expected == observed:
        return []
    return [f"{where}: expected {json.dumps(expected)[:120]}, got {json.dumps(observed)[:120]}"]


class Expectations:
    """Stored digests for one workload, keyed by seed and config stem."""

    def __init__(self, path: Path):
        data = json.loads(path.read_text(encoding="utf-8"))
        self.seeds: dict[str, dict[str, str]] = data["seeds"]
        self.digests: dict[str, dict] = data["digests"]
        self._seed_free: dict[str, dict] = {}

    def expected(self, stem: str, seed: int) -> tuple[dict, str]:
        """(expected digest, "stored" | "seed-free") for one invocation."""
        keys = self.seeds.get(str(seed))
        if keys is not None:
            return self.digests[keys[stem]], "stored"
        if stem not in self._seed_free:
            shipped = [self.digests[keys[stem]] for keys in self.seeds.values()]
            first = shipped[0]
            self._seed_free[stem] = {
                field: value
                for field, value in first.items()
                if all(other.get(field) == value for other in shipped[1:])
            }
        return self._seed_free[stem], "seed-free"

    def check(self, stem: str, seed: int, observed: dict) -> list[str]:
        expected, _ = self.expected(stem, seed)
        return compare(expected, {key: observed.get(key) for key in expected})


def write_expectations(path: Path, per_seed: dict[int, dict[str, dict]]) -> None:
    """Store {seed: {stem: digest}} with identical digests kept once."""
    seeds: dict[str, dict[str, str]] = {}
    digests: dict[str, dict] = {}
    for seed in sorted(per_seed):
        seeds[str(seed)] = {}
        for stem, value in per_seed[seed].items():
            key = digest_key(value)
            digests[key] = value
            seeds[str(seed)][stem] = key

    def block(items) -> str:  # one JSON member per line keeps the file diffable
        return "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in items) + "\n}"

    text = '{"digests": ' + block(sorted(digests.items())) + ',\n"seeds": ' + block(seeds.items()) + "}\n"
    path.write_text(text, encoding="utf-8")
