"""The benchmark's stored ``spectrum`` digests hold in tier-1.

Each ``perfbench/configs/spectrum-*.cfg`` runs at seed 0 through the CLI, and
its report is compared with ``perfbench/expected/spectrum.json`` by
``perfbench/checks.py``, loaded read-only by path.  Spectral drift beyond the
benchmark's 1e-9 relative tolerance then fails here, not only under
``perfbench/run.py``.
"""

import importlib.util
from pathlib import Path

import pytest

from cayleygap.cli import main as cli_main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_checks():
    spec = importlib.util.spec_from_file_location("cayleygap_bench_checks", PERFBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECKS = _load_checks()
EXPECTED = CHECKS.Expectations(PERFBENCH / "expected" / "spectrum.json")
STEMS = sorted(path.stem for path in (PERFBENCH / "configs").glob("spectrum-*.cfg"))


def test_five_spectrum_configs():
    assert len(STEMS) == 5


@pytest.mark.parametrize("stem", STEMS)
def test_spectrum_digest_matches_expected(stem, tmp_path):
    out = tmp_path / f"{stem}.csv"
    config = PERFBENCH / "configs" / f"{stem}.cfg"
    code = cli_main(["spectrum", "--config", str(config), "--seed", "0", "--out", str(out)])
    _, kind = EXPECTED.expected(stem, 0)
    assert kind == "stored"
    assert EXPECTED.check(stem, 0, CHECKS.digest("spectrum", code, out)) == []
