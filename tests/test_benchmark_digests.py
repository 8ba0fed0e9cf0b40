"""The benchmark's stored digests hold in tier-1.

Every ``perfbench/configs/*.cfg`` runs at seed 0 through the CLI, and the
configs whose subcommands convolve (``bounds``, ``scan``, ``experiment``) run
at seed 7 too.  Each report is compared with its workload's ``perfbench/expected/<workload>.json``
by ``perfbench/checks.py``, loaded read-only by path.  A changed verdict or
bound, or spectral drift beyond the benchmark's 1e-9 relative tolerance, then
fails here, not only under ``perfbench/run.py``.
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
# config-stem prefix (the subcommand) -> workload whose expectations hold it
WORKLOAD_OF = {"spectrum": "spectrum", "bounds": "bounds", "scan": "scans", "bohr": "scans", "experiment": "scans"}
EXPECTED = {name: CHECKS.Expectations(PERFBENCH / "expected" / f"{name}.json") for name in set(WORKLOAD_OF.values())}
STEMS = sorted(path.stem for path in (PERFBENCH / "configs").glob("spectrum-*.cfg"))
OTHER_STEMS = sorted(
    path.stem for path in (PERFBENCH / "configs").glob("*.cfg") if not path.stem.startswith("spectrum-")
)
CONVOLVING_STEMS = [stem for stem in OTHER_STEMS if stem.partition("-")[0] in ("bounds", "scan", "experiment")]


def _check_digest(stem: str, tmp_path: Path, seed: int = 0) -> None:
    kind, _, rest = stem.partition("-")
    argv = ["experiment", rest] if kind == "experiment" else [kind]
    out = tmp_path / f"{stem}.csv"
    config = PERFBENCH / "configs" / f"{stem}.cfg"
    code = cli_main([*argv, "--config", str(config), "--seed", str(seed), "--out", str(out)])
    expected = EXPECTED[WORKLOAD_OF[kind]]
    assert expected.expected(stem, seed)[1] == "stored"
    assert expected.check(stem, seed, CHECKS.digest(argv[0], code, out)) == []


def test_five_spectrum_configs():
    assert len(STEMS) == 5


def test_fourteen_bounds_and_scans_configs():
    workloads = [WORKLOAD_OF[stem.partition("-")[0]] for stem in OTHER_STEMS]
    assert (workloads.count("bounds"), workloads.count("scans")) == (5, 9)


@pytest.mark.parametrize("stem", STEMS)
def test_spectrum_digest_matches_expected(stem, tmp_path):
    _check_digest(stem, tmp_path)


@pytest.mark.parametrize("stem", OTHER_STEMS)
def test_digest_matches_expected(stem, tmp_path):
    _check_digest(stem, tmp_path)


def test_eleven_convolving_configs():
    assert len(CONVOLVING_STEMS) == 11


@pytest.mark.parametrize("stem", CONVOLVING_STEMS)
def test_convolving_digest_matches_expected_at_seed_7(stem, tmp_path):
    _check_digest(stem, tmp_path, seed=7)
