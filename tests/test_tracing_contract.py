"""The benchmark tracer's view of the package stays valid.

``perfbench/tracer.py`` wraps public functions by name and its probes read
call arguments by parameter name.  Loading it read-only and resolving every
name here means a refactor that removes or renames one of those functions or
parameters fails in tier-1, not only under ``perfbench/run.py --trace 1``.
The traced child itself runs here too, on one config of each probed kind.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from cayleygap.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("cayleygap_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


def _home(qualified: str):
    layer, name = qualified.split(".")
    return getattr(importlib.import_module(f"cayleygap.{layer}"), name, None)


def _probe_reads(probe) -> list[str]:
    """Argument names a probe reads as ``args["name"]``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(probe)))
    return sorted(
        {
            node.slice.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
            and isinstance(node.slice, ast.Constant)
        }
    )


TRACED_NAMES = [f"{layer}.{name}" for layer, names in TRACER.TRACED.items() for name in names]
PROBE_READS = [
    (qualified, arg) for qualified, probe in TRACER.PROBES.items() for arg in _probe_reads(probe)
]


@pytest.mark.parametrize("qualified", TRACED_NAMES)
def test_traced_name_resolves(qualified):
    assert callable(_home(qualified)), f"{qualified} is traced but not a function of cayleygap"


def test_probes_read_arguments():
    # guards the AST scan itself, which would otherwise pass by finding nothing
    expected = {"s", "f", "delta", "values", "max_terms", "exhaustive", "seed", "samples"}
    assert {arg for _, arg in PROBE_READS} >= expected


@pytest.mark.parametrize("qualified,arg", PROBE_READS)
def test_probed_argument_is_a_parameter(qualified, arg):
    assert qualified in TRACED_NAMES, f"{qualified} is probed but not traced"
    parameters = inspect.signature(_home(qualified)).parameters
    assert arg in parameters, f"the probe of {qualified} reads {arg!r}, not a parameter"


@pytest.mark.parametrize(
    "stem, span, calls, counter",
    [
        ("scan-cyclic1009", "bohr.max_progression_mass", 2, "bohr.max_progression_mass.windows_computed"),  # sampled
        ("scan-cyclic293", "bohr.max_progression_mass", 2, "bohr.max_progression_mass.windows_computed"),  # exhaustive
        ("bounds-s5", "groups.convolve", None, "groups.convolve.bytes_computed"),
        ("spectrum-s5", "spectra.laplace_spectrum_dense", None, "spectra.dense_order_max"),
    ],
)
def test_traced_child_writes_the_untraced_report(tmp_path, stem, span, calls, counter):
    """The benchmark's traced child, run as ``perfbench/run.py --trace 1`` runs
    it, exits and writes the same report bytes as an untraced ``main``, and its
    probes record the spans and counters they exist for."""

    def argv(out):
        command = stem.partition("-")[0]
        return [command, "--config", str(ROOT / "perfbench" / "configs" / f"{stem}.cfg"), "--seed", "0", "--out", str(out)]

    result = tmp_path / "result.json"
    child = [sys.executable, "-I", str(ROOT / "perfbench" / "child.py"), str(result), "trace", "--"]
    traced = subprocess.run([*child, *argv(tmp_path / "traced.csv")], cwd=ROOT, capture_output=True)
    code = main(argv(tmp_path / "plain.csv"))
    assert traced.returncode == code, traced.stderr.decode()
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    trace = json.loads(result.read_text())["trace"]
    called = trace["layers"][span]["calls"]
    assert called > 0 and calls in (None, called)
    assert trace["counters"][counter] > 0
