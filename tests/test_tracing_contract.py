"""The benchmark tracer's view of the package stays valid.

``perfbench/tracer.py`` wraps public functions by name and its probes read
call arguments by parameter name.  Loading it read-only and resolving every
name here means a refactor that removes or renames one of those functions or
parameters fails in tier-1, not only under ``perfbench/run.py --trace 1``.
"""

import ast
import importlib
import importlib.util
import inspect
import textwrap
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
