"""Outside-in tracer for cayleygap.

Wraps the public functions listed in TRACED at every place they are bound:
the home module, every module that copied them with ``from .x import f``,
and module-level dicts such as ``experiments.EXPERIMENTS``.  Spans are kept
in memory and summarised once, when the traced process ends; nothing inside
the package is edited.  ``irrep_catalog`` is wrapped around its
``lru_cache`` callable, so its cache behaves as it does untraced.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time

# layer (module of cayleygap) -> public functions timed in that layer
TRACED = {
    "groups": ("make_group", "convolve", "product_set"),
    "representations": ("irrep_catalog", "fourier_transform", "set_norm"),
    "spectra": (
        "laplace_spectrum_dense",
        "laplace_spectrum_blocks",
        "variational_lambda1",
        "lambda1",
        "lambda1_star",
        "multiset_distance",
    ),
    "bounds": (
        "rep_count",
        "verify_diameter_bound",
        "verify_basis_bound",
        "verify_exceptional_bound",
        "verify_exceptional_bound_star",
        "verify_fourier_norm_bound",
        "verify_uniformity",
    ),
    "bohr": (
        "max_progression_mass",
        "gap_from_progressions",
        "progressions_from_gap",
        "progressions_from_gap_certified",
        "bohr_set",
        "bohr_symmetry_normality_check",
        "bohr_sum_rule_check",
        "check_bohr_half_size",
        "check_bohr_eps_size",
        "bohr_doubling_check",
        "ruzsa_covering",
        "find_regular",
        "multi_bohr_lower_bound_check",
        "verify_progression_basis_bound",
        "verify_bohr_basis_bound",
        "verify_bohr_basis_bound_certified",
    ),
    "experiments": ("run_triple_free", "run_sidon", "run_additive_basis", "run_interval_union"),
    "config": ("load_config", "resolve_subset"),
    "reports": ("emit_report",),
}

# spans whose call count is itself a per-layer metric
COUNTED = (
    "groups.convolve",
    "representations.irrep_catalog",
    "representations.fourier_transform",
    "representations.set_norm",
    "spectra.laplace_spectrum_dense",
    "spectra.laplace_spectrum_blocks",
    "spectra.variational_lambda1",
    "spectra.lambda1",
    "spectra.lambda1_star",
    "bohr.max_progression_mass",
)

# counters summed over a pass, and digests whose distinct share is reported
COUNTERS = (
    "groups.convolve.bytes_computed",
    "bohr.max_progression_mass.windows_computed",
    "reports.bytes_written",
)
MAXIMA = ("spectra.dense_order_max",)
DIGESTS = ("spectra.lambda1", "bohr.max_progression_mass")


def _subset_digest(s) -> str:
    return hashlib.sha1(s.group.name.encode() + s.membership.tobytes()).hexdigest()


def _probe_convolve(tracer, args, result):
    n = args["f"].group.order
    tracer.add("groups.convolve.bytes_computed", n * n * 8)  # one n x n gather of 8-byte cells


def _probe_lambda1(tracer, args, result):
    tracer.digest("spectra.lambda1", _subset_digest(args["s"]))
    tracer.maximum("spectra.dense_order_max", args["s"].group.order)


def _probe_dense_order(tracer, args, result):
    tracer.maximum("spectra.dense_order_max", args["s"].group.order)


def _probe_variational(tracer, args, result):
    tracer.maximum("spectra.dense_order_max", args["delta"].shape[0])


def _probe_progression_mass(tracer, args, result):
    values = args["values"]
    n = values.size
    length = max(0, min(args["max_terms"], n))
    if length == 0:
        windows = 0
    elif args["exhaustive"]:
        windows = (n - 1) * n
    else:
        windows = args["samples"] * length
    tracer.add("bohr.max_progression_mass.windows_computed", windows)
    key = repr((args["max_terms"], args["exhaustive"], args["seed"], args["samples"]))
    tracer.digest(
        "bohr.max_progression_mass",
        hashlib.sha1(values.tobytes() + key.encode()).hexdigest(),
    )


def _probe_emit(tracer, args, result):
    tracer.add("reports.bytes_written", result.stat().st_size)


PROBES = {
    "groups.convolve": _probe_convolve,
    "spectra.lambda1": _probe_lambda1,
    "spectra.laplace_spectrum_dense": _probe_dense_order,
    "spectra.lambda1_star": _probe_dense_order,
    "spectra.variational_lambda1": _probe_variational,
    "bohr.max_progression_mass": _probe_progression_mass,
    "reports.emit_report": _probe_emit,
}


class Tracer:
    """Records one span per traced call: (name, start, end, parent index)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.counters = {name: 0 for name in COUNTERS + MAXIMA}
        self.digests = {name: [] for name in DIGESTS}

    def add(self, name: str, amount: int) -> None:
        self.counters[name] += amount

    def maximum(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters[name], value)

    def digest(self, name: str, value: str) -> None:
        self.digests[name].append(value)

    def wrap(self, name: str, func):
        probe = PROBES.get(name)
        signature = inspect.signature(func) if probe else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                probe(self, bound.arguments, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: call count, self time (duration minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict[str, dict] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = layers.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - inner
        return {"layers": layers, "counters": self.counters, "digests": self.digests}


def install(tracer: Tracer, package: str = "cayleygap") -> int:
    """Replace every binding of each TRACED function; returns the binding count."""
    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]
    wrappers: dict[int, tuple] = {}
    for layer, names in TRACED.items():
        home = sys.modules[f"{package}.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            wrappers[id(original)] = (original, tracer.wrap(f"{layer}.{fname}", original))

    def swap(value):
        hit = wrappers.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    bindings = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapper = swap(value)
            if wrapper is not None:
                setattr(module, attr, wrapper)
                bindings += 1
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    wrapper = swap(item)
                    if wrapper is not None:
                        value[key] = wrapper
                        bindings += 1
    return bindings
