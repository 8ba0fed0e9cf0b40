"""Command-line interface.

Subcommands: ``spectrum`` (dense vs block eigenvalues), ``bounds`` (gap bound
battery on one instance), ``bohr`` (Bohr-set calculus battery), ``scan``
(progression characterization, both directions), ``experiment <name>``.

Each subcommand returns its rows and column order; ``main`` writes the report
and sets the exit code: 0 all checks pass (vacuous passes count as passes), 1
at least one asserted row reads ``fail``, 2 hypothesis or configuration error.
"""

from __future__ import annotations

import argparse
import gc
import numbers
import operator
import sys

import numpy as np

from . import bohr as bohr_mod
from .bounds import (
    exceptional_set,
    symmetrized_rep_count,
    verify_basis_bound,
    verify_diameter_bound,
    verify_exceptional_bound,
    verify_exceptional_bound_star,
    verify_fourier_norm_bound,
    verify_uniformity,
)
from .config import load_config, resolve_subset
from .errors import CayleyGapError, GroupTooLarge, HypothesisFail, NotCataloged
from .experiments import EXPERIMENTS
from .groups import GroupSubset, diameter, make_group
from .reports import bound_record, emit_report, records_pass, render_report
from .representations import irrep_catalog
from .spectra import laplace_spectrum_blocks, laplace_spectrum_dense, multiset_distance

# Everything imported so far lives until exit: moved to the permanent generation,
# collections during main skip it and the collection at interpreter shutdown
# neither walks nor frees it.  The entry module freezes, not the package, so a
# library import of cayleygap leaves the caller's collector as it was.  The freeze
# takes the whole heap of the process that imports this module, the importer's
# own objects and any garbage cycles not yet collected included (those are then
# never freed), so a program that calls main in-process freezes what it holds;
# one that needs its collector untouched imports cayleygap and its layers instead.
gc.freeze()

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _positive_int(cfg: dict, key: str, default, stop: float = float("inf"), low: int = 1):
    """Config value ``key`` as an integer in [low, stop), or ``default`` when absent."""
    if key not in cfg:
        return default
    try:
        n = operator.index(cfg[key])
    except TypeError:
        n = low - 1  # not an integer: rejected below with the value as given
    if isinstance(cfg[key], bool) or not low <= n < stop:  # a bool is no integer
        raise ValueError(f"{key} must be an integer in [{low}, {stop}), got {cfg[key]!r}")
    return n


def _real(cfg: dict, key: str, default) -> float:
    """Config value ``key`` as a finite float (a bool is no number), or ``default`` when absent."""
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not np.isfinite(value):
        raise ValueError(f"{key} must be a finite real number, got {value!r}")
    return float(value)


def _seed_arg(text: str) -> int:
    """The ``--seed`` value: an integer >= 0, as the config ``seed`` must be."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _seed(args, cfg: dict) -> int:
    """The ``--seed`` override, else the config ``seed`` as an integer >= 0 (default 0)."""
    return args.seed if args.seed is not None else _positive_int(cfg, "seed", 0, low=0)


def _instance(args):
    """``(cfg, group, seed, subset)``, the ``set`` (default ``full``) drawn with that seed."""
    cfg = load_config(args.config)
    group = make_group(cfg["group"])
    seed = _seed(args, cfg)
    subset = resolve_subset(group, cfg.get("set", "full"), seed)
    return cfg, group, seed, subset


def cmd_spectrum(args) -> tuple[list[dict], list[str] | None]:
    *_, subset = _instance(args)
    dense = laplace_spectrum_dense(subset)
    try:
        blocks = laplace_spectrum_blocks(subset)
    except NotCataloged:
        blocks = None
    records = dense.rows() + (blocks.rows() if blocks is not None else [])
    for row in records:  # the path is "dense" or "blocks"
        row["instance"] = "%s-%05d" % (row["path"], row["index"])
    if blocks is not None:
        gap = multiset_distance(dense.eigenvalues, blocks.eigenvalues)
        star_gap = float(np.abs(dense.star_eigenvalues - blocks.star_eigenvalues).max())
        verdict = "pass" if max(gap, star_gap) <= 1e-9 else "fail"
        records.append({
            "instance": "zz-path-agreement", "index": -1, "eigenvalue_re": gap, "eigenvalue_im": 0.0,
            "star_eigenvalue": star_gap, "cluster": -1, "path": verdict, "verdict": verdict,
        })
    return records, ["instance", "index", "eigenvalue_re", "eigenvalue_im", "star_eigenvalue", "cluster", "path"]


def cmd_bounds(args) -> tuple[list[dict], list[str] | None]:
    cfg, group, _, subset = _instance(args)
    g = cfg.get("g", 1)  # kept as given: the reports carry g as the config wrote it
    if _real(cfg, "g", 1) <= 0:
        raise ValueError(f"g must be a real number > 0, got {g!r}")
    d = _positive_int(cfg, "d", None) or diameter(subset)
    k = _positive_int(cfg, "k", 2)
    omega = exceptional_set(subset, d, g)
    omega_star = GroupSubset(group, symmetrized_rep_count(subset, d).values.real < g)
    rows = (
        ("01-diameter", verify_diameter_bound, (subset, d)),
        ("02-basis", verify_basis_bound, (subset, d)),
        ("03-exceptional", verify_exceptional_bound, (subset, d, g, omega)),
        ("04-exceptional-star", verify_exceptional_bound_star, (subset, d, g, omega_star)),
        ("05-fourier-norm", verify_fourier_norm_bound, (subset, d, g)),
        ("06-uniformity", verify_uniformity, (subset, d, k)),
        ("07-progression-basis", bohr_mod.verify_progression_basis_bound, (subset, d, g, omega)),
        ("08-bohr-basis", bohr_mod.verify_bohr_basis_bound, (subset, d, g, omega_star)),
        ("09-bohr-basis-certified", bohr_mod.verify_bohr_basis_bound_certified, (subset, d, g, omega_star)),
    )
    records = []
    for instance, verify, inputs in rows:
        try:
            report = verify(*inputs)
        except (HypothesisFail, NotCataloged):
            continue  # the verifier cannot certify its hypothesis here: the row is left out
        records.append(bound_record(report, instance, group.name))
    return records, None


def cmd_bohr(args) -> tuple[list[dict], list[str] | None]:
    cfg = load_config(args.config)
    group = make_group(cfg["group"])
    catalog = irrep_catalog(group)
    delta = _real(cfg, "delta", 0.5)
    records = []
    index = _positive_int(cfg, "rep", None, stop=len(catalog))
    reps = catalog.nontrivial() if index is None else [catalog[index]]

    columns = ["instance", "check", "group", "params", "measured", "bound", "verdict"]

    def add(instance, check, params, measured, bound, verdict):
        records.append(dict(zip(columns, (instance, check, group.name, params, measured, bound, verdict))))

    def add_bound(instance, report, params):
        add(instance, report.bound_name, params, report.measured, report.bound_value, report.verdict)

    # the kernels need one row at least; the trivial group has no nontrivial rep
    battery = zip(
        reps,
        bohr_mod.bohr_symmetry_normality_rows(reps, delta),
        bohr_mod.bohr_sum_rule_rows(reps, delta / 2, delta / 2),
        bohr_mod.bohr_half_size_rows(reps),
        bohr_mod.bohr_doubling_rows(reps, delta) if delta <= 0.4 else [None] * len(reps),
        bohr_mod.ruzsa_covering_rows(reps, delta),
    ) if reps else ()
    for rep, sym, rule, half, doubling, covering in battery:
        label = rep.label
        add(f"{label}-01-symmetry", sym.name, f"delta={delta:g}", sym.failures, 0, sym.verdict)
        params = f"delta={delta / 2:g}+{delta / 2:g}"
        add(f"{label}-02-sum-rule", rule.name, params, rule.failures, 0, rule.verdict)
        add_bound(f"{label}-03-half-size", half, f"delta={half.parameters['delta']:g}")
        if doubling is not None:
            add_bound(f"{label}-04-doubling", doubling, f"delta={delta:g}")
        add(
            f"{label}-05-covering",
            "ruzsa_covering",
            f"delta={delta:g}",
            max(len(covering.left_cover), len(covering.right_cover)),
            covering.size_bound,
            "pass" if covering.holds else "fail",
        )
        window = min(delta, 0.5)
        radius = bohr_mod.find_regular(rep, window)
        params = f"window=[{window:g},{2 * window:g}]"
        add(f"{label}-06-regular", "regular_radius_exists", params, radius, 2 * window, "pass")
    if "eps" in cfg and reps:
        # after the whole battery, so a bad eps masks none of its failures
        try:
            eps_sizes = bohr_mod.bohr_eps_size_rows(reps, _real(cfg, "eps", None))
        except GroupTooLarge:
            eps_sizes = []  # normal subgroups not enumerable at this order: the rows are left out
        for rep, report in zip(reps, eps_sizes):
            add_bound(f"{rep.label}-07-eps-size", report, f"eps={cfg['eps']:g}")
    if len(reps) >= 2:
        multi = bohr_mod.multi_bohr_lower_bound_check([(reps[0], delta), (reps[1], delta)])
        add_bound("zz-multi-bohr", multi, f"delta={delta:g}")
    return records, columns


def cmd_scan(args) -> tuple[list[dict], list[str] | None]:
    cfg, group, seed, subset = _instance(args)
    d = _positive_int(cfg, "d", 2)
    delta = _real(cfg, "delta", 0.4)
    direction = cfg.get("direction", "both")
    if direction not in ("forward", "reverse", "both"):
        raise ValueError(f"direction must be forward, reverse or both, got {direction!r}")
    exhaustive = True if args.exhaustive else None
    records = []

    def add(report, instance):
        records.append({**bound_record(report, instance, group.name), "scan": report.parameters["scan"]})

    if direction in ("forward", "both"):
        add(bohr_mod.gap_from_progressions(subset, d, delta, exhaustive=exhaustive, seed=seed), "01-forward")
    if direction in ("reverse", "both"):
        scan = bohr_mod.progression_scan(subset, d, delta, exhaustive=exhaustive, seed=seed)
        add(bohr_mod.progressions_from_gap(subset, d, delta, scan=scan), "02-reverse")
        add(bohr_mod.progressions_from_gap_certified(subset, d, delta, scan=scan), "03-reverse-certified")
    return records, None


def cmd_experiment(args) -> tuple[list[dict], list[str] | None]:
    cfg = load_config(args.config) if args.config else {}
    seed = _seed(args, cfg)
    name = args.name
    if name not in EXPERIMENTS:
        raise CayleyGapError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    if name == "triple-free":
        group = make_group(cfg.get("group", "cyclic(13)"))
        result = EXPERIMENTS[name](group, seed)
    elif name == "sidon":
        result = EXPERIMENTS[name](
            _positive_int(cfg, "N", 101), _positive_int(cfg, "k", 2), seed, _real(cfg, "c_k", 1.0)
        )
    elif name == "additive-basis":
        result = EXPERIMENTS[name](_positive_int(cfg, "N", 211), seed)
    else:
        result = EXPERIMENTS[name](
            _positive_int(cfg, "N", 1009), _real(cfg, "c1", 2.0), _real(cfg, "C", 8.0), seed
        )
    return result.records, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleygap",
        description="Cayley graph spectra, gap bounds, and Bohr-set verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (
        ("spectrum", cmd_spectrum),
        ("bounds", cmd_bounds),
        ("bohr", cmd_bohr),
        ("scan", cmd_scan),
        ("experiment", cmd_experiment),
    ):
        p = sub.add_parser(name)
        if name == "experiment":  # the one subcommand whose config is optional
            p.add_argument("name", help="one of: " + ", ".join(sorted(EXPERIMENTS)))
        p.add_argument("--config", required=name != "experiment", help="path to key=value config")
        p.add_argument("--seed", type=_seed_arg, default=None, help="override config seed")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output file (stdout if omitted)")
        if name == "scan":
            p.add_argument("--exhaustive", action="store_true", help="force exhaustive scans")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        records, columns = args.func(args)
        if args.out:
            emit_report(records, args.format, args.out, columns=columns)
        elif records:
            print(render_report(records, args.format, columns), end="")
        else:
            print("(no records)")
    except CayleyGapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, KeyError, OverflowError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_PASS if records_pass(records) else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
