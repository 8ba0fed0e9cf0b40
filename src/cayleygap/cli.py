"""Command-line interface.

Subcommands: ``spectrum`` (dense vs block eigenvalues), ``bounds`` (gap bound
battery on one instance), ``bohr`` (Bohr-set calculus battery), ``scan``
(progression characterization, both directions), ``experiment <name>``.

Exit codes: 0 all checks pass (vacuous passes count as passes), 1 at least
one substantive failure, 2 hypothesis or configuration error.
"""

from __future__ import annotations

import argparse
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
from .errors import CayleyGapError, HypothesisFail, NotCataloged
from .experiments import EXPERIMENTS
from .groups import CyclicGroup, GroupSubset, diameter, make_group
from .reports import bound_record, emit_report, records_pass, render_report
from .representations import irrep_catalog
from .spectra import laplace_spectrum_blocks, laplace_spectrum_dense, multiset_distance

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _emit(records: list[dict], args, columns=None) -> None:
    if args.out:
        emit_report(records, args.format, args.out, columns=columns)
    elif records:
        print(render_report(records, args.format, columns), end="")
    else:
        print("(no records)")


def cmd_spectrum(args) -> int:
    cfg = load_config(args.config)
    group = make_group(cfg["group"])
    rng = np.random.default_rng(args.seed if args.seed is not None else cfg.get("seed", 0))
    subset = resolve_subset(group, cfg.get("set", "full"), rng)
    dense = laplace_spectrum_dense(subset)
    records = []
    for row in dense.rows():
        row["instance"] = f"dense-{row['index']:05d}"
        records.append(row)
    agree = True
    try:
        blocks = laplace_spectrum_blocks(subset)
    except NotCataloged:
        blocks = None
    if blocks is not None:
        for row in blocks.rows():
            row["instance"] = f"blocks-{row['index']:05d}"
            records.append(row)
        gap = multiset_distance(dense.eigenvalues, blocks.eigenvalues)
        agree = gap <= 1e-9
        records.append(
            {
                "instance": "zz-path-agreement",
                "index": -1,
                "eigenvalue_re": gap,
                "eigenvalue_im": 0.0,
                "star_eigenvalue": float(
                    np.abs(dense.star_eigenvalues - blocks.star_eigenvalues).max()
                ),
                "cluster": -1,
                "path": "pass" if agree else "fail",
            }
        )
    _emit(records, args, columns=["instance", "index", "eigenvalue_re", "eigenvalue_im", "star_eigenvalue", "cluster", "path"])
    return EXIT_PASS if agree else EXIT_FAIL


def cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    group = make_group(cfg["group"])
    rng = np.random.default_rng(args.seed if args.seed is not None else cfg.get("seed", 0))
    subset = resolve_subset(group, cfg.get("set", "full"), rng)
    g = cfg.get("g", 1)
    d = cfg.get("d") or diameter(subset)
    records = []

    def add(report, instance):
        records.append(bound_record(report, instance, group.name))

    add(verify_diameter_bound(subset, d), "01-diameter")
    add(verify_basis_bound(subset, d), "02-basis")
    omega = exceptional_set(subset, d, g)
    add(verify_exceptional_bound(subset, d, g, omega), "03-exceptional")
    counts = symmetrized_rep_count(subset, d).values.real
    omega_star = GroupSubset(group, (counts < g).astype(np.int8))
    add(verify_exceptional_bound_star(subset, d, g, omega_star), "04-exceptional-star")
    if counts.min() >= g:
        try:
            add(verify_fourier_norm_bound(subset, d, g), "05-fourier-norm")
        except NotCataloged:
            pass
        add(verify_uniformity(subset, d, cfg.get("k", 2)), "06-uniformity")
    if isinstance(group, CyclicGroup) and bohr_mod.is_prime(group.order) and d >= 2:
        add(bohr_mod.verify_progression_basis_bound(subset, d, g, omega), "07-progression-basis")
    if d >= 2:
        add(bohr_mod.verify_bohr_basis_bound(subset, d, g, omega_star), "08-bohr-basis")
        if group.order <= bohr_mod.NORMAL_SUBGROUP_CAP and omega_star.size < group.order:
            try:
                add(
                    bohr_mod.verify_bohr_basis_bound_certified(subset, d, g, omega_star),
                    "09-bohr-basis-certified",
                )
            except HypothesisFail:
                pass  # no certificate for groups with small normal subgroups
    _emit(records, args)
    return EXIT_PASS if records_pass(records) else EXIT_FAIL


def cmd_bohr(args) -> int:
    cfg = load_config(args.config)
    group = make_group(cfg["group"])
    catalog = irrep_catalog(group)
    delta = float(cfg.get("delta", 0.5))
    records = []
    reps = catalog.nontrivial()
    if "rep" in cfg:
        reps = [catalog[int(cfg["rep"])]]

    def add(instance, check, params, measured, bound, verdict):
        records.append(
            {
                "instance": instance,
                "check": check,
                "group": group.name,
                "params": params,
                "measured": measured,
                "bound": bound,
                "verdict": verdict,
            }
        )

    def add_bound(instance, report, params):
        add(instance, report.bound_name, params, report.measured, report.bound_value, report.verdict)

    for rep in reps:
        label = rep.label
        sym = bohr_mod.bohr_symmetry_normality_check([rep], delta)
        add(f"{label}-01-symmetry", sym.name, f"delta={delta:g}", sym.failures, 0, sym.verdict)
        rule = bohr_mod.bohr_sum_rule_check([rep], delta / 2, delta / 2)
        params = f"delta={delta / 2:g}+{delta / 2:g}"
        add(f"{label}-02-sum-rule", rule.name, params, rule.failures, 0, rule.verdict)
        half = bohr_mod.check_bohr_half_size(rep)
        add_bound(f"{label}-03-half-size", half, f"delta={half.parameters['delta']:g}")
        if delta <= 0.4:
            add_bound(f"{label}-04-doubling", bohr_mod.bohr_doubling_check(rep, delta), f"delta={delta:g}")
        covering = bohr_mod.ruzsa_covering(rep, delta)
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
        if "eps" in cfg:
            eps_rep = bohr_mod.check_bohr_eps_size(rep, float(cfg["eps"]))
            add_bound(f"{label}-07-eps-size", eps_rep, f"eps={cfg['eps']:g}")
    if len(reps) >= 2:
        multi = bohr_mod.multi_bohr_lower_bound_check([(reps[0], delta), (reps[1], delta)])
        add_bound("zz-multi-bohr", multi, f"delta={delta:g}")
    _emit(records, args, columns=["instance", "check", "group", "params", "measured", "bound", "verdict"])
    return EXIT_PASS if records_pass(records) else EXIT_FAIL


def cmd_scan(args) -> int:
    cfg = load_config(args.config)
    group = make_group(cfg["group"])
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    rng = np.random.default_rng(seed)
    subset = resolve_subset(group, cfg.get("set", "full"), rng)
    d = int(cfg.get("d", 2))
    delta = float(cfg.get("delta", 0.4))
    direction = cfg.get("direction", "both")
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
    _emit(records, args)
    return EXIT_PASS if records_pass(records) else EXIT_FAIL


def cmd_experiment(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    name = args.name
    if name not in EXPERIMENTS:
        raise CayleyGapError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    if name == "triple-free":
        group = make_group(cfg.get("group", "cyclic(13)"))
        result = EXPERIMENTS[name](group, seed)
    elif name == "sidon":
        result = EXPERIMENTS[name](
            int(cfg.get("N", 101)), int(cfg.get("k", 2)), seed, float(cfg.get("c_k", 1.0))
        )
    elif name == "additive-basis":
        result = EXPERIMENTS[name](int(cfg.get("N", 211)), seed)
    else:
        result = EXPERIMENTS[name](
            int(cfg.get("N", 1009)), float(cfg.get("c1", 2.0)), float(cfg.get("C", 8.0)), seed
        )
    _emit(result.records, args)
    return EXIT_PASS if result.passed else EXIT_FAIL


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
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to key=value config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output file (stdout if omitted)")
        if name == "scan":
            p.add_argument("--exhaustive", action="store_true", help="force exhaustive scans")
        p.set_defaults(func=func)
    pe = sub.add_parser("experiment")
    pe.add_argument("name", help="one of: " + ", ".join(sorted(EXPERIMENTS)))
    pe.add_argument("--config", default=None, help="path to key=value config")
    pe.add_argument("--seed", type=int, default=None, help="override config seed")
    pe.add_argument("--format", choices=("csv", "json"), default="csv")
    pe.add_argument("--out", default=None, help="output file (stdout if omitted)")
    pe.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CayleyGapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
