"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
live).  Criterion 9 checks two claimed constants that are falsified on its own
grid: the linear-in-delta constant of the classical Bohr tail bound (interval
of length 6 in Z/37 at delta = 1/2, and {e, s} in dihedral(3) at eps = 0) and
the linear-in-eps large-spectrum product inclusion (two-element sets in Z/31
whose factor phases add).  On those four documented witnesses the criterion
asserts the falsification, cross-checked against an independent recount (for
the product inclusion, of the failing character triples the report names); every
other component, including the Hermitian-constant tail and cosine-deficit
product variants, must hold.  See the README's falsified-claims section for
the analysis.
"""

import math
import time
from typing import NamedTuple

import numpy as np
import pytest

from cayleygap import (
    GroupSubset,
    bohr_doubling_check,
    bohr_sum_rule_check,
    bohr_tail_check,
    check_bohr_eps_size,
    check_bohr_half_size,
    cluster_eigenvalues,
    convolve,
    diameter,
    exceptional_set,
    find_covering_interval,
    find_regular,
    fourier_all,
    fourier_transform,
    gap_from_progressions,
    inverse_fourier,
    irrep_catalog,
    laplace_spectrum_blocks,
    laplace_spectrum_dense,
    large_spectrum_product_check,
    make_group,
    multi_bohr_lower_bound_check,
    multiset_distance,
    normal_subgroup_min_index,
    progressions_from_gap,
    regular_spectrum_check,
    ruzsa_covering,
    set_norm,
    symmetrized_rep_count,
    verify_basis_bound,
    verify_bohr_basis_bound,
    verify_bohr_basis_bound_certified,
    verify_diameter_bound,
    verify_exceptional_bound,
    verify_exceptional_bound_star,
    verify_fourier_norm_bound,
    verify_graph_bound,
    verify_progression_basis_bound,
    verify_uniformity,
    walk_energy,
)
from cayleygap.bounds import RegularGraph, graph_paths, rep_count
from cayleygap.bohr import bohr_symmetry_normality_check, is_prime
from cayleygap.groups import CyclicGroup
from cayleygap.cli import main as cli_main
from cayleygap.errors import (
    HypothesisFail,
    NoFiniteDiameter,
    NotCataloged,
    SearchExhausted,
)
from cayleygap.experiments import grow_additive_basis
from cayleygap.sampling import random_function, random_subset, random_symmetric_subset


def _line(number: int, ok: bool, label: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} [{status}] {label}{': ' + detail if detail else ''}")


CATALOGED_GROUPS = [
    "cyclic(5)",
    "cyclic(12)",
    "cyclic(30)",
    "cyclic(101)",
    "dihedral(4)",
    "dihedral(6)",
    "dihedral(10)",
]


def test_criterion_01_spectrum_path_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    checked = 0
    for descriptor in CATALOGED_GROUPS:
        group = make_group(descriptor)
        for _ in range(20):
            s = random_symmetric_subset(group, int(rng.integers(1, max(2, group.order // 2))), rng)
            dense = laplace_spectrum_dense(s)
            blocks = laplace_spectrum_blocks(s)
            worst = max(worst, multiset_distance(dense.eigenvalues, blocks.eigenvalues))
            worst = max(worst, float(np.abs(dense.star_eigenvalues - blocks.star_eigenvalues).max()))
            checked += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 30
    _line(1, ok, "spectrum path equivalence", f"{checked} instances, worst gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 30


def test_criterion_02_lambda1_star_identity():
    rng = np.random.default_rng(202)
    pool = [
        "cyclic(5)", "cyclic(7)", "cyclic(12)", "cyclic(30)", "cyclic(61)", "cyclic(101)",
        "abelian_product([2, 3, 4])", "abelian_product([3, 3, 5])",
        "dihedral(3)", "dihedral(4)", "dihedral(6)", "dihedral(8)", "dihedral(10)",
    ]
    worst = 0.0
    checked = 0
    while checked < 200:
        group = make_group(pool[checked % len(pool)])
        s = random_subset(group, int(rng.integers(1, group.order + 1)), rng)
        # two sides from two paths: lambda1* from the dense operator, the norm
        # from the spectral engine (FFT or irrep blocks)
        dense_star = laplace_spectrum_dense(s).lambda1_star
        worst = max(worst, abs(dense_star - (1 - set_norm(s) ** 2 / s.size**2)))
        checked += 1
    ok = worst <= 1e-9
    _line(2, ok, "lambda1* identity", f"{checked} instances, worst deviation {worst:.2e}")
    assert ok


def test_criterion_03_exact_identities():
    rng = np.random.default_rng(303)
    parseval_worst = 0.0
    convolution_worst = 0.0
    roundtrip_worst = 0.0
    for descriptor in ["cyclic(5)", "cyclic(12)", "cyclic(30)", "abelian_product([2, 3, 4])", "dihedral(6)", "dihedral(10)"]:
        group = make_group(descriptor)
        catalog = irrep_catalog(group)
        for _ in range(100):
            f = random_function(group, rng)
            g = random_function(group, rng)
            coeffs_f = fourier_all(f)
            lhs = float((np.abs(f.values) ** 2).sum())
            rhs = sum(c.rep.dim * c.hs_norm**2 for c in coeffs_f) / group.order
            parseval_worst = max(parseval_worst, abs(lhs - rhs) / abs(lhs))
            conv = convolve(f, g)
            for rep, cf in zip(catalog, coeffs_f):
                lhs_m = fourier_transform(conv, rep).matrix
                rhs_m = cf.matrix @ fourier_transform(g, rep).matrix
                scale = max(1.0, float(np.abs(lhs_m).max()))
                convolution_worst = max(convolution_worst, float(np.abs(lhs_m - rhs_m).max()) / scale)
            back = inverse_fourier(coeffs_f)
            roundtrip_worst = max(roundtrip_worst, float(np.abs(back.values - f.values).max()))
    ok = parseval_worst <= 1e-8 and convolution_worst <= 1e-8 and roundtrip_worst <= 1e-10
    _line(
        3, ok, "Parseval / convolution / round-trip",
        f"worst {parseval_worst:.1e} / {convolution_worst:.1e} / {roundtrip_worst:.1e}",
    )
    assert ok


def _bound_suite_instances():
    """Deterministic instance stream for the bound suite, |G| in [5, 500]."""
    rng = np.random.default_rng(404)
    descriptors = [
        "cyclic(5)", "cyclic(7)", "cyclic(13)", "cyclic(23)", "cyclic(47)",
        "cyclic(61)", "cyclic(101)", "cyclic(199)", "cyclic(331)", "cyclic(499)",
        "abelian_product([2, 3, 4])", "abelian_product([3, 3, 5])", "abelian_product([2, 2, 2, 2])",
        "dihedral(3)", "dihedral(5)", "dihedral(8)", "dihedral(12)", "dihedral(25)",
        "dihedral(60)", "dihedral(125)", "dihedral(250)",
        'permutation_closure(["(1 2 3 4 5)", "(1 2 3)"])',
    ]
    for descriptor in descriptors:
        group = make_group(descriptor)
        for _ in range(3):
            abelian = group.is_abelian
            size_hint = max(2, int(group.order ** 0.6))
            for _ in range(12):
                if abelian:
                    s = random_subset(group, min(group.order, int(rng.integers(2, size_hint + 2))), rng)
                else:
                    s = random_symmetric_subset(group, int(rng.integers(1, size_hint)), rng)
                try:
                    d = diameter(s)
                    break
                except NoFiniteDiameter:
                    continue
            else:
                continue
            yield group, s, d, rng


def test_criterion_04_bound_suite():
    start = time.monotonic()
    reports = []
    for group, s, d, rng in _bound_suite_instances():
        reports.append(verify_diameter_bound(s, d))
        reports.append(verify_basis_bound(s, d))
        counts = rep_count(s, d).values.real
        g_full = int(counts.min())
        if g_full >= 1:
            reports.append(verify_exceptional_bound(s, d, g_full, None))
        g_half = max(1, int(np.quantile(counts, 0.6)))
        omega = exceptional_set(s, d, g_half)
        reports.append(verify_exceptional_bound(s, d, g_half, omega))
        star_counts = symmetrized_rep_count(s, 2).values.real
        omega_star = GroupSubset(group, (star_counts < 1).astype(np.int8))
        reports.append(verify_exceptional_bound_star(s, 2, 1, omega_star))
        if star_counts.min() >= 1:
            try:
                reports.append(verify_fourier_norm_bound(s, 2, int(star_counts.min())))
            except NotCataloged:
                pass
        if isinstance(group, CyclicGroup) and group.order >= 5 and d >= 2:
            if is_prime(group.order):
                omega_c = exceptional_set(s, d, 1)
                if omega_c.size < group.order:
                    reports.append(verify_progression_basis_bound(s, d, 1, omega_c))
                    reports.append(verify_progression_basis_bound(s, d, 1, omega_c, form="eps"))
        if omega_star.size < group.order:
            reports.append(verify_bohr_basis_bound(s, 2, 1, omega_star))
            if group.order <= 200:
                try:
                    reports.append(verify_bohr_basis_bound_certified(s, 2, 1, omega_star))
                except HypothesisFail:
                    pass
    # general regular graphs: circulant connection sets with a loop (breaks
    # bipartite parity) and a ~sqrt(n) step keeping the covering depth small
    rng = np.random.default_rng(405)
    for n in (8, 16, 32, 48, 64, 100, 128):
        for _ in range(4):
            base = int(rng.integers(2, max(3, int(math.sqrt(n)) + 2)))
            steps = {0, 1, n - 1, base % n, (n - base) % n}
            adj = np.zeros((n, n), dtype=int)
            for i in range(n):
                for c in steps:
                    adj[i, (i + c) % n] = 1
            graph = RegularGraph(adj)
            power = graph.adjacency.copy()
            d = 1
            while power.min() < 1 and d < 2 * n:
                power = power @ graph.adjacency
                d += 1
            if power.min() < 1:
                continue
            g = int(power.min())
            assert np.array_equal(power, graph_paths(graph, d))
            reports.append(verify_graph_bound(graph, d, g))
    elapsed = time.monotonic() - start
    failures = [r for r in reports if r.verdict == "fail"]
    substantive = [r for r in reports if r.verdict == "pass"]
    ok = not failures and len(reports) >= 500 and elapsed < 600
    _line(
        4, ok, "bound suite",
        f"{len(reports)} hypothesis-validated reports ({len(substantive)} substantive), "
        f"{len(failures)} failures, {elapsed:.0f}s",
    )
    assert len(reports) >= 500
    assert not failures, [(r.bound_name, r.parameters) for r in failures]
    assert elapsed < 600


def test_criterion_05_walk_energy_identity():
    rng = np.random.default_rng(505)
    checked = 0
    worst = 0.0
    strict_ok = True
    groups = [make_group("cyclic(12)"), make_group("cyclic(30)"), make_group("dihedral(6)"), make_group("dihedral(9)")]
    while checked < 50:
        group = groups[checked % len(groups)]
        if group.is_abelian:
            b = random_subset(group, int(rng.integers(1, group.order)), rng)
        else:
            b = random_symmetric_subset(group, int(rng.integers(1, group.order // 3)), rng)
        spectrum = laplace_spectrum_dense(b)
        for k in (1, 2, 3):
            report = walk_energy(b, k, spectrum)
            worst = max(worst, report.relative_gap)
            if k == 1 and not report.convolution_side < report.t1_bound:
                strict_ok = False
        checked += 1
    ok = worst <= 1e-6 and strict_ok
    _line(5, ok, "walk energy identity", f"{checked} instances, worst relative gap {worst:.2e}")
    assert ok


def test_criterion_06_a5_multiplicity():
    # d_min(A5) = 3: the nontrivial irreducible dimensions are 3, 3, 4, 5
    # (documented character-table constant), cross-checked by clustering
    rng = np.random.default_rng(606)
    a5 = make_group('permutation_closure(["(1 2 3 4 5)", "(1 2 3)"])')
    d_min_constant = 3
    observed_min = None
    for _ in range(10):
        s = random_symmetric_subset(a5, int(rng.integers(2, 10)), rng)
        report = laplace_spectrum_dense(s)
        nontrivial = np.sort(report.eigenvalues.real)[1:]  # drop the trivial zero
        labels = cluster_eigenvalues(nontrivial)
        sizes = np.bincount(labels)
        smallest = int(sizes.min())
        observed_min = smallest if observed_min is None else min(observed_min, smallest)
        assert smallest >= d_min_constant
    ok = observed_min == d_min_constant
    _line(6, ok, "A5 eigenvalue multiplicity", f"min cluster size {observed_min} == d_min {d_min_constant}")
    assert ok


def test_criterion_07_uniform_distribution():
    worst_margin = None
    for n, seed in ((101, 7), (211, 7)):
        elements = grow_additive_basis(n, seed)
        group = make_group(f"cyclic({n})")
        b = GroupSubset.from_indices(group, [x % n for x in elements])
        for k in (2, 4, 8):
            report = verify_uniformity(b, 2, k)
            assert report.holds
            margin = report.bound_value - report.measured
            worst_margin = margin if worst_margin is None else min(worst_margin, margin)
    _line(7, True, "uniform distribution of basis powers", f"worst margin {worst_margin:.3g}")


def test_criterion_08_progression_characterization():
    rng = np.random.default_rng(808)
    forward_fail = 0
    reverse_fail = 0
    substantive = 0
    total = 0
    for n in (61, 101, 199):
        group = make_group(f"cyclic({n})")
        for _ in range(20):
            b = random_subset(group, int(rng.integers(max(3, n // 5), n // 2)), rng)
            fw = gap_from_progressions(b, 2, 0.4, exhaustive=True)
            if not fw.holds:
                forward_fail += 1
            rv = progressions_from_gap(b, 2, 0.1)
            if not rv.holds:
                reverse_fail += 1
            if rv.verdict == "pass":
                substantive += 1
            total += 1
    ok = forward_fail == 0 and reverse_fail == 0 and substantive >= total / 2
    _line(
        8, ok, "progression characterization",
        f"{total} exhaustive scans, substantive reverse passes {substantive}/{total}",
    )
    assert ok


class TailWitness(NamedTuple):
    """Documented counterexample to the linear-in-delta tail constant: the
    tail mass of A*A^-1 outside Bohr(rho, delta) as an integer, and the
    closed-form eps = 1 - ||Ahat(rho)||/|A| that sets the cap."""

    tail: int
    eps: float


class ProductWitness(NamedTuple):
    """Documented counterexample to the linear-in-eps product threshold: the
    cyclic characters chi_i and chi_j clear the (1-eps1) and (1-eps2) levels
    while |Ahat(chi_{i+j})|/|A| = ratio misses 1 - eps1 - eps2."""

    i: int
    j: int
    ratio: float


def _tail_second_side(a, rep, delta, witness, report):
    """Disagreements between a tail report and its recount without the check:
    the tail by counting differences x y^-1 outside Bohr(rho, delta), the cap
    (2 eps / delta)|A|^2 from the witness's closed-form eps."""
    group, eye = a.group, np.eye(rep.dim)
    tail = sum(
        np.linalg.norm(rep.matrix(group.mul(x, group.inv(y))) - eye, 2) > delta
        for x in a.indices
        for y in a.indices
    )
    cap = 2.0 * witness.eps / delta * a.size**2
    mismatches = []
    if tail != witness.tail or report.measured != tail:
        mismatches.append(f"tail counted {tail}, documented {witness.tail}, reported {report.measured:.6g}")
    if abs(report.bound_value - cap) > 1e-9:
        mismatches.append(f"cap closed form {cap:.6g}, reported {report.bound_value:.6g}")
    if not tail > cap:
        mismatches.append(f"counted tail {tail} within closed-form cap {cap:.6g}")
    return mismatches


def _product_second_side(a, eps1, eps2, witness, report):
    """Disagreements between a product report and its recount without the
    check: |Ahat(chi_k)| = |sum_{x in A} exp(2 pi i k x / N)| summed
    explicitly over Z/N, and the failing (i, j, k = i + j) triples named from
    those sums, which must be exactly the triples the report names."""
    n, size = a.group.order, a.size
    sums = np.exp(2j * np.pi * np.outer(np.arange(n), a.indices) / n).sum(axis=1)
    ratios = np.abs(sums) / size
    level = 1.0 - eps1 - eps2
    left = np.flatnonzero(ratios >= 1.0 - eps1)
    right = np.flatnonzero(ratios >= 1.0 - eps2)
    failing = sorted(
        (int(i), int(j), int((i + j) % n)) for i in left for j in right if ratios[(i + j) % n] < level
    )
    k = (witness.i + witness.j) % n
    mismatches = []
    if witness.i not in left or witness.j not in right:
        mismatches.append(f"chi{witness.i} or chi{witness.j} below its threshold")
    if abs(ratios[k] - witness.ratio) > 1e-4 or not ratios[k] < level:
        mismatches.append(f"|Ahat(chi{k})|/|A| = {ratios[k]:.4f}, documented {witness.ratio} < {level:.3g}")
    pairs = report.parameters["pairs"]
    if len(failing) != report.measured or not report.measured > 0:
        mismatches.append(f"failing pairs counted {len(failing)}, reported {report.measured}")
    if sorted(pairs) != failing:
        mismatches.append(f"failing triples recounted {failing}, named {sorted(pairs)}")
    if (witness.i, witness.j, k) not in pairs:
        mismatches.append(f"chi{witness.i} * chi{witness.j} = chi{k} not named by the report")
    return mismatches


def _criterion_09_components():
    """(name, holds, detail, second_side) per component.  second_side is None
    except on the documented falsification witnesses, where it lists the
    disagreements between the report and its independent recount."""
    components = []
    rng = np.random.default_rng(909)

    def add(name, ok, detail="", second_side=None):
        components.append((name, bool(ok), detail, second_side))

    cyclic_groups = [make_group(d) for d in ("cyclic(12)", "cyclic(36)", "cyclic(101)", "cyclic(128)")]
    dihedral_groups = [make_group(d) for d in ("dihedral(4)", "dihedral(6)", "dihedral(8)")]

    for group in cyclic_groups + dihedral_groups:
        catalog = irrep_catalog(group)
        reps = catalog.nontrivial()
        one_dim = [r for r in reps if r.dim == 1][:2]
        planes = [r for r in reps if r.dim > 1][:2]
        for rep in one_dim + planes:
            for delta in (0.3, 0.8):
                sym = bohr_symmetry_normality_check([rep], delta)
                add(f"symmetry/normality {group.name} {rep.label} d={delta}", sym.holds)
                rule = bohr_sum_rule_check([rep], delta, delta / 2)
                add(f"sum rule {group.name} {rep.label}", rule.holds)
            half = check_bohr_half_size(rep)
            add(f"half size {group.name} {rep.label}", half.holds)
            doubling = bohr_doubling_check(rep, 0.3)
            add(f"doubling {group.name} {rep.label}", doubling.holds)
            covering = ruzsa_covering(rep, 0.8)
            add(f"covering {group.name} {rep.label}", covering.holds)
            try:
                radius = find_regular(rep, 0.25)
                add(f"regular radius {group.name} {rep.label}", 0.25 <= radius <= 0.5 + 1e-12)
            except Exception as exc:  # NoneFound contradicts the proposition
                add(f"regular radius {group.name} {rep.label}", False, str(exc))

    # eps-size with certification (prime moduli have no small normal subgroups)
    for n in (101, 199):
        group = make_group(f"cyclic({n})")
        chi1 = irrep_catalog(group)[1]
        for eps in (0.1, 0.3, 0.5):
            report = check_bohr_eps_size(chi1, eps)
            add(f"eps size Z/{n} eps={eps}", report.holds)

    # certification machinery itself, including the simple group
    a5 = make_group('permutation_closure(["(1 2 3 4 5)", "(1 2 3)"])')
    add("A5 certificate cap 59", normal_subgroup_min_index(a5, 59) is None)
    add("A5 certificate cap 60", normal_subgroup_min_index(a5, 60) == 60)
    add("D4 rotation subgroup", normal_subgroup_min_index(make_group("dihedral(4)"), 10) == 2)

    # multi-frequency lower bound
    d8 = make_group("dihedral(8)")
    reps8 = irrep_catalog(d8).nontrivial()[:2]
    add("multi-Bohr dihedral(8)", multi_bohr_lower_bound_check([(reps8[0], 0.8), (reps8[1], 0.8)]).holds)
    z101 = make_group("cyclic(101)")
    cat101 = irrep_catalog(z101)
    add("multi-Bohr Z/101", multi_bohr_lower_bound_check([(cat101[1], 0.4), (cat101[2], 0.6)]).holds)

    # large-spectrum inclusion propositions: the linear-in-eps threshold is
    # checked as claimed and two-element sets falsify it (factor phase
    # deviations add like sqrt(eps)), so those entries carry the documented
    # witness; the cosine-deficit threshold is the certified companion
    # asserted on the same instances
    z31 = make_group("cyclic(31)")
    product_grid = [
        (GroupSubset.from_indices(z31, range(7)), 0.05, 0.05, None),
        (random_subset(make_group("cyclic(128)"), 20, rng), 0.1, 0.15, None),
        (GroupSubset.from_indices(z31, [1, 15]), 0.441, 0.336, ProductWitness(5, 5, 0.0506)),
        (GroupSubset.from_indices(z31, [5, 12]), 0.103, 0.014, ProductWitness(5, 9, 0.8743)),
    ]
    for subset, e1, e2, witness in product_grid:
        tag = f"{subset.group.name} |A|={subset.size} eps={e1:.3g}/{e2:.3g}"
        claimed = large_spectrum_product_check(subset, e1, e2)
        add(
            f"spectrum product (linear threshold) {tag}",
            claimed.holds,
            f"{claimed.measured} of {claimed.parameters['checked']} pairs fail",
            None if witness is None else _product_second_side(subset, e1, e2, witness, claimed),
        )
        certified = large_spectrum_product_check(subset, e1, e2, form="cosine")
        add(f"spectrum product (cosine threshold) {tag}", certified.holds)
    chi128 = irrep_catalog(make_group("cyclic(128)"))[1]
    delta_reg = find_regular(chi128, 0.2)
    spec_reg = regular_spectrum_check(chi128, delta_reg, 0.05 * delta_reg / 100, 0.05, 0.5)
    add("spectrum of regular Bohr Z/128", spec_reg.holds)

    # tail bound, linear-in-delta form: the documented grid includes the
    # tight-eps instances on which it is falsified, marked with their witness
    # (the interval {0..5} in Z/37, whose eps is a Dirichlet-kernel ratio, and
    # {e, s} in dihedral(3), where I + rho(s) has norm 2 = |A| so eps = 0
    # while rho(s) sits at distance 2 from I)
    tail_grid = []
    z37 = make_group("cyclic(37)")
    dirichlet_eps = 1 - math.sin(6 * math.pi / 37) / (6 * math.sin(math.pi / 37))
    tail_grid.append(
        (GroupSubset.from_indices(z37, range(6)), irrep_catalog(z37)[1], 0.5, TailWitness(12, dirichlet_eps))
    )
    z61 = make_group("cyclic(61)")
    tail_grid.append((GroupSubset.from_indices(z61, range(8)), irrep_catalog(z61)[1], 0.7, None))
    d4 = make_group("dihedral(4)")
    sign = next(r for r in irrep_catalog(d4) if r.label == "reflection_sign")
    tail_grid.append((GroupSubset.from_indices(d4, range(4)), sign, 0.5, None))
    d3 = make_group("dihedral(3)")
    plane = next(r for r in irrep_catalog(d3) if r.dim == 2)
    tail_grid.append((GroupSubset.from_indices(d3, [0, 3]), plane, 0.5, TailWitness(2, 0.0)))
    for _ in range(6):
        a = random_subset(z61, int(rng.integers(3, 15)), rng)
        rep = irrep_catalog(z61)[int(rng.integers(1, 61))]
        tail_grid.append((a, rep, float(rng.uniform(0.3, 1.2)), None))
    for a, rep, delta, witness in tail_grid:
        norm = fourier_transform(a.indicator(), rep).op_norm
        eps = min(1.0, 1 - norm / a.size + 1e-12)
        linear = bohr_tail_check(a, rep, eps, delta)
        add(
            f"tail bound (linear-in-delta) {a.group.name} {rep.label} d={delta:.2g}",
            linear.holds,
            f"tail {linear.measured:.4g} vs {linear.bound_value:.4g}",
            None if witness is None else _tail_second_side(a, rep, delta, witness, linear),
        )
        repaired = bohr_tail_check(a, rep, eps, delta, form="hermitian")
        add(
            f"tail bound (hermitian constant) {a.group.name} {rep.label} d={delta:.2g}",
            repaired.holds,
        )
    return components


def test_criterion_09_bohr_calculus():
    start = time.monotonic()
    components = _criterion_09_components()
    elapsed = time.monotonic() - start
    held = [name for name, ok, _, _ in components if ok]
    # the linear-in-delta tail constant and the linear-in-eps product
    # threshold are not theorems: on the documented witnesses the criterion
    # asserts the falsification, every other component must hold
    witnesses = [(name, ok, side) for name, ok, _, side in components if side is not None]
    falsified = [name for name, ok, _ in witnesses if not ok]
    vanished = [name for name, ok, _ in witnesses if ok]
    unexpected = [(name, detail) for name, ok, detail, side in components if not ok and side is None]
    disagreeing = [(name, side) for name, _, side in witnesses if side]
    ok = not (unexpected or vanished or disagreeing) and len(witnesses) == 4 and elapsed < 300
    _line(
        9, ok, "Bohr calculus grid",
        f"{len(components)} components, {len(held)} hold, "
        f"{len(falsified)} falsified as documented: {falsified}, {elapsed:.0f}s"
        + (f"; unexpected failures: {[name for name, _ in unexpected]}" if unexpected else "")
        + (f"; vanished witnesses: {vanished}" if vanished else "")
        + (f"; second side disagrees: {disagreeing}" if disagreeing else ""),
    )
    assert elapsed < 300
    assert not unexpected, "components outside the documented witnesses fail: " + "; ".join(
        f"{n} [{d}]" for n, d in unexpected
    )
    assert not vanished, f"documented counterexamples no longer falsify their claim: {vanished}"
    assert len(witnesses) == 4, f"expected the 4 documented witnesses, evaluated {len(witnesses)}"
    assert not disagreeing, f"witness reports disagree with their independent recount: {disagreeing}"


def test_criterion_10_experiment_determinism(tmp_path):
    configs = {
        "triple-free": "group = dihedral(5)\nseed = 1\n",
        "sidon": "N = 101\nk = 2\nseed = 3\n",
        "additive-basis": "N = 211\nseed = 2\n",
        "interval-union": "N = 211\nc1 = 2\nC = 4\nseed = 5\n",
    }
    identical = True
    for name, body in configs.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(body, encoding="utf-8")
        for fmt in ("csv", "json"):
            out1 = tmp_path / f"{name}-1.{fmt}"
            out2 = tmp_path / f"{name}-2.{fmt}"
            code1 = cli_main(["experiment", name, "--config", str(cfg), "--format", fmt, "--out", str(out1)])
            code2 = cli_main(["experiment", name, "--config", str(cfg), "--format", fmt, "--out", str(out2)])
            assert code1 == 0 and code2 == 0
            if out1.read_bytes() != out2.read_bytes():
                identical = False
    _line(10, identical, "experiment determinism", "4 experiments x {csv, json}, byte-compared")
    assert identical


def test_criterion_11_interval_search_existence():
    rng = np.random.default_rng(1111)
    validated = 0
    attempts = 0
    exhausted = 0
    while validated < 100 and attempts < 3000:
        attempts += 1
        n = int(rng.choice((101, 199, 257)))
        group = make_group(f"cyclic({n})")
        length = int(rng.integers(5, n // 6))
        start = int(rng.integers(0, n))
        indices = [(start + j) % n for j in range(length)]
        for _ in range(int(rng.integers(0, 3))):
            indices.append(int(rng.integers(0, n)))
        a = GroupSubset.from_indices(group, sorted(set(indices)))
        eps = float(rng.uniform(0.25, 0.5))
        delta = float(rng.uniform(0.2, 0.45))
        coeff = abs(np.exp(2j * np.pi * a.indices / n).sum())
        if coeff < (1 - 2 * eps * (1 - math.cos(math.pi * delta))) * a.size:
            continue  # hypothesis not validated; resample
        validated += 1
        try:
            p = find_covering_interval(a, eps, delta)
        except SearchExhausted:
            exhausted += 1
            continue
        missing = a.size - int(np.isin(a.indices, p.index_array()).sum())
        assert missing < eps * a.size
        assert p.length - 1 < delta * n
    ok = validated == 100 and exhausted == 0
    _line(11, ok, "guaranteed interval search", f"{validated} validated instances, {exhausted} exhausted")
    assert validated == 100
    assert exhausted == 0
