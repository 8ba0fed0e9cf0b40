"""Gap lower bounds: formulas in exact arithmetic, hypotheses, graph variants."""

import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cayleygap import (
    GroupSubset,
    RegularGraph,
    basis_bound_value,
    convolve,
    diameter,
    diameter_bound_value,
    exceptional_bound_value,
    exceptional_set,
    graph_lambda1,
    graph_paths,
    inverse_set,
    iterated_convolution,
    lambda1,
    lambda1_of_function,
    lambda1_star,
    make_group,
    markov_matrix,
    pair_rep_count,
    rep_count,
    set_norm,
    symmetrized_rep_count,
    verify_basis_bound,
    verify_bohr_basis_bound,
    verify_bohr_basis_bound_certified,
    verify_diameter_bound,
    verify_exceptional_bound,
    verify_exceptional_bound_pair,
    verify_exceptional_bound_star,
    verify_fourier_norm_bound,
    verify_graph_bound,
    verify_progression_basis_bound,
    verify_uniformity,
)
from cayleygap import bounds as bounds_module
from cayleygap.bounds import BoundReport, _count_error
from cayleygap.cli import main
from cayleygap.groups import convolution_power
from cayleygap.representations import _AbelianCatalog, irrep_catalog
from cayleygap.errors import EmptySet, HypothesisFail, NotRegular, RangeViolation
from cayleygap.sampling import random_nonempty_subset, random_subset, random_symmetric_subset
from cayleygap.spectra import spectral_summary


def circulant_graph(n, connection):
    adj = np.zeros((n, n), dtype=int)
    for i in range(n):
        for c in connection:
            adj[i, (i + c) % n] = 1
    return RegularGraph(adj)


class TestRepCount:
    def test_first_power_is_indicator(self, z7):
        b = GroupSubset.from_indices(z7, [1, 3])
        assert np.array_equal(rep_count(b, 1).values, b.membership.astype(np.int64))

    def test_hand_case_z4(self):
        z4 = make_group("cyclic(4)")
        b = GroupSubset.from_indices(z4, [0, 1])
        assert rep_count(b, 2).values.tolist() == [1, 2, 1, 0]

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_mass_conservation(self, d, d6, rng):
        b = random_nonempty_subset(d6, rng)
        assert int(rep_count(b, d).values.sum()) == b.size**d

    def test_empty_rejected(self, z5):
        with pytest.raises(EmptySet):
            rep_count(GroupSubset.empty(z5), 2)

    def test_equal_subsets_share_one_count(self, z7):
        # two equal subsets built separately hash alike: the second call convolves nothing
        b1 = GroupSubset.from_indices(z7, [1, 3])
        b2 = GroupSubset(z7, b1.membership.copy())
        assert b1 is not b2
        assert rep_count(b1, 3) is rep_count(b2, 3)
        assert pair_rep_count(b1, inverse_set(b1), 2) is symmetrized_rep_count(b2, 2)
        assert rep_count(b1, 2) is not rep_count(b1, 3)

    @pytest.mark.parametrize("descriptor", ["dihedral(7)", 'permutation_closure(["(1 2 3 4 5)", "(1 2 3)"])'])
    def test_pair_fold_is_power_of_product(self, descriptor, rng):
        group = make_group(descriptor)
        for _ in range(3):
            b1 = random_nonempty_subset(group, rng)
            b2 = random_nonempty_subset(group, rng)
            for d in (1, 2, 3):
                power = iterated_convolution(convolve(b1.indicator(), b2.indicator()), d).values
                assert np.array_equal(pair_rep_count(b1, b2, d).values, power)
                star = iterated_convolution(convolve(b1.indicator(), inverse_set(b1).indicator()), d)
                assert np.array_equal(symmetrized_rep_count(b1, d).values, star.values)
                assert power.dtype == star.values.dtype == np.int64


def _gather(factors, d):
    return convolution_power([f.indicator() for f in factors], d)


def _admitted(factors, d):
    mass = math.prod(f.size for f in factors) ** d
    return _count_error(irrep_catalog(factors[0].group).factor_orders, len(factors), d, mass) < 0.5


class TestFftCounts:
    """Counts on abelian groups come from one FFT per factor where the rounding
    bound admits them; the gather ``convolution_power`` is the oracle."""

    @pytest.mark.parametrize(
        "descriptor",
        ["cyclic(1)", "cyclic(2)", "cyclic(1009)", "cyclic(4096)", "abelian_product([12, 15])", "abelian_product([2, 2, 3])"],
    )
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["B", "B B^-1", "B1 B2"])
    def test_counts_match_the_gather(self, descriptor, d, kind, rng):
        group = make_group(descriptor)
        for _ in range(3):
            b1 = random_subset(group, int(rng.integers(1, min(group.order, 12) + 1)), rng)
            b2 = random_subset(group, int(rng.integers(1, min(group.order, 12) + 1)), rng)
            factors = {"B": (b1,), "B B^-1": (b1, inverse_set(b1)), "B1 B2": (b1, b2)}[kind]
            assert _admitted(factors, d)
            got, want = bounds_module._count(factors, d).values, _gather(factors, d).values
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)

    def test_benchmark_instances_are_admitted_and_exact(self, tmp_path, monkeypatch):
        """Every count a benchmark config asks for on an abelian group, seeds 0-3."""
        root = Path(__file__).resolve().parents[1]
        asked = []
        count = bounds_module._count
        monkeypatch.setattr(bounds_module, "_count", lambda factors, d: asked.append((factors, d)) or count(factors, d))
        for cfg in sorted((root / "perfbench" / "configs").glob("*.cfg")):
            if not re.search(r"^group = (cyclic|abelian_product)\(", cfg.read_text(), re.M):
                continue
            kind, _, name = cfg.stem.partition("-")
            command = ["experiment", name] if kind == "experiment" else [kind]
            for seed in range(4):
                asked.clear()
                main([*command, "--config", str(cfg), "--seed", str(seed), "--out", str(tmp_path / "out.csv")])
                assert asked or kind in ("bohr", "spectrum"), cfg.stem
                for factors, d in asked:
                    assert _admitted(factors, d), (cfg.stem, seed, len(factors), d)
                    assert np.array_equal(count(factors, d).values, _gather(factors, d).values)

    def test_gate_refuses_the_symmetrized_fifth_power_on_z_100003(self):
        # (B*B^-1)^(5) with |B| = 50 has mass 50^10 > 2^53; B^(4) of the same set is admitted
        assert _count_error((100003,), 2, 5, 50**10) >= 0.5
        assert _count_error((100003,), 1, 4, 50**4) < 0.5

    def test_refused_count_runs_the_gather(self, monkeypatch):
        inverses = []
        inverse = _AbelianCatalog._inverse
        monkeypatch.setattr(_AbelianCatalog, "_inverse", lambda self, c: inverses.append(1) or inverse(self, c))
        b = GroupSubset.from_indices(make_group("cyclic(101)"), range(0, 101, 2))
        assert not _admitted((b, inverse_set(b)), 6)  # 51^12 > 2^53
        bounds_module._count.cache_clear()
        assert np.array_equal(symmetrized_rep_count(b, 6).values, _gather((b, inverse_set(b)), 6).values)
        assert inverses == []

    @pytest.mark.parametrize("descriptor", ["cyclic(1009)", "cyclic(1511)", "cyclic(4096)", "abelian_product([12, 15])"])
    def test_bound_dominates_the_float_error(self, descriptor, rng):
        # the unrounded FFT counts stay within the bound, by a wide margin
        group = make_group(descriptor)
        catalog = irrep_catalog(group)
        for d in (2, 3):
            b = random_subset(group, 40, rng)
            factors = (b, inverse_set(b))
            error = np.abs(bounds_module._fft_counts(catalog, factors, d) - _gather(factors, d).values).max()
            assert 0 < error < 1e-2 * _count_error(catalog.factor_orders, 2, d, 40 ** (2 * d))


class TestExceptionalSet:
    def test_basis_has_empty_exceptional_set(self, z7):
        b = GroupSubset.from_indices(z7, [0, 1, 2, 4])
        assert exceptional_set(b, 2, 1).size == 0

    def test_hand_case_z4(self):
        z4 = make_group("cyclic(4)")
        b = GroupSubset.from_indices(z4, [0, 1])
        omega = exceptional_set(b, 2, 1)
        assert sorted(int(i) for i in omega.indices) == [3]

    def test_threshold_above_everything(self, z5):
        b = GroupSubset.from_indices(z5, [0, 1])
        assert exceptional_set(b, 2, b.size**2 + 1).size == 5


class TestBasisAndDiameterBounds:
    def test_exact_values_z7(self, z7):
        s = GroupSubset.from_indices(z7, [0, 1, 2, 4])
        d = diameter(s)
        assert d == 2
        assert diameter_bound_value(s.size, d) == Fraction(1, 32)
        assert basis_bound_value(7, s.size, d) == Fraction(7, 32)
        r1 = verify_diameter_bound(s, d)
        r2 = verify_basis_bound(s, d)
        assert r1.holds and r2.holds
        assert r1.bound_value == 0.03125
        assert r2.bound_value == 0.21875

    @pytest.mark.parametrize("verify", [verify_diameter_bound, verify_basis_bound])
    def test_empty_set_rejected_before_the_formula(self, z7, verify):
        # the formulas divide by |S|; the empty set is an EmptySet, not a ZeroDivisionError
        with pytest.raises(EmptySet):
            verify(GroupSubset.empty(z7), 2)

    def test_complete_graph_case(self, d6):
        s = GroupSubset.full(d6)
        report = verify_basis_bound(s, 1)
        assert report.bound_exact == Fraction(1)
        assert abs(report.measured - 1.0) < 1e-9
        assert report.holds

    def test_better_than_diameter_bound_for_economical_bases(self, rng):
        # whenever |S|^(d-1) < 2 d |G| the basis form beats the diameter form
        confirmed = 0
        for n in (13, 17, 23):
            group = make_group(f"cyclic({n})")
            for _ in range(5):
                s = random_nonempty_subset(group, rng, max_size=n // 2)
                try:
                    d = diameter(s)
                except Exception:
                    continue
                if s.size ** (d - 1) < 2 * d * n:
                    assert basis_bound_value(n, s.size, d) > diameter_bound_value(s.size, d)
                    confirmed += 1
        assert confirmed >= 5


class TestOnePointSpace:
    """A one-point space has no nontrivial eigenvalue, so no gap bound has a measured side."""

    @pytest.mark.parametrize(
        "verify",
        [
            lambda s: verify_diameter_bound(s, 1),
            lambda s: verify_basis_bound(s, 1),
            lambda s: verify_exceptional_bound(s, 1, 1),
            lambda s: verify_exceptional_bound_pair(s, s, 1, 1),
            lambda s: verify_exceptional_bound_star(s, 1, 1),
        ],
        ids=["diameter", "basis", "exceptional", "pair", "star"],
    )
    def test_group_of_order_one(self, verify):
        with pytest.raises(HypothesisFail, match="one-point"):
            verify(GroupSubset.full(make_group("cyclic(1)")))

    def test_one_vertex_graph(self):
        with pytest.raises(HypothesisFail, match="one-vertex"):
            verify_graph_bound(RegularGraph([[1]]), 1, 1)


class TestExceptionalBound:
    def test_hand_case_negative_vacuous(self):
        z4 = make_group("cyclic(4)")
        b = GroupSubset.from_indices(z4, [0, 1])
        omega = exceptional_set(b, 2, 1)
        report = verify_exceptional_bound(b, 2, 1, omega)
        assert report.bound_exact == Fraction(-5, 18)
        assert report.verdict == "vacuous-pass"

    def test_perfect_equidistribution_gives_inverse_d(self):
        z4 = make_group("cyclic(4)")
        full = GroupSubset.full(z4)
        report = verify_exceptional_bound(full, 2, full.size**2 / 4)
        assert report.bound_exact == Fraction(1, 2)
        assert report.holds

    def test_empty_omega_reduces_to_basis_bound(self, z7):
        b = GroupSubset.from_indices(z7, [0, 1, 2, 4])
        report = verify_exceptional_bound(b, 2, 1)
        assert report.bound_exact == basis_bound_value(7, b.size, 2)

    def test_hypothesis_checked(self, z7):
        b = GroupSubset.from_indices(z7, [0, 1])
        with pytest.raises(HypothesisFail):
            verify_exceptional_bound(b, 2, 1)  # 2-fold sums miss elements

    def test_monotone_in_omega(self, z7):
        b = GroupSubset.from_indices(z7, [0, 1, 2, 4])
        values = []
        for omega_size in range(0, 4):
            value, _ = exceptional_bound_value(7, b.size, 2, 1, omega_size)
            values.append(value)
        assert all(x >= y for x, y in zip(values, values[1:]))

    @pytest.mark.parametrize("integer", [np.int8, np.int32, np.int64, np.uint16])
    def test_numpy_integer_g_is_exact_like_int(self, integer):
        """A numpy integer g gives the same exact Fraction as the Python int: no
        np.int64 numerator whose arithmetic wraps, as (50 + 3 * 1)**12 > 2**63 does."""
        expected = exceptional_bound_value(1009, 50, 12, 3, 1)
        value, exact = exceptional_bound_value(1009, 50, 12, integer(3), 1)
        assert exact == expected[1] and value == expected[0]
        assert type(exact.numerator) is int and type(exact.denominator) is int
        assert exact == Fraction(3 * 1009, 12 * 53**12) - Fraction(3, 50)

    @pytest.mark.parametrize("g", [1.5, np.float64(2.5), 0.5])
    def test_float_side_of_a_non_integral_g(self, g):
        """A float g has no exact side, and its float is the exact formula's to 4 ulp."""
        b = GroupSubset.from_indices(make_group("cyclic(13)"), [0, 1, 2, 3, 5])
        omega = exceptional_set(b, 2, 3)
        report = verify_exceptional_bound(b, 2, g, omega)
        x, w = Fraction(g), omega.size
        exact = float(x * 13 / (2 * (b.size + x * w) ** 2) - x * w / b.size)
        assert w > 0 and report.bound_exact is None
        assert abs(report.bound_value - exact) <= 4 * math.ulp(exact)

    def test_star_form(self, d6, rng):
        for _ in range(5):
            b = random_nonempty_subset(d6, rng)
            counts = symmetrized_rep_count(b, 2).values.real
            omega = GroupSubset(d6, (counts < 1).astype(np.int8))
            report = verify_exceptional_bound_star(b, 2, 1, omega)
            assert report.holds

    def test_pair_form(self, z12, rng):
        b1 = random_nonempty_subset(z12, rng)
        b2 = random_nonempty_subset(z12, rng)
        conv = convolve(b1.indicator(), b2.indicator())
        pair_counts = iterated_convolution(conv, 2).values.real
        omega = GroupSubset(z12, (pair_counts < 1).astype(np.int8))
        report = verify_exceptional_bound_pair(b1, b2, 2, 1, omega)
        assert report.holds


class TestFourierNormBound:
    def test_full_group(self, z7):
        report = verify_fourier_norm_bound(GroupSubset.full(z7), 1, 7)
        assert report.bound_value == 0.0
        assert report.measured < 1e-9
        assert report.holds

    def test_z7_hand_case(self, z7):
        b = GroupSubset.from_indices(z7, [0, 1, 3, 5])
        report = verify_fourier_norm_bound(b, 2, 1)
        assert report.holds

    def test_hypothesis_violated(self, z7):
        b = GroupSubset.from_indices(z7, [0])
        with pytest.raises(HypothesisFail):
            verify_fourier_norm_bound(b, 2, 2)


class TestUniformity:
    def test_full_group_zero_deviation(self, z7):
        report = verify_uniformity(GroupSubset.full(z7), 2, 3)
        assert report.measured < 1e-9
        assert report.holds

    @pytest.mark.parametrize("k", [0, 2, 8])
    def test_random_basis_z101(self, k, rng):
        group = make_group("cyclic(101)")
        from cayleygap.sampling import random_subset

        b = random_subset(group, 30, rng)
        for _ in range(50):
            if symmetrized_rep_count(b, 2).values.real.min() >= 1:
                break
            b = random_subset(group, 30, rng)
        else:
            pytest.fail("no covering random set found")
        report = verify_uniformity(b, 2, k)
        assert report.holds

    def test_hypothesis_checked(self, z7):
        b = GroupSubset.from_indices(z7, [0])
        with pytest.raises(HypothesisFail):
            verify_uniformity(b, 2, 2)


class TestGraphs:
    def test_complete_graph_with_loops(self):
        graph = RegularGraph(np.ones((5, 5), dtype=int))
        report = verify_graph_bound(graph, 1, 1)
        assert report.bound_value == 1.0
        assert abs(report.measured - 1.0) < 1e-9
        assert report.holds

    @pytest.mark.parametrize("g", [1.5, np.float64(2.5), 0.5])
    def test_float_side_of_a_non_integral_g(self, g):
        """A float g has no exact side, and its float is the exact formula's to 4 ulp."""
        report = verify_graph_bound(RegularGraph(np.ones((5, 5), dtype=int)), 2, g)  # 5 paths everywhere
        exact = float(Fraction(g) * 5 / (2 * 5**2))
        assert report.bound_exact is None
        assert abs(report.bound_value - exact) <= 4 * math.ulp(exact)

    def test_cycle_fails_hypothesis(self):
        graph = circulant_graph(5, (1, 4))
        assert graph_paths(graph, 2).min() == 0
        with pytest.raises(HypothesisFail):
            verify_graph_bound(graph, 2, 1)

    def test_random_circulant(self):
        # mixed-parity connection set keeps the graph non-bipartite, so some
        # power of the adjacency matrix is strictly positive
        graph = circulant_graph(32, (1, 31, 2, 30))
        d = 1
        while graph_paths(graph, d).min() < 1:
            d += 1
            assert d <= 32
        report = verify_graph_bound(graph, d, int(graph_paths(graph, d).min()))
        assert report.holds

    def test_complete_graph_without_loops(self):
        n = 9
        graph = RegularGraph(np.ones((n, n), dtype=int) - np.eye(n, dtype=int))
        report = verify_graph_bound(graph, 2, n - 2)
        # nontrivial eigenvalues of I - A/(n-1) all equal n/(n-1)
        assert abs(report.measured - n / (n - 1)) < 1e-9
        assert report.holds

    def test_petersen_graph(self):
        # girth 5: adjacent vertices share no common neighbor, so depth 2
        # fails the path hypothesis; the primitive power covers later
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, 5 + i) for i in range(5)]
        adj = np.zeros((10, 10), dtype=int)
        for a, b in outer + inner + spokes:
            adj[a, b] = adj[b, a] = 1
        graph = RegularGraph(adj)
        with pytest.raises(HypothesisFail):
            verify_graph_bound(graph, 2, 1)
        d = 3
        while graph_paths(graph, d).min() < 1:
            d += 1
            assert d <= 10
        report = verify_graph_bound(graph, d, int(graph_paths(graph, d).min()))
        assert report.holds

    def test_path_counts_that_overflow_int64_are_refused(self):
        # every entry of M^20 is 10^19 >= 2^63, which int64 matrix_power wraps
        # to -8446744073709551616 with no error
        graph = RegularGraph(np.ones((10, 10), dtype=int))
        with pytest.raises(RangeViolation, match="overflow int64"):
            graph_paths(graph, 20)
        with pytest.raises(RangeViolation):
            verify_graph_bound(graph, 20, 1)
        assert (graph_paths(graph, 18) == 10**17).all()  # 10^18 < 2^63: still exact
        assert graph_paths(RegularGraph(np.eye(3, dtype=int)), 10**6).tolist() == np.eye(3).tolist()

    def test_not_regular_rejected(self):
        adj = np.zeros((3, 3), dtype=int)
        adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = 1
        with pytest.raises(NotRegular):
            RegularGraph(adj)
        with pytest.raises(NotRegular):
            RegularGraph(2 * np.ones((3, 3), dtype=int))

    def test_graph_lambda1_matches_cayley(self, z12, rng):
        s = random_symmetric_subset(z12, 3, rng)
        graph = RegularGraph(np.asarray(markov_matrix(s), dtype=int))
        assert abs(graph_lambda1(graph) - lambda1(s)) < 1e-9


def _instance(kind):
    """A symmetric generating set and its diameter d; every count is >= 1 at d."""
    descriptor, size_hint = {
        "cyclic": ("cyclic(13)", 3),
        "dihedral": ("dihedral(6)", 4),
        "s5": ('permutation_closure(["(1 2 3 4 5)", "(1 2)"])', 8),
    }[kind]
    s = random_symmetric_subset(make_group(descriptor), size_hint, np.random.default_rng(5))
    return s, diameter(s)


def _star_omega(s, d):
    counts = symmetrized_rep_count(s, d).values.real
    return GroupSubset(s.group, (counts < 1).astype(np.int8))


def _cayley_graph(s):
    return RegularGraph(np.asarray(markov_matrix(s), dtype=int))


# verifier -> (call with count threshold g, the side it must measure itself)
SELF_MEASURED = {
    "diameter": (lambda s, d, g: verify_diameter_bound(s, d), lambda1),
    "basis": (lambda s, d, g: verify_basis_bound(s, d), lambda1),
    "exceptional": (
        lambda s, d, g: verify_exceptional_bound(s, d, g, exceptional_set(s, d, 1)),
        lambda1,
    ),
    "exceptional_pair": (
        lambda s, d, g: verify_exceptional_bound_pair(s, s, d, g),
        lambda s: lambda1_of_function(convolve(s.indicator(), s.indicator())),
    ),
    "exceptional_star": (
        lambda s, d, g: verify_exceptional_bound_star(s, d, g, _star_omega(s, d)),
        lambda1_star,
    ),
    "fourier_norm": (lambda s, d, g: verify_fourier_norm_bound(s, d, g), set_norm),
    "graph": (
        lambda s, d, g: verify_graph_bound(_cayley_graph(s), d, g),
        lambda s: graph_lambda1(_cayley_graph(s)),
    ),
    "progression_basis": (lambda s, d, g: verify_progression_basis_bound(s, d, g), lambda1),
    "bohr_basis": (lambda s, d, g: verify_bohr_basis_bound(s, d, g, _star_omega(s, d)), lambda1),
    "bohr_basis_certified": (
        lambda s, d, g: verify_bohr_basis_bound_certified(s, d, g, _star_omega(s, d)),
        lambda1,
    ),
}
# the norm needs a catalog (S5 has none); the progression and certified Bohr
# forms need Z/p, since dihedral(6) and S5 have a normal subgroup of index 2
ONLY_ON = {
    "fourier_norm": ("cyclic", "dihedral"),
    "progression_basis": ("cyclic",),
    "bohr_basis_certified": ("cyclic",),
}
# verifiers whose measured side is the memoized spectral engine
ENGINE_READERS = (
    "exceptional",
    "exceptional_star",
    "fourier_norm",
    "progression_basis",
    "bohr_basis",
    "bohr_basis_certified",
)


class TestSelfMeasured:
    @pytest.mark.parametrize(
        "name, kind",
        [
            (name, kind)
            for name in SELF_MEASURED
            for kind in ONLY_ON.get(name, ("cyclic", "dihedral", "s5"))
        ],
    )
    def test_measured_side_is_computed_by_the_verifier(self, name, kind):
        call, measure = SELF_MEASURED[name]
        s, d = _instance(kind)
        report = call(s, d, 1)
        assert report.measured == measure(s)

    @pytest.mark.parametrize("name", ENGINE_READERS)
    def test_hypothesis_certified_before_the_engine_runs(self, name):
        s, d = _instance("cyclic")
        spectral_summary.cache_clear()  # an early lambda1 / set_norm would be a miss
        misses = spectral_summary.cache_info().misses
        with pytest.raises(HypothesisFail):
            SELF_MEASURED[name][0](s, d, 10**6)
        assert spectral_summary.cache_info().misses == misses


class TestBoundReport:
    def test_slack_and_holds(self):
        r = BoundReport(bound_name="x", bound_value=0.5, measured=0.6)
        assert r.slack == pytest.approx(0.1)
        assert r.holds and r.verdict == "pass"
        r2 = BoundReport(bound_name="x", bound_value=0.5, measured=0.4)
        assert not r2.holds and r2.verdict == "fail"
        r3 = BoundReport(bound_name="x", bound_value=-0.1, measured=0.0, vacuous=True)
        assert r3.verdict == "vacuous-pass"

    def test_upper_sense(self):
        r = BoundReport(bound_name="x", bound_value=1.0, measured=0.9, sense="<=")
        assert r.slack == pytest.approx(0.1)
        assert r.holds

    def test_tolerance_boundary(self):
        r = BoundReport(bound_name="x", bound_value=0.5, measured=0.5 - 5e-10)
        assert r.holds
        r2 = BoundReport(bound_name="x", bound_value=0.5, measured=0.5 - 5e-9)
        assert not r2.holds

    @pytest.mark.parametrize("measured, verdict", [(4, "fail"), (3, "pass"), (4 - 1e-12, "pass"), (math.inf, "fail")])
    def test_strict_sense_has_no_tolerance(self, measured, verdict):
        # a cover size against 2^(25 d^2): equality fails, one below passes, an
        # uncontained side (read as infinite) fails
        r = BoundReport(bound_name="ruzsa_covering", bound_value=4.0, measured=measured, sense="<")
        assert r.slack == 4.0 - measured
        assert r.verdict == verdict

    @pytest.mark.parametrize("failures, vacuous, verdict", [
        (0, False, "pass"), (1, False, "fail"), (0, True, "vacuous-pass"), (1, True, "fail"),
    ])
    def test_inclusion_failure_count(self, failures, vacuous, verdict):
        r = BoundReport(bound_name="bohr_sum_rule", bound_value=0, measured=failures, sense="<=", vacuous=vacuous)
        assert r.slack == -failures and type(r.slack) is int  # an int count keeps an int slack
        assert r.verdict == verdict
