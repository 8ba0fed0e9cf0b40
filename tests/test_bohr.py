"""Bohr sets, convolution-mass shares, scans, size bounds, and regularity."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cayleygap import (
    GroupFunction,
    GroupSubset,
    Progression,
    bohr_doubling_check,
    bohr_set,
    bohr_sets_from_gap,
    bohr_size_thresholds,
    bohr_sum_rule_check,
    bohr_tail_check,
    check_bohr_eps_size,
    check_bohr_half_size,
    convolution_share,
    find_covering_interval,
    find_regular,
    fourier_transform,
    gap_from_bohr_sets,
    gap_from_progressions,
    inverse_set,
    irrep_catalog,
    is_regular,
    lambda1,
    large_spectrum,
    large_spectrum_product_check,
    make_group,
    multi_bohr_lower_bound_check,
    normal_subgroup_min_index,
    progressions_from_gap,
    progressions_from_gap_certified,
    regular_spectrum_check,
    ruzsa_covering,
    verify_bohr_basis_bound,
    verify_bohr_basis_bound_certified,
    verify_progression_basis_bound,
)
from cayleygap import bohr as bohr_module
from cayleygap.bohr import (
    CoveringReport,
    InclusionReport,
    _max_length_below,
    bohr_symmetry_normality_check,
    bohr_symmetry_normality_rows,
    is_prime,
    max_progression_mass,
    progression_scan,
)
from cayleygap.bounds import BoundReport
from cayleygap.bounds import exceptional_set, rep_count, symmetrized_rep_count
from cayleygap.errors import (
    DeltaOutOfRange,
    EmptyRepList,
    GroupTooLarge,
    HypothesisFail,
    NegativeValues,
    NotAbelian,
    NotRegular,
    RangeViolation,
    TrivialRep,
    ZeroMass,
)
from cayleygap.config import resolve_subset
from cayleygap.groups import product_set
from cayleygap.representations import UnitaryRepresentation
from cayleygap.sampling import random_subset, random_symmetric_subset
from cayleygap.spectra import spectral_summary


class TestBohrSet:
    def test_radius_two_gives_whole_group(self, z12):
        chi1 = irrep_catalog(z12)[1]
        assert bohr_set(chi1, 2.0).size == 12

    def test_hand_case_z12(self, z12):
        # |e^(2 pi i x / 12) - 1| = 2 |sin(pi x / 12)| <= 1 iff x in {0,1,2,10,11}
        chi1 = irrep_catalog(z12)[1]
        got = sorted(int(i) for i in bohr_set(chi1, 1.0).indices)
        assert got == [0, 1, 2, 10, 11]

    def test_identity_always_member(self, d6):
        for rep in irrep_catalog(d6):
            assert 0 in bohr_set(rep, 0.05)

    def test_symmetry_and_normality(self, d6):
        for rep in irrep_catalog(d6).nontrivial():
            for delta in (0.3, 0.8, 1.5):
                members = bohr_set(rep, delta)
                assert members == inverse_set(members)
                for x in range(d6.order):
                    conj = sorted(
                        d6.mul(d6.mul(x, int(m)), d6.inv(x)) for m in members.indices
                    )
                    assert conj == sorted(int(m) for m in members.indices)

    @pytest.mark.parametrize(
        "members,failures",
        [
            ([0, 3], 1),  # {e, s}: inverse-closed, but r s r^-1 = s r^-2 is outside
            ([0, 1], 2),  # {e, r}: r^-1 = r^2 is outside, and so is its conjugate
            ([0, 1, 2], 0),  # the rotation subgroup is normal
            ([3, 4, 5], 1),  # the reflection class misses only the identity
        ],
    )
    def test_normality_check_failures(self, monkeypatch, members, failures):
        # real Bohr sets are always normal, so hand the check a chosen set
        d3 = make_group("dihedral(3)")
        fake = GroupSubset.from_indices(d3, members)
        rep = irrep_catalog(d3)[1]
        monkeypatch.setattr(rep, "identity_distances", lambda: np.where(fake.membership, 0.0, 1.0))
        report = bohr_symmetry_normality_check(rep, 0.5)
        assert report.failures == failures
        assert report.checked == d3.order + 2

    def test_empty_rep_list(self):
        with pytest.raises(EmptyRepList):
            bohr_set([], 0.5)

    @pytest.mark.parametrize(
        "kernel",
        [
            bohr_module.bohr_half_size_rows,
            lambda items: bohr_module.bohr_eps_size_rows(items, 0.2),
            lambda items: bohr_module.bohr_sum_rule_rows(items, 0.3, 0.3),
            lambda items: bohr_module.bohr_symmetry_normality_rows(items, 0.3),
            lambda items: bohr_module.bohr_doubling_rows(items, 0.3),
            lambda items: bohr_module.ruzsa_covering_rows(items, 0.3),
        ],
        ids=["half_size", "eps_size", "sum_rule", "symmetry_normality", "doubling", "ruzsa_covering"],
    )
    def test_row_kernels_reject_an_empty_list(self, kernel):
        with pytest.raises(EmptyRepList):
            kernel([])

    def test_nonpositive_radius(self, z12):
        with pytest.raises(DeltaOutOfRange):
            bohr_set(irrep_catalog(z12)[1], 0.0)


class TestExactPhaseTies:
    """The stacks carry exact phases, so a distance that ties the radius in exact
    arithmetic stays inside the Bohr set's 1e-12 membership tolerance."""

    def test_cyclic_ties_at_radius_one_are_symmetric(self):
        rows = bohr_symmetry_normality_rows(irrep_catalog(make_group("cyclic(1200)")).nontrivial(), 1.0)
        assert [row.failures for row in rows] == [0] * 1199

    def test_cyclic_distances_are_exact_chords(self):
        n = 1200
        x = np.arange(n)
        k = (x[:, None] * x) % n  # the phase r x mod n, reduced as an integer
        distances = np.stack([rep.identity_distances() for rep in irrep_catalog(make_group(f"cyclic({n})"))])
        assert np.abs(distances - 2 * np.abs(np.sin(np.pi * k / n))).max() <= 1e-14
        ties = (k == n // 6) | (k == 5 * n // 6)  # 2 |sin(pi k / n)| = 1 exactly
        assert np.abs(distances[ties] - 1.0).max() <= 1e-14

    def test_dihedral_radius_two_is_the_whole_group(self):
        group = make_group("dihedral(600)")
        for rep in irrep_catalog(group).nontrivial():
            assert bohr_set(rep, 2.0).size == group.order, rep.label

    def test_dihedral_rows_at_radius_two_have_no_failure(self):
        rows = bohr_symmetry_normality_rows(irrep_catalog(make_group("dihedral(600)")).nontrivial(), 2.0)
        assert len(rows) == 302 and all(row.failures == 0 for row in rows)


class TestConvolutionShare:
    def test_whole_group_full_mass(self, z12, rng):
        f = GroupFunction(z12, rng.uniform(0.0, 1.0, 12))
        assert convolution_share(GroupSubset.full(z12), f, 3) == pytest.approx(1.0)

    def test_empty_set_zero(self, z12):
        f = GroupSubset.from_indices(z12, [0, 1]).indicator()
        assert convolution_share(GroupSubset.empty(z12), f, 2) == 0.0

    def test_hand_case_z4(self):
        z4 = make_group("cyclic(4)")
        f = GroupSubset.from_indices(z4, [0, 1]).indicator()
        assert convolution_share(GroupSubset.singleton(z4, 1), f, 2) == pytest.approx(0.5)

    def test_monotone_and_bounded(self, z12, rng):
        f = GroupSubset.from_indices(z12, [0, 1, 5]).indicator()
        small = GroupSubset.from_indices(z12, [0, 1])
        large = GroupSubset.from_indices(z12, [0, 1, 2, 3])
        s_small = convolution_share(small, f, 2)
        s_large = convolution_share(large, f, 2)
        assert 0.0 <= s_small <= s_large <= 1.0 + 1e-12

    def test_errors(self, z12):
        with pytest.raises(NegativeValues):
            convolution_share(GroupSubset.full(z12), GroupFunction(z12, -np.ones(12)), 2)
        with pytest.raises(ZeroMass):
            convolution_share(GroupSubset.full(z12), GroupFunction(z12, np.zeros(12)), 2)


class TestCoveringInterval:
    def test_interval_recovers_itself(self):
        # eps|A| < 1 forces zero exceptions, so the search must cover A itself
        group = make_group("cyclic(101)")
        a = GroupSubset.from_indices(group, range(10, 20))
        p = find_covering_interval(a, 0.09, 0.25)
        inside = np.isin(a.indices, p.index_array()).sum()
        assert a.size - inside == 0
        assert p.length - 1 < 0.25 * 101

    def test_interval_plus_outlier(self):
        group = make_group("cyclic(101)")
        a = GroupSubset.from_indices(group, list(range(20)) + [50])
        p = find_covering_interval(a, 0.35, 0.25)
        missing = a.size - int(np.isin(a.indices, p.index_array()).sum())
        assert missing < 0.35 * a.size
        assert p.length - 1 < 0.25 * 101

    def test_hypothesis_gate(self):
        group = make_group("cyclic(101)")
        a = GroupSubset.from_indices(group, range(0, 101, 2))  # spread-out set
        with pytest.raises(HypothesisFail):
            find_covering_interval(a, 0.1, 0.25)

    def test_hypothesis_at_equality_fails(self):
        # |Ahat(1)| = 1.618... equals (1 - 2 eps (1 - cos pi delta)) |A| here, and no
        # interval with l < delta N = 2 misses fewer than eps|A| = 1 element of A
        a = GroupSubset.from_indices(make_group("cyclic(5)"), [0, 1, 2])
        with pytest.raises(HypothesisFail):
            find_covering_interval(a, 1 / 3, 0.4)
        p = find_covering_interval(a, 0.3334, 0.4)
        assert (p.start, p.length) == (0, 2)

    def test_length_stays_strictly_below_an_integral_bound(self):
        # 0.4 * 5 is exactly 2, so l < delta N leaves l = 1 where l <= delta N would give 2
        assert _max_length_below(0.4 * 5, 4) == 1
        assert _max_length_below(2.5, 4) == 2

    def test_parameter_validation(self, z7):
        a = GroupSubset.from_indices(z7, [0, 1])
        with pytest.raises(HypothesisFail):
            find_covering_interval(a, 0.2, 0.7)  # delta must stay below 1/2
        group = make_group("cyclic(12)")  # composite modulus rejected
        with pytest.raises(HypothesisFail):
            find_covering_interval(GroupSubset.from_indices(group, [0, 1]), 0.2, 0.25)


def _gathered_sampled_scan(values, length, seed, samples=100_000):
    """Oracle: the sampled scan as a direct gather. Each seeded (start, step)
    draw sums ``values[(start + step * j) % n]`` over j < length, in chunks of
    about 10^7 cells; a later chunk wins only with a strictly larger sum, so
    the witness is the first maximizing draw."""
    n = values.size
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, n, samples)
    steps = rng.integers(1, n, samples)
    offsets = np.arange(length)
    best, witness = -1.0, None
    chunk = max(1, 10_000_000 // length)
    for lo in range(0, samples, chunk):
        sums = values[(starts[lo : lo + chunk, None] + steps[lo : lo + chunk, None] * offsets) % n].sum(axis=1)
        j = int(np.argmax(sums))
        if sums[j] > best:
            best = float(sums[j])
            witness = Progression(modulus=n, start=int(starts[lo + j]), step=int(steps[lo + j]), length=length)
    return best, witness, "sampled"


def _per_step_scan(values, max_terms, exhaustive, seed=0, samples=100_000):
    """Oracle: the former kernel, one Python iteration per step q = 1..n-1 of
    Z/n.  Each step sums all n cyclic windows of ``values[(q * t) % n]`` from
    one prefix sum; the exhaustive witness is the first (step, window) of the
    maximum, and the sampled draws read a table of each step's windows by
    start."""
    n = values.size
    mode = "exhaustive" if exhaustive else "sampled"
    length = max(0, min(max_terms, n))
    if length == 0:
        return 0.0, None, mode
    if n == 1:
        return float(values[0]), Progression(1, 0, 1, 1), mode
    if not exhaustive:
        rng = np.random.default_rng(seed)
        starts = rng.integers(0, n, samples)
        steps = rng.integers(1, n, samples)
        by_step = np.argsort(steps, kind="stable")
        edges = np.searchsorted(steps[by_step], np.arange(n + 1))
        sums = np.empty(samples)
        by_start = np.empty(n)
    best, witness = -1.0, None
    idx = np.arange(n)
    for q in range(1, n):
        at = (q * idx) % n
        permuted = values[at]
        prefix = np.concatenate([[0.0], np.cumsum(np.concatenate([permuted, permuted[: length - 1]]))])
        windows = prefix[length:] - prefix[:n]
        if exhaustive:
            t = int(np.argmax(windows))
            if windows[t] > best:
                best = float(windows[t])
                witness = Progression(modulus=n, start=int(at[t]), step=q, length=length)
        else:
            by_start[at] = windows
            drawn = by_step[edges[q] : edges[q + 1]]
            sums[drawn] = by_start[starts[drawn]]
    if not exhaustive:
        j = int(np.argmax(sums))
        best = float(sums[j])
        witness = Progression(modulus=n, start=int(starts[j]), step=int(steps[j]), length=length)
    return best, witness, mode


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestProgressionScan:
    def test_progression_type(self):
        p = Progression(modulus=11, start=3, step=2, length=4)
        assert p.index_array().tolist() == [3, 5, 7, 9]
        with pytest.raises(ValueError):
            Progression(modulus=5, start=0, step=1, length=6)

    def test_max_mass_matches_brute_force(self, rng):
        n = 31
        values = rng.uniform(0.0, 1.0, n)
        length = 8
        mass, witness, mode = max_progression_mass(values, length, exhaustive=True)
        assert mode == "exhaustive"
        best = 0.0
        for q in range(1, n):
            for a in range(n):
                for l in range(1, length + 1):
                    idx = (a + q * np.arange(l)) % n
                    best = max(best, float(values[idx].sum()))
        assert mass == pytest.approx(best)
        assert witness.length == length

    @pytest.mark.parametrize("exhaustive", [True, False])
    def test_max_mass_of_one_term(self, exhaustive):
        mass, witness, mode = max_progression_mass(np.array([2.5]), 3, exhaustive=exhaustive)
        assert mass == 2.5
        assert witness == Progression(modulus=1, start=0, step=1, length=1)
        assert mode == ("exhaustive" if exhaustive else "sampled")

    def test_sampled_mode_is_lower_bound(self, rng):
        n = 401
        values = rng.uniform(0.0, 1.0, n)
        exact, _, _ = max_progression_mass(values, 80, exhaustive=True)
        sampled, _, mode = max_progression_mass(values, 80, exhaustive=False, seed=1, samples=20000)
        assert mode == "sampled"
        assert sampled <= exact + 1e-12

    def test_composite_modulus_is_rejected(self):
        # step 2 reaches only the starts {0, 2}; the progression {1, 3} holds 10
        values = np.array([0.0, 5.0, 0.0, 5.0])
        for exhaustive in (True, False):
            with pytest.raises(HypothesisFail):
                max_progression_mass(values, 2, exhaustive=exhaustive)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_sampled_lookup_equals_gather(self, seed):
        group = make_group("cyclic(1009)")
        b = random_subset(group, 30, np.random.default_rng(seed))
        counts = rep_count(b, 2).values.astype(np.float64)
        for length in (403, 404):  # the reverse and forward scans of scan-cyclic1009
            expected = _gathered_sampled_scan(counts, length, seed)
            assert max_progression_mass(counts, length, exhaustive=False, seed=seed) == expected

    def test_sampled_ties_keep_the_first_draw(self):
        values = np.full(101, 3.0)
        mass, witness, mode = max_progression_mass(values, 20, exhaustive=False, seed=5, samples=300)
        assert (mass, witness, mode) == _gathered_sampled_scan(values, 20, 5, 300)
        rng = np.random.default_rng(5)
        start, step = int(rng.integers(0, 101, 300)[0]), int(rng.integers(1, 101, 300)[0])
        assert witness == Progression(modulus=101, start=start, step=step, length=20)

    def test_few_samples_equal_gather(self, rng):
        values = rng.integers(0, 50, 211).astype(np.float64)
        for samples in (1, 2, 17):
            got = max_progression_mass(values, 30, exhaustive=False, seed=3, samples=samples)
            assert got == _gathered_sampled_scan(values, 30, 3, samples)

    @pytest.mark.parametrize(
        "n, seeds", [(2, (0, 1, 2)), (3, (0, 1, 2)), (5, (0, 1, 2)), (7, (0, 1, 2)), (293, (0, 1, 2)), (1009, (0, 1)), (2003, (0,))]
    )
    def test_half_step_blocks_equal_per_step_loop(self, n, seeds):
        """Integer counts make every window sum exact, so the fold over steps
        q <= n/2 gives the former loop's maximum and witness bit for bit."""
        for seed in seeds:
            values = np.random.default_rng(seed).integers(0, 40, n).astype(np.float64)
            scanned = max(1, int(0.4 * n))  # the reverse scan's length at delta = 0.4
            for length in sorted({1, 2, scanned, scanned + 1, n - 1, n}):
                for exhaustive in (True, False):
                    got = max_progression_mass(values, length, exhaustive, seed)
                    assert got == _per_step_scan(values, length, exhaustive, seed), (seed, length, exhaustive)

    @pytest.mark.parametrize("n", [2, 7, 293])
    def test_constant_sequence_keeps_the_first_witness(self, n):
        values = np.full(n, 3.0)
        length = max(1, n // 3)
        mass, witness, _ = max_progression_mass(values, length, exhaustive=True)
        assert (mass, witness) == (3.0 * length, Progression(modulus=n, start=0, step=1, length=length))
        for seed in (0, 4):
            got = max_progression_mass(values, length, exhaustive=False, seed=seed, samples=500)
            assert got == _per_step_scan(values, length, False, seed, 500)
            rng = np.random.default_rng(seed)
            start, step = int(rng.integers(0, n, 500)[0]), int(rng.integers(1, n, 500)[0])
            assert got[1] == Progression(modulus=n, start=start, step=step, length=length)

    def test_sampled_witness_is_the_drawn_backward_step(self):
        """A winning draw of step k > n/2 is read on step n - k from a shifted
        start, but reported as drawn."""
        n, length, samples = 293, 88, 2000
        b = resolve_subset(make_group("cyclic(293)"), "random(20)", 0)
        values = rep_count(b, 2).values.astype(np.float64)
        backward = 0
        for seed in range(6):
            expected = _per_step_scan(values, length, False, seed, samples)
            assert max_progression_mass(values, length, False, seed, samples) == expected
            backward += expected[1].step > n // 2
        assert backward >= 2

    @pytest.mark.parametrize("exhaustive", [True, False])
    def test_rejects_inputs_the_full_length_argument_cannot_handle(self, exhaustive):
        # a negative term makes a shorter window heavier: the true maximum here is 5, not 4
        with pytest.raises(NegativeValues):
            max_progression_mass(np.array([5.0, -1, -1, -1, -1, -1, -1]), 2, exhaustive)
        for bad in (np.nan, np.inf):
            with pytest.raises(RangeViolation, match="finite"):
                max_progression_mass(np.array([1.0, bad, 2.0, 0.0, 1.0]), 2, exhaustive)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_sampled_scan_needs_a_sample(self, samples):
        with pytest.raises(ValueError, match="samples >= 1"):
            max_progression_mass(np.ones(7), 3, exhaustive=False, samples=samples)

    def test_sampled_peak_on_scan_cyclic1009(self):
        """Held at the former kernel's 3.13 MiB: the draws are kept as drawn,
        as an int32 start and an int16 step, and no per-draw sum is stored."""
        b = resolve_subset(make_group("cyclic(1009)"), "random(30)", 0)
        counts = rep_count(b, 2).values.astype(np.float64)
        max_progression_mass(counts, 404, exhaustive=False)  # the stream's jump table is built once per process, not per scan
        peak = _traced_peak(lambda: max_progression_mass(counts, 404, exhaustive=False))
        assert peak <= 3.13 * 2**20

    def test_exhaustive_peak_is_one_block(self):
        values = np.random.default_rng(0).integers(0, 50, 10007).astype(np.float64)
        peak = _traced_peak(lambda: max_progression_mass(values, 3002, exhaustive=True))
        assert peak < 2 * 2**20


class TestProgressionCharacterization:
    def test_full_set_forward(self):
        group = make_group("cyclic(61)")
        report = gap_from_progressions(GroupSubset.full(group), 2, 0.4)
        assert report.holds
        # the share of the full set over a progression P is |P|/N; the
        # forward scan runs over the offset family (floor(delta N) + 1 terms)
        assert report.parameters["share_max"] == pytest.approx(25 / 61)

    def test_forward_examples(self, rng):
        group = make_group("cyclic(101)")
        for _ in range(3):
            b = random_subset(group, 30, rng)
            report = gap_from_progressions(b, 2, 0.4)
            assert report.holds
            assert report.parameters["scan"] == "exhaustive"

    def test_forward_delta_cap(self, z7):
        with pytest.raises(HypothesisFail):
            gap_from_progressions(GroupSubset.full(z7), 2, 1.0)
        group = make_group("cyclic(13)")
        with pytest.raises(HypothesisFail):
            gap_from_progressions(GroupSubset.full(group), 1, 0.6)  # delta >= d/2

    def test_forward_supplied_alpha_checked(self, rng):
        group = make_group("cyclic(61)")
        b = random_subset(group, 20, rng)
        measured = gap_from_progressions(b, 2, 0.3)
        alpha = measured.parameters["alpha"]
        assert gap_from_progressions(b, 2, 0.3, alpha=alpha / 2).holds
        with pytest.raises(HypothesisFail):
            gap_from_progressions(b, 2, 0.3, alpha=min(1.0, alpha + 0.05))

    def test_reverse_singleton_vacuous(self):
        group = make_group("cyclic(61)")
        report = progressions_from_gap(GroupSubset.singleton(group, 0), 2, 0.3)
        assert report.verdict == "vacuous-pass"
        assert report.parameters["alpha"] <= 0

    def test_reverse_full_set(self):
        group = make_group("cyclic(61)")
        report = progressions_from_gap(GroupSubset.full(group), 2, 0.1)
        assert report.verdict == "pass"
        alpha = report.parameters["alpha"]
        assert alpha == pytest.approx((1 - math.pi * 0.1) / 2)

    def test_reverse_random(self, rng):
        group = make_group("cyclic(61)")
        for _ in range(3):
            b = random_subset(group, 20, rng)
            report = progressions_from_gap(b, 2, 0.1)
            assert report.holds

    def test_reverse_counterexample_documented(self):
        # B = {1, 5} in Z/13: the whole 2-fold sumset {2, 6, 10} is a 3-term
        # progression (share 1), yet the Hermitian gap is large because the
        # dominant character value is far from positive-real; the linear
        # reverse cap (1 - alpha) < 1 is falsified.  The certified variant
        # routes through the singular gap, which bounds character moduli
        # exactly, and is vacuous here rather than wrong.
        group = make_group("cyclic(13)")
        b = GroupSubset.from_indices(group, [1, 5])
        report = progressions_from_gap(b, 2, 0.28)
        assert report.measured == pytest.approx(1.0)
        assert report.verdict == "fail"
        certified = progressions_from_gap_certified(b, 2, 0.28)
        assert certified.holds

    def test_reverse_certified_random(self, rng):
        group = make_group("cyclic(101)")
        for _ in range(5):
            b = random_subset(group, int(rng.integers(2, 50)), rng)
            report = progressions_from_gap_certified(b, 2, 0.1)
            assert report.holds


class TestBohrCharacterization:
    def test_forward_random_dihedral(self, d6, rng):
        for _ in range(3):
            b = random_symmetric_subset(d6, 3, rng)
            report = gap_from_bohr_sets(b, 2, 0.3)
            assert report.holds

    def test_forward_supplied_alpha_checked(self, d6, rng):
        b = random_symmetric_subset(d6, 3, rng)
        measured = gap_from_bohr_sets(b, 2, 0.3)
        alpha = measured.parameters["alpha"]
        assert gap_from_bohr_sets(b, 2, 0.3, alpha=alpha / 2).holds
        if alpha < 0.95:
            with pytest.raises(HypothesisFail):
                gap_from_bohr_sets(b, 2, 0.3, alpha=min(1.0, alpha + 0.05))

    def test_reverse_full_set(self, d6):
        report = bohr_sets_from_gap(GroupSubset.full(d6), 2, 0.3)
        assert report.holds
        assert report.parameters["alpha"] == pytest.approx((1 - 0.3) / 2)

    def test_reverse_random_dihedral(self, d6, rng):
        for _ in range(5):
            b = random_symmetric_subset(d6, int(rng.integers(2, 5)), rng)
            report = bohr_sets_from_gap(b, 2, 0.3)
            assert report.holds

    def test_forward_counterexample_documented(self):
        # {e, s} in dihedral(3): every one-frequency Bohr share is 1/2, yet
        # the Cayley graph of the generated order-2 subgroup is disconnected,
        # so the d=1 forward bound alpha*delta/2 exceeds lambda1 = 0.  The
        # top singular direction of the transform at the plane rep is fixed
        # by s even though ||rho(s) - I|| = 2, which is exactly the case the
        # linear-in-delta tail argument misses.
        d3 = make_group("dihedral(3)")
        b = GroupSubset.from_indices(d3, [0, 3])
        report = gap_from_bohr_sets(b, 1, 0.5)
        assert report.parameters["alpha"] == pytest.approx(0.5)
        assert report.measured == pytest.approx(0.0, abs=1e-9)
        assert report.verdict == "fail"

    def test_forward_on_a_one_point_space_is_a_hypothesis_failure(self):
        # no nontrivial eigenvalue to bound: the share scan finds no Bohr set,
        # and alpha = 1 must not be checked against lambda1 = 0 as a "fail"
        with pytest.raises(HypothesisFail, match="one-point space"):
            gap_from_bohr_sets(GroupSubset.full(make_group("cyclic(1)")), 2, 0.3)


@pytest.mark.parametrize("forward", [gap_from_progressions, gap_from_bohr_sets])
def test_forward_alpha_refuted_before_the_engine_runs(forward):
    # alpha = 1 claims every share is 0; the scan refutes it, and lambda1
    # must not have been asked for by then
    b = GroupSubset.from_indices(make_group("cyclic(13)"), [1, 5, 8, 12])
    spectral_summary.cache_clear()  # an early lambda1 would be a miss
    misses = spectral_summary.cache_info().misses
    with pytest.raises(HypothesisFail, match="mass share reaches"):
        forward(b, 2, 0.3, alpha=1.0)
    assert spectral_summary.cache_info().misses == misses


class TestTailBound:
    def test_identity_singleton(self, d6):
        rep = irrep_catalog(d6).nontrivial()[0]
        report = bohr_tail_check(GroupSubset.singleton(d6, 0), rep, 0.0, 0.5)
        assert report.measured == 0.0
        assert report.holds

    def test_rotation_subgroup_dihedral(self, d4):
        catalog = irrep_catalog(d4)
        sign = next(r for r in catalog if r.label == "reflection_sign")
        rotations = GroupSubset.from_indices(d4, range(4))
        report = bohr_tail_check(rotations, sign, 0.0, 0.5)
        assert report.measured == 0.0
        assert report.holds

    def test_linear_delta_constant_fails_on_interval(self):
        # interval of length 6 in Z/37 at delta = 1/2 with the measured eps:
        # the tail is 12 while the linear-in-delta cap is ~5.98, so that form
        # is falsified; the Hermitian-constant form holds
        group = make_group("cyclic(37)")
        a = GroupSubset.from_indices(group, range(6))
        chi1 = irrep_catalog(group)[1]
        norm = fourier_transform(a.indicator(), chi1).op_norm
        eps = 1 - norm / a.size + 1e-12
        linear = bohr_tail_check(a, chi1, eps, 0.5)
        assert linear.measured == pytest.approx(12.0)
        assert linear.verdict == "fail"
        repaired = bohr_tail_check(a, chi1, eps, 0.5, form="hermitian")
        assert repaired.measured == pytest.approx(12.0)
        assert repaired.holds

    def test_hermitian_form_random(self, rng):
        group = make_group("cyclic(61)")
        catalog = irrep_catalog(group)
        for _ in range(10):
            a = random_subset(group, int(rng.integers(3, 20)), rng)
            rep = catalog[int(rng.integers(1, 61))]
            norm = fourier_transform(a.indicator(), rep).op_norm
            eps = min(1.0, 1 - norm / a.size + 1e-12)
            delta = float(rng.uniform(0.1, 1.9))
            assert bohr_tail_check(a, rep, eps, delta, form="hermitian").holds

    def test_hypothesis_gate(self, z7):
        chi1 = irrep_catalog(z7)[1]
        a = GroupSubset.from_indices(z7, [0, 3])
        with pytest.raises(HypothesisFail):
            bohr_tail_check(a, chi1, 0.0, 0.5)  # norm strictly below |A|


class TestSizeThresholds:
    def test_one_dimensional_threshold(self, z7):
        chi1 = irrep_catalog(z7)[1]
        thresholds = bohr_size_thresholds(chi1)
        assert thresholds.half_radius == pytest.approx(math.sqrt(3) / 2)

    def test_two_dimensional_threshold(self, d6):
        plane = next(r for r in irrep_catalog(d6) if r.dim == 2)
        assert bohr_size_thresholds(plane).half_radius == pytest.approx(0.5)

    def test_trivial_rejected(self, z7):
        with pytest.raises(TrivialRep):
            bohr_size_thresholds(irrep_catalog(z7).trivial)

    def test_half_size_z7(self, z7):
        chi1 = irrep_catalog(z7)[1]
        report = check_bohr_half_size(chi1)
        assert report.measured <= 3  # direct enumeration gives exactly 1
        assert report.holds

    def test_half_size_grid(self, d6, z12):
        for group in (d6, z12):
            for rep in irrep_catalog(group).nontrivial():
                assert check_bohr_half_size(rep).holds

    def test_eps_size_with_certificate(self):
        group = make_group("cyclic(101)")
        chi1 = irrep_catalog(group)[1]
        for eps in (0.1, 0.3, 0.5):
            report = check_bohr_eps_size(chi1, eps)
            assert report.holds

    def test_eps_size_certificate_failure(self, z12):
        chi1 = irrep_catalog(z12)[1]
        with pytest.raises(HypothesisFail):
            check_bohr_eps_size(chi1, 0.5)  # index-2 subgroup exists


class TestNormalSubgroups:
    def test_prime_cyclic(self, z7):
        assert normal_subgroup_min_index(z7, 10) == 7
        assert normal_subgroup_min_index(z7, 6) is None

    def test_dihedral_rotation_subgroup(self, d4):
        assert normal_subgroup_min_index(d4, 10) == 2

    def test_a5_simple(self, a5):
        assert normal_subgroup_min_index(a5, 59) is None
        assert normal_subgroup_min_index(a5, 60) == 60

    def test_composite_cyclic(self):
        assert normal_subgroup_min_index(make_group("cyclic(15)"), 10) == 3

    def test_cap_enforced(self):
        with pytest.raises(GroupTooLarge):
            normal_subgroup_min_index(make_group("dihedral(101)"), 5)

    def test_abelian_groups_answer_above_the_cap(self):
        """The cap guards the class enumeration of nonabelian groups only: an
        abelian group of prime order 211 has no proper subgroup but the trivial one."""
        group = make_group("cyclic(211)")
        assert normal_subgroup_min_index(group, 211) == 211
        assert normal_subgroup_min_index(group, 5) is None


class TestLargeSpectrum:
    def test_zero_threshold_everything(self, z12, rng):
        a = random_subset(z12, 4, rng)
        assert len(large_spectrum(a, 0.0).indices) == 12

    def test_full_set_only_trivial(self, z12):
        spec = large_spectrum(GroupSubset.full(z12), 0.5)
        assert spec.labels == ("chi0",)

    def test_hand_case_z10(self):
        group = make_group("cyclic(10)")
        a = GroupSubset.from_indices(group, [0, 5])
        spec = large_spectrum(a, 1.0)
        assert spec.indices == (0, 2, 4, 6, 8)

    def test_product_check_z31(self):
        group = make_group("cyclic(31)")
        a = GroupSubset.from_indices(group, range(7))
        report = large_spectrum_product_check(a, 0.05, 0.05)
        assert report.holds and not report.vacuous

    def test_product_check_vacuous(self, z12):
        a = GroupSubset.from_indices(z12, [0, 1])
        report = large_spectrum_product_check(a, 0.6, 0.6)
        assert report.vacuous and report.holds

    def test_product_check_needs_abelian(self, d6):
        with pytest.raises(NotAbelian):
            large_spectrum_product_check(GroupSubset.full(d6), 0.1, 0.1)

    def test_product_inclusion_fails_at_large_eps(self):
        # the linear-in-eps product inclusion is not a theorem: for
        # A = {1, 15} in Z/31, chi5 clears both thresholds at eps1 ~ 0.44,
        # eps2 ~ 0.34, but |Ahat(chi10)| ~ 0.10 |A| falls far below
        # (1 - eps1 - eps2)|A|; phase deviations of the factors add like
        # sqrt(eps), so two-element sets break it even at small thresholds
        group = make_group("cyclic(31)")
        a = GroupSubset.from_indices(group, [1, 15])
        report = large_spectrum_product_check(a, 0.441, 0.336)
        assert not report.vacuous
        assert report.failures > 0
        small = GroupSubset.from_indices(group, [5, 12])
        report_small = large_spectrum_product_check(small, 0.103, 0.014)
        assert report_small.failures > 0

    def test_product_inclusion_cosine_form_holds(self, rng):
        # the cosine-deficit threshold is the certified one; it holds on the
        # exact instances that break the linear form, and everywhere else
        group = make_group("cyclic(31)")
        for indices, e1, e2 in (([1, 15], 0.441, 0.336), ([5, 12], 0.103, 0.014)):
            report = large_spectrum_product_check(
                GroupSubset.from_indices(group, indices), e1, e2, form="cosine"
            )
            assert report.holds
        for _ in range(20):
            a = random_subset(group, int(rng.integers(1, 31)), rng)
            e1, e2 = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            assert large_spectrum_product_check(a, e1, e2, form="cosine").holds


class TestBohrCalculus:
    def test_sum_rule(self, z12, d6):
        for group in (z12, d6):
            reps = irrep_catalog(group).nontrivial()[:2]
            for d1, d2 in ((0.3, 0.4), (0.8, 0.9), (1.2, 1.0)):
                assert bohr_sum_rule_check(reps, d1, d2).holds

    def test_sum_rule_vacuous_above_two(self, z12):
        reps = [irrep_catalog(z12)[1]]
        report = bohr_sum_rule_check(reps, 1.2, 1.1)
        assert report.holds and report.vacuous

    def test_doubling_z101(self):
        group = make_group("cyclic(101)")
        chi1 = irrep_catalog(group)[1]
        report = bohr_doubling_check(chi1, 0.3)
        assert report.holds
        assert report.bound_value == pytest.approx(2**10.5)

    def test_doubling_two_dimensional(self, d6):
        plane = next(r for r in irrep_catalog(d6) if r.dim == 2)
        report = bohr_doubling_check(plane, 0.3)
        assert report.holds
        assert report.bound_value == pytest.approx(2.0**42)

    def test_doubling_range(self, z12):
        with pytest.raises(DeltaOutOfRange):
            bohr_doubling_check(irrep_catalog(z12)[1], 0.5)

    def test_ruzsa_covering(self, z12, d6):
        group101 = make_group("cyclic(101)")
        cases = [
            (irrep_catalog(group101)[1], 0.6),
            (irrep_catalog(z12)[1], 0.8),
            (next(r for r in irrep_catalog(d6) if r.dim == 2), 0.7),
        ]
        for rep, delta in cases:
            report = ruzsa_covering(rep, delta)
            assert report.holds

    def test_multi_bohr(self, d6):
        d8 = make_group("dihedral(8)")
        reps = [r for r in irrep_catalog(d8).nontrivial()][:2]
        report = multi_bohr_lower_bound_check([(reps[0], 0.8), (reps[1], 0.8)])
        assert report.holds
        group = make_group("cyclic(101)")
        cat = irrep_catalog(group)
        report = multi_bohr_lower_bound_check([(cat[1], 0.4), (cat[2], 0.6)])
        assert report.holds

    def test_multi_bohr_requires_sorted(self, z12):
        cat = irrep_catalog(z12)
        with pytest.raises(ValueError):
            multi_bohr_lower_bound_check([(cat[1], 0.8), (cat[2], 0.3)])


def _counted_is_regular(rep, delta):
    """Oracle: the loop form of the regularity check, with every Bohr size
    counted directly on the unsorted distances ||rho(g) - I||."""
    d = rep.identity_distances()
    kappa_max = 1.0 / (100.0 * rep.dim**2)
    base = np.count_nonzero(d <= delta)
    if base == 0:
        return False
    allowance = 100.0 * rep.dim**2 * base
    for v in d[(d > delta) & (d <= (1.0 + kappa_max) * delta)]:
        if np.count_nonzero(d <= v) - base > allowance * (v / delta - 1.0) + 1e-9:
            return False
    for v in d[(d > (1.0 - kappa_max) * delta) & (d <= delta)]:
        if base - np.count_nonzero(d < v) > allowance * (1.0 - v / delta) + 1e-9:
            return False
    # the window's lower end, never binding: its allowance is about all of base
    return base - np.count_nonzero(d <= (1.0 - kappa_max) * delta) <= allowance * kappa_max + 1e-9


class TestRegularity:
    @pytest.mark.parametrize(
        "descriptor", ["cyclic(64)", "cyclic(199)", "dihedral(10)", "abelian_product([12, 15])"]
    )
    def test_matches_counting_oracle(self, descriptor):
        for rep in irrep_catalog(make_group(descriptor)).nontrivial():
            values = np.unique(rep.identity_distances())
            values = values[values <= 1.0]
            radii = np.concatenate([values, (values[:-1] + values[1:]) / 2])
            for radius in radii[radii > 0]:
                assert is_regular(rep, radius) == _counted_is_regular(rep, radius), (rep.label, radius)
            for delta in (0.05, 0.1, 0.2, 0.3, 0.5):
                # candidates: delta, 2 delta, the midpoints between them and the
                # distance values inside, and a 1024-point grid
                bounds = np.concatenate(([delta], values[(values > delta) & (values < 2 * delta)], [2 * delta]))
                grid = np.linspace(delta, 2 * delta, 1024)
                candidates = np.unique(np.concatenate((bounds[[0, -1]], (bounds[:-1] + bounds[1:]) / 2, grid)))
                first = next(r for r in candidates if _counted_is_regular(rep, r))
                assert find_regular(rep, delta) == first, (rep.label, delta)

    def test_constant_window_is_regular(self):
        group = make_group("cyclic(64)")
        chi1 = irrep_catalog(group)[1]
        values = np.unique(chi1.identity_distances())
        gaps = np.diff(values)
        # place the radius in the middle of the widest jump-free interval;
        # when the whole kappa window fits inside it the size increment is 0
        widest = int(np.argmax(gaps))
        radius = float((values[widest] + values[widest + 1]) / 2)
        kappa_max = 1.0 / 100.0
        assert radius * 2 * kappa_max < gaps[widest]
        assert is_regular(chi1, radius)
        # a radius sitting exactly on a distance value is never regular
        assert not is_regular(chi1, float(values[1]))

    def test_find_regular_z64(self):
        group = make_group("cyclic(64)")
        chi1 = irrep_catalog(group)[1]
        radius = find_regular(chi1, 0.2)
        assert 0.2 <= radius <= 0.4
        assert is_regular(chi1, radius)

    def test_find_regular_range(self, z12):
        with pytest.raises(DeltaOutOfRange):
            find_regular(irrep_catalog(z12)[1], 0.7)

    @pytest.mark.parametrize("descriptor,delta", [
        ("cyclic(64)", 0.2), ("cyclic(101)", 0.35), ("cyclic(128)", 0.2),
        ("dihedral(6)", 0.3), ("dihedral(10)", 0.25),
    ])
    def test_regular_radius_exists(self, descriptor, delta):
        group = make_group(descriptor)
        for rep in irrep_catalog(group).nontrivial():
            radius = find_regular(rep, delta)
            assert delta <= radius <= 2 * delta + 1e-12

    def test_spectrum_of_regular_bohr(self):
        group = make_group("cyclic(128)")
        chi1 = irrep_catalog(group)[1]
        delta = find_regular(chi1, 0.2)
        kappa = 0.05
        delta_prime = kappa * delta / 100.0
        report = regular_spectrum_check(chi1, delta, delta_prime, kappa, 0.5)
        assert report.holds

    def test_spectrum_check_vacuous(self):
        group = make_group("cyclic(128)")
        chi1 = irrep_catalog(group)[1]
        delta = find_regular(chi1, 0.2)
        report = regular_spectrum_check(chi1, delta, 0.001 * delta / 100, 0.1, 0.15)
        assert report.vacuous and report.holds

    def test_spectrum_check_guards(self):
        group = make_group("cyclic(128)")
        chi1 = irrep_catalog(group)[1]
        delta = find_regular(chi1, 0.2)
        with pytest.raises(RangeViolation):
            regular_spectrum_check(chi1, delta, delta, 0.05, 0.5)
        values = np.unique(chi1.identity_distances())
        with pytest.raises(NotRegular):
            regular_spectrum_check(chi1, float(values[1]), 1e-6, 0.05, 0.5)


class TestBasisCorollaries:
    def test_progression_basis_z7(self, z7):
        b = GroupSubset.from_indices(z7, [0, 1, 2, 4])
        report = verify_progression_basis_bound(b, 2, 1)
        assert report.holds
        expected = 1 * 7 * (1 - math.cos(math.pi / 4)) / (2 * 4**2)
        assert report.bound_value == pytest.approx(expected)

    def test_progression_basis_eps_form(self, rng):
        group = make_group("cyclic(101)")
        b = random_subset(group, 12, rng)
        omega = exceptional_set(b, 2, 1)
        if omega.size == 101:
            pytest.skip("degenerate sample")
        report = verify_progression_basis_bound(b, 2, 1, omega, form="eps")
        assert report.holds

    def test_bohr_basis_dihedral(self, d6, rng):
        for _ in range(5):
            b = random_symmetric_subset(d6, 3, rng)
            counts = symmetrized_rep_count(b, 2).values.real
            omega = GroupSubset(d6, (counts < 1).astype(np.int8))
            report = verify_bohr_basis_bound(b, 2, 1, omega)
            assert report.holds

    def test_bohr_basis_exact_side_for_rational_and_numpy_g(self):
        # g goes through the same exactness rule as the exceptional bound
        b = GroupSubset.from_indices(make_group("cyclic(13)"), [0, 1, 2, 3, 5])
        half = verify_bohr_basis_bound(b, 2, Fraction(1, 2))
        assert half.bound_exact == Fraction(13, 40000) and half.bound_value == float(half.bound_exact)
        one = verify_bohr_basis_bound(b, 2, np.int64(1)).bound_exact
        assert one == Fraction(13, 20000) and type(one.numerator) is int and type(one.denominator) is int
        assert verify_bohr_basis_bound(b, 2, 0.5).bound_exact is None

    @pytest.mark.parametrize("g", [1.5, np.float64(2.5), 0.5])
    def test_bohr_basis_float_side_of_a_non_integral_g(self, g):
        """A float g has no exact side, and its float is the exact formula's to 4 ulp."""
        b = GroupSubset.from_indices(make_group("cyclic(13)"), [0, 1, 2, 3, 5])
        omega = GroupSubset(b.group, (symmetrized_rep_count(b, 2).values.real < 30).astype(np.int8))
        report = verify_bohr_basis_bound(b, 2, g, omega)
        exact = float(Fraction(g) * (13 - 2 * omega.size) / (8 * 2 * 2 * b.size**4))
        assert omega.size > 0 and report.bound_exact is None
        assert abs(report.bound_value - exact) <= 4 * math.ulp(exact)

    def test_bohr_basis_certified_a5(self, a5, rng):
        b = random_symmetric_subset(a5, 6, rng)
        counts = symmetrized_rep_count(b, 2).values.real
        omega = GroupSubset(a5, (counts < 1).astype(np.int8))
        if omega.size >= 30:
            pytest.skip("degenerate sample")
        report = verify_bohr_basis_bound_certified(b, 2, 1, omega)
        assert report.holds

    def test_bohr_basis_certified_above_the_cap_is_a_hypothesis_failure(self):
        # normal subgroups are enumerated up to NORMAL_SUBGROUP_CAP only; above it the
        # certificate's hypothesis is uncertified, not the group too large to report
        group = make_group("cyclic(211)")
        assert group.order > bohr_module.NORMAL_SUBGROUP_CAP
        b = random_subset(group, 20, np.random.default_rng(0))
        counts = symmetrized_rep_count(b, 2).values.real
        omega = GroupSubset(group, (counts < 1).astype(np.int8))
        assert omega.size < group.order
        with pytest.raises(HypothesisFail, match="uncertified above order"):
            verify_bohr_basis_bound_certified(b, 2, 1, omega)

    def test_requires_prime_modulus(self, z12, rng):
        b = random_subset(z12, 5, rng)
        with pytest.raises(HypothesisFail):
            verify_progression_basis_bound(b, 2, 1)

    def test_eps_form_identity_singleton_counterexample(self, z5):
        # B = {0}: the only covered element is 0 (eps N = 1), the Cayley
        # graph is totally disconnected (gap 0), yet the eps-form emits a
        # positive bound: at delta = eps/2 the progression family the
        # forward argument needs contains the covering singleton, so the
        # claimed mass cap is unattainable.  The base form never hits this:
        # its delta = 1/2 family is far from empty.  Documented degenerate
        # falsification; the bound is checked as displayed.
        b = GroupSubset.singleton(z5, 0)
        omega = GroupSubset.from_indices(z5, [1, 2, 3, 4])
        report = verify_progression_basis_bound(b, 2, 1, omega, form="eps")
        assert report.bound_value > 0
        assert report.measured == pytest.approx(0.0, abs=1e-12)
        assert report.verdict == "fail"


@pytest.mark.parametrize(
    "check",
    [
        lambda g: bohr_tail_check(GroupSubset.singleton(g, 0), irrep_catalog(g)[1], 0.0, 0.5, form="paper"),
        lambda g: large_spectrum_product_check(GroupSubset.from_indices(g, [0, 1]), 0.1, 0.1, form="paper"),
        lambda g: verify_progression_basis_bound(GroupSubset.from_indices(g, [0, 1, 2, 4]), 2, 1, form="paper"),
    ],
    ids=["bohr_tail_check", "large_spectrum_product_check", "verify_progression_basis_bound"],
)
def test_unknown_form_rejected(z7, check):
    with pytest.raises(ValueError, match="unknown form 'paper'"):
        check(z7)

def test_prime_guard_refuses_the_one_factor_product():
    """abelian_product([7]) has the law of cyclic(7) but is no CyclicGroup, so the
    progression scans, which read indices as residues mod N, refuse it."""
    for descriptor, refused in (("cyclic(7)", False), ("abelian_product([7])", True)):
        s = GroupSubset.from_indices(make_group(descriptor), [1, 2])
        for scan in (progression_scan, gap_from_progressions, progressions_from_gap, progressions_from_gap_certified):
            if refused:
                with pytest.raises(HypothesisFail, match="Z/N with N prime"):
                    scan(s, 2, 0.3)
            else:
                scan(s, 2, 0.3)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)


# -- the row kernels against the one-representation bodies they replaced ------------


def _oracle_bohr(reps, delta):
    reps = (reps,) if isinstance(reps, UnitaryRepresentation) else tuple(reps)
    member = np.ones(reps[0].group.order, dtype=bool)
    for rep in reps:
        member &= rep.identity_distances() <= delta + 1e-12
    return GroupSubset(reps[0].group, member.astype(np.int8))


def _oracle_symmetry(reps, delta):
    b = _oracle_bohr(reps, delta)
    group = b.group
    failures = int(group.identity not in b) + int(b != inverse_set(b))
    labels = np.zeros(group.order, dtype=np.intp)
    for label, cls in enumerate(group.conjugacy_classes()):
        labels[cls] = label
    inside = np.bincount(labels, weights=b.membership)
    failures += int(np.any((inside > 0) & (inside < np.bincount(labels))))
    return InclusionReport(
        name="bohr_symmetry_normality", checked=group.order + 2, failures=failures,
        parameters={"delta": delta, "size": b.size},
    )


def _oracle_sum_rule(reps, delta1, delta2):
    produced = product_set(_oracle_bohr(reps, delta1), _oracle_bohr(reps, delta2))
    target = _oracle_bohr(reps, delta1 + delta2)
    return InclusionReport(
        name="bohr_sum_rule", checked=produced.size, failures=produced.difference(target).size,
        vacuous=target.size == target.group.order, parameters={"delta1": delta1, "delta2": delta2},
    )


def _oracle_half_size(rep):
    radius = bohr_size_thresholds(rep).half_radius
    return BoundReport(
        bound_name="bohr_half_size", bound_value=rep.group.order / 2.0,
        measured=float(_oracle_bohr(rep, radius).size), sense="<=",
        parameters={"group_order": rep.group.order, "rep": rep.label, "delta": radius},
    )


def _oracle_eps_size(rep, eps):
    witness = normal_subgroup_min_index(rep.group, math.floor(1.0 / eps))
    if witness is not None:
        raise HypothesisFail(f"{rep.group.name} has a normal proper subgroup of index {witness} <= 1/eps")
    radius = bohr_size_thresholds(rep).eps_radius(eps)
    return BoundReport(
        bound_name="bohr_eps_size", bound_value=eps * rep.group.order,
        measured=float(_oracle_bohr(rep, radius).size), sense="<=",
        parameters={"group_order": rep.group.order, "rep": rep.label, "eps": eps, "delta": radius},
    )


def _oracle_doubling(rep, delta):
    b = _oracle_bohr(rep, delta)
    return BoundReport(
        bound_name="bohr_doubling_ratio", bound_value=2.0 ** (21.0 * rep.dim**2 / 2.0),
        measured=product_set(b, b).size / b.size, sense="<=",
        parameters={"group_order": rep.group.order, "rep": rep.label, "delta": delta, "bohr_size": b.size},
    )


def _oracle_covering(rep, delta):
    group = rep.group
    b, quarter, half = (_oracle_bohr(rep, r) for r in (delta, delta / 4.0, delta / 2.0))

    def greedy(translates):
        occupied = np.zeros(group.order, dtype=bool)
        chosen = []
        for x, cells in zip(b.indices, translates):
            if not occupied[cells].any():
                chosen.append(int(x))
                occupied[cells] = True
        return chosen

    x_cover = greedy(group.mul(quarter.indices[None, :], b.indices[:, None]))
    y_cover = greedy(group.mul(b.indices[:, None], quarter.indices[None, :]))
    x_set, y_set = GroupSubset.from_indices(group, x_cover), GroupSubset.from_indices(group, y_cover)
    return CoveringReport(
        rep_label=rep.label, delta=delta, left_cover=tuple(x_cover), right_cover=tuple(y_cover),
        size_bound=2.0 ** (25.0 * rep.dim**2),
        left_contained=b.difference(product_set(half, x_set)).size == 0,
        right_contained=b.difference(product_set(y_set, half)).size == 0,
    )


def _same(got, expected):
    # repr also tells a numpy scalar from the Python number the reports carry
    assert [repr(r) for r in got] == [repr(r) for r in expected]


BATTERY_GROUPS = ["cyclic(12)", "cyclic(199)", "abelian_product([12, 15])", "dihedral(6)", "dihedral(200)"]


def _on_a_distance(reps):
    """A radius sitting exactly on a distance value of the last representation."""
    values = np.sort(reps[-1].identity_distances())
    return float(values[values > 0][1])


class TestRowKernels:
    @pytest.mark.parametrize("descriptor", BATTERY_GROUPS)
    @pytest.mark.parametrize("delta", [0.1, 0.3, 0.4, 0.8, "on-a-distance"])
    def test_battery_matches_one_rep_bodies(self, descriptor, delta):
        reps = irrep_catalog(make_group(descriptor)).nontrivial()
        if delta == "on-a-distance":
            delta = _on_a_distance(reps)
            assert np.any(np.stack([r.identity_distances() for r in reps]) == delta)
        _same(bohr_module.bohr_symmetry_normality_rows(reps, delta), [_oracle_symmetry(r, delta) for r in reps])
        _same(
            bohr_module.bohr_sum_rule_rows(reps, delta / 2, delta / 2),
            [_oracle_sum_rule(r, delta / 2, delta / 2) for r in reps],
        )
        _same(bohr_module.bohr_sum_rule_rows(reps, delta, 0.3), [_oracle_sum_rule(r, delta, 0.3) for r in reps])
        if delta <= 0.4:
            _same(bohr_module.bohr_doubling_rows(reps, delta), [_oracle_doubling(r, delta) for r in reps])
        _same(bohr_module.ruzsa_covering_rows(reps, delta), [_oracle_covering(r, delta) for r in reps])
        _same([bohr_set(r, delta) for r in reps], [_oracle_bohr(r, delta) for r in reps])

    @pytest.mark.parametrize("descriptor", BATTERY_GROUPS)
    def test_size_checks_match_one_rep_bodies(self, descriptor):
        group = make_group(descriptor)
        reps = irrep_catalog(group).nontrivial()
        _same(bohr_module.bohr_half_size_rows(reps), [_oracle_half_size(r) for r in reps])
        for eps in (0.2, 0.5):
            if group.order > bohr_module.NORMAL_SUBGROUP_CAP:
                with pytest.raises(GroupTooLarge):
                    bohr_module.bohr_eps_size_rows(reps, eps)
                continue
            try:
                expected = [_oracle_eps_size(r, eps) for r in reps]
            except HypothesisFail as exc:
                with pytest.raises(HypothesisFail, match=re.escape(str(exc))):
                    bohr_module.bohr_eps_size_rows(reps, eps)
            else:
                _same(bohr_module.bohr_eps_size_rows(reps, eps), expected)

    @pytest.mark.parametrize("descriptor", BATTERY_GROUPS)
    @pytest.mark.parametrize("delta", [0.3, 0.8])
    def test_joint_rows_match_one_rep_bodies(self, descriptor, delta):
        reps = irrep_catalog(make_group(descriptor)).nontrivial()
        items = [reps[:2], reps[-3:], [reps[0], reps[len(reps) // 2]]]
        _same(bohr_module.bohr_symmetry_normality_rows(items, delta), [_oracle_symmetry(i, delta) for i in items])
        _same(
            bohr_module.bohr_sum_rule_rows(items, delta / 2, delta),
            [_oracle_sum_rule(i, delta / 2, delta) for i in items],
        )
        _same([bohr_set(i, delta) for i in items], [_oracle_bohr(i, delta) for i in items])

    def test_normality_of_sets_that_are_no_union_of_classes(self, d6, rng):
        # rho = 1 on the set and -1 off it (no homomorphism) makes the set itself the
        # Bohr set at radius 1: {e, s} fails only conjugation by r, and {e, r} fails
        # inversion and conjugation by s, each failure counted once
        def masked(group, member):
            return UnitaryRepresentation(group, np.where(member, 1.0, -1.0).reshape(-1, 1, 1), "mask")

        items = [masked(d6, np.isin(np.arange(d6.order), m)) for m in ([0, 6], [0, 1], [0, 1, 5])]
        s5 = make_group('permutation_closure(["(1 2 3 4 5)", "(1 2)"])')
        classes = s5.conjugacy_classes()
        for _ in range(6):
            member = rng.random(s5.order) < 0.1
            member[s5.identity] = True
            items.append(masked(s5, member))
            member = np.zeros(s5.order, dtype=bool)
            member[np.concatenate([classes[i] for i in range(len(classes)) if rng.random() < 0.5])] = True
            items.append(masked(s5, member | np.eye(s5.order, dtype=bool)[s5.identity]))
        failures = []
        for item in items:
            (report,) = bohr_module.bohr_symmetry_normality_rows([item], 1.0)
            _same([report], [_oracle_symmetry(item, 1.0)])
            failures.append(report.failures)
        assert failures[:3] == [1, 2, 0]
        assert 0 in failures[3:] and 2 in failures[3:]

    def test_right_covering_runs_on_a_planted_non_normal_quarter(self, d6, monkeypatch):
        # rho = 1 on {e, r^2, s} and -1 off it: at delta = 3 every element is a member
        # and the quarter and half sets are {e, r^2, s}, no union of classes, so
        # Q x != x Q and the right greedy keeps other points than the left one
        member = np.isin(np.arange(d6.order), [0, 2, 6])
        planted = UnitaryRepresentation(d6, np.where(member, 1.0, -1.0).reshape(-1, 1, 1), "planted")
        reps = [*irrep_catalog(d6).nontrivial(), planted]
        greedy, sides = bohr_module._greedy_rows, []

        def recorded(group, rows, quarter, left):
            sides.append((left, rows.shape[0]))
            return greedy(group, rows, quarter, left)

        monkeypatch.setattr(bohr_module, "_greedy_rows", recorded)
        reports = bohr_module.ruzsa_covering_rows(reps, 3.0)
        assert sides == [(True, len(reps)), (False, 1)]  # the right side runs on the planted row alone
        _same(reports, [_oracle_covering(r, 3.0) for r in reps])
        assert reports[-1].left_cover != reports[-1].right_cover
        assert all(r.left_cover == r.right_cover for r in reports[:-1])

    def test_rows_larger_than_one_chunk(self):
        # the sign reps of D_400 have a Bohr set of 400 rotations (or mixed
        # elements) at every radius below 2, so each product has 160000 pairs
        mixed = irrep_catalog(make_group("dihedral(400)")).nontrivial()[:6]  # 3 sign reps, 3 planes
        assert min(_oracle_bohr(r, 0.15).size for r in mixed[:3]) ** 2 > bohr_module._PAIR_CHUNK
        _same(bohr_module.bohr_sum_rule_rows(mixed, 0.15, 0.15), [_oracle_sum_rule(r, 0.15, 0.15) for r in mixed])
        _same(bohr_module.bohr_doubling_rows(mixed, 0.3), [_oracle_doubling(r, 0.3) for r in mixed])
        _same(bohr_module.ruzsa_covering_rows(mixed, 0.3), [_oracle_covering(r, 0.3) for r in mixed])

    def test_catalog_rows_are_the_rep_distances(self):
        catalog = irrep_catalog(make_group("dihedral(12)"))
        for rep in catalog:
            assert type(rep) is UnitaryRepresentation
            row = rep.identity_distances()
            assert row.shape == (24,) and not row.flags.writeable
            assert rep.identity_distances() is row  # computed once, then cached
            expected = np.linalg.svd(rep.matrices - np.eye(rep.dim), compute_uv=False)[:, 0]
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-15)


def _find_regular_full_scan(rep, delta):
    """Oracle: the first regular radius among all candidates, built up front."""
    norms = np.sort(rep.identity_distances())
    inside = np.unique(norms[(norms > delta) & (norms < 2.0 * delta)])
    bounds = np.concatenate(([delta], inside, [2.0 * delta]))
    candidates = np.unique(np.concatenate(((bounds[:-1] + bounds[1:]) / 2, np.linspace(delta, 2 * delta, 1024))))
    return float(next(r for r in candidates if bohr_module._regular(norms, rep.dim, r)))


@pytest.mark.parametrize("descriptor", ["cyclic(199)", "dihedral(200)", "abelian_product([12, 15])"])
def test_find_regular_matches_full_candidate_scan(descriptor):
    for rep in irrep_catalog(make_group(descriptor)).nontrivial():
        for delta in (0.1, 0.25, 0.3, 0.5):
            assert find_regular(rep, delta) == _find_regular_full_scan(rep, delta), (rep.label, delta)
