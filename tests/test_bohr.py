"""Bohr sets, convolution-mass shares, scans, size bounds, and regularity."""

import math

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
from cayleygap.bohr import BohrSet, bohr_symmetry_normality_check, is_prime, max_progression_mass
from cayleygap.bounds import exceptional_set, symmetrized_rep_count
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
from cayleygap.sampling import random_subset, random_symmetric_subset
from cayleygap.spectra import spectral_summary


class TestBohrSet:
    def test_radius_two_gives_whole_group(self, z12):
        chi1 = irrep_catalog(z12)[1]
        assert bohr_set(chi1, 2.0).size == 12

    def test_hand_case_z12(self, z12):
        # |e^(2 pi i x / 12) - 1| = 2 |sin(pi x / 12)| <= 1 iff x in {0,1,2,10,11}
        chi1 = irrep_catalog(z12)[1]
        got = sorted(int(i) for i in bohr_set(chi1, 1.0).members.indices)
        assert got == [0, 1, 2, 10, 11]

    def test_identity_always_member(self, d6):
        for rep in irrep_catalog(d6):
            assert 0 in bohr_set(rep, 0.05).members

    def test_symmetry_and_normality(self, d6):
        for rep in irrep_catalog(d6).nontrivial():
            for delta in (0.3, 0.8, 1.5):
                members = bohr_set(rep, delta).members
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
        monkeypatch.setattr(
            bohr_module, "bohr_set", lambda reps, delta: BohrSet(d3, tuple(reps), delta, fake)
        )
        report = bohr_symmetry_normality_check(irrep_catalog(d3).nontrivial(), 0.5)
        assert report.failures == failures
        assert report.checked == d3.order + 2

    def test_empty_rep_list(self):
        with pytest.raises(EmptyRepList):
            bohr_set([], 0.5)

    def test_nonpositive_radius(self, z12):
        with pytest.raises(DeltaOutOfRange):
            bohr_set(irrep_catalog(z12)[1], 0.0)


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

    def test_parameter_validation(self, z7):
        a = GroupSubset.from_indices(z7, [0, 1])
        with pytest.raises(HypothesisFail):
            find_covering_interval(a, 0.2, 0.7)  # delta must stay below 1/2
        group = make_group("cyclic(12)")  # composite modulus rejected
        with pytest.raises(HypothesisFail):
            find_covering_interval(GroupSubset.from_indices(group, [0, 1]), 0.2, 0.25)


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
            normal_subgroup_min_index(make_group("cyclic(201)"), 5)


class TestLargeSpectrum:
    def test_zero_threshold_everything(self, z12, rng):
        a = random_subset(z12, 4, rng)
        assert len(large_spectrum(a, 0.0)) == 12

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


class TestRegularity:
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

    def test_bohr_basis_certified_a5(self, a5, rng):
        b = random_symmetric_subset(a5, 6, rng)
        counts = symmetrized_rep_count(b, 2).values.real
        omega = GroupSubset(a5, (counts < 1).astype(np.int8))
        if omega.size >= 30:
            pytest.skip("degenerate sample")
        report = verify_bohr_basis_bound_certified(b, 2, 1, omega)
        assert report.holds

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

def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
