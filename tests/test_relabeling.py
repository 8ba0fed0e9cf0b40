"""Relabeling as a cross-check of every path.

A seeded random relabeling sigma turns a cyclic, abelian-product or dihedral
group into a ``TableGroup`` copy.  The copy has no irrep catalog, so every
spectral query on it takes the dense path, while the original answers by FFT
or irrep blocks; every answer that does not depend on the labels must agree.
S4, A4 and S5 have no catalog on either side, and the dense path splits a
copy over an H of its own labels, picked greedily by index, so there the two
dense answers check each other.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleygap import (
    GroupFunction,
    GroupSubset,
    TableGroup,
    bohr_sets_from_gap,
    diameter,
    exceptional_set,
    gap_from_bohr_sets,
    gap_from_progressions,
    irrep_catalog,
    is_prime,
    lambda1,
    lambda1_star,
    laplace_spectrum_blocks,
    laplace_spectrum_dense,
    large_spectrum,
    large_spectrum_product_check,
    make_group,
    progressions_from_gap,
    progressions_from_gap_certified,
    rep_count,
    set_norm,
    symmetrized_rep_count,
    verify_basis_bound,
    verify_bohr_basis_bound,
    verify_bohr_basis_bound_certified,
    verify_diameter_bound,
    verify_exceptional_bound,
    verify_exceptional_bound_star,
    verify_fourier_norm_bound,
    verify_progression_basis_bound,
    verify_uniformity,
)
from cayleygap.bohr import progression_scan
from cayleygap.errors import CayleyGapError, HypothesisFail, NoFiniteDiameter, NotCataloged
from cayleygap.groups import convolution_power
from cayleygap.sampling import random_subset, random_symmetric_subset
from cayleygap.spectra import _translations, multiset_distance, spectral_summary

GROUPS = st.one_of(
    st.integers(2, 300).map(lambda n: f"cyclic({n})"),
    st.lists(st.integers(2, 7), min_size=2, max_size=3)
    .filter(lambda orders: int(np.prod(orders)) <= 300)
    .map(lambda orders: f"abelian_product({orders})"),
    st.integers(3, 150).map(lambda n: f"dihedral({n})"),
)
SEEDS = st.integers(0, 2**32 - 1)
RELABELING = settings(derandomize=True, max_examples=12, deadline=None)
UNCATALOGED = st.sampled_from(
    [f"permutation_closure({gens})" for gens in ('["(1 2 3 4)", "(1 2)"]', '["(1 2 3)", "(1 2)(3 4)"]', '["(1 2 3 4 5)", "(1 2)"]')]
)


def relabeled(group, seed):
    """The table copy of ``group`` in which element x is named sigma[x]."""
    sigma = np.random.default_rng(seed).permutation(group.order)
    x = np.arange(group.order)
    table = np.empty((group.order, group.order), dtype=np.int64)
    table[np.ix_(sigma, sigma)] = sigma[group.mul(x[:, None], x[None, :])]
    return TableGroup(table, name=f"relabeled {group.name}"), sigma


def instance(group, seed, size, symmetric):
    """The copy of ``group``, sigma, a seeded subset and its image under sigma."""
    copy, sigma = relabeled(group, seed)
    rng = np.random.default_rng(seed)
    size = min(size, group.order)
    s = random_symmetric_subset(group, size, rng) if symmetric else random_subset(group, size, rng)
    return copy, sigma, s, GroupSubset.from_indices(copy, sigma[s.indices])


@RELABELING
@given(st.one_of(GROUPS, UNCATALOGED), SEEDS)
def test_conjugacy_classes_of_the_copy_start_at_the_identity(descriptor, seed):
    group = make_group(descriptor)
    copy, sigma = relabeled(group, seed)
    classes = copy.conjugacy_classes()
    assert classes[0].tolist() == [copy.identity]
    assert [c[0] for c in classes[1:]] == sorted(c[0] for c in classes[1:])
    assert sorted(map(list, classes)) == sorted(sorted(sigma[c].tolist()) for c in group.conjugacy_classes())


@RELABELING
@given(GROUPS, SEEDS, st.integers(1, 12), st.booleans(), st.integers(1, 3))
def test_rep_counts_permute_exactly(descriptor, seed, size, symmetric, d):
    _, sigma, s, image = instance(make_group(descriptor), seed, size, symmetric)
    assert np.array_equal(rep_count(image, d).values[sigma], rep_count(s, d).values)
    assert np.array_equal(symmetrized_rep_count(image, d).values[sigma], symmetrized_rep_count(s, d).values)


@RELABELING
@given(GROUPS, SEEDS, st.integers(1, 2), st.integers(1, 3))
def test_convolution_powers_permute_exactly(descriptor, seed, m, k):
    """(f1 * ... * fm)^(k) of sparse signed integer functions, not only the
    indicator powers of rep counts; masses stay far below the float switch."""
    group = make_group(descriptor)
    copy, sigma = relabeled(group, seed)
    rng = np.random.default_rng(seed)
    factors = [rng.integers(-2, 3, group.order) * (rng.random(group.order) < 0.05) for _ in range(m)]
    images = [np.empty_like(values) for values in factors]
    for values, image in zip(factors, images):
        image[sigma] = values
    power = convolution_power([GroupFunction(group, values) for values in factors], k)
    copied = convolution_power([GroupFunction(copy, image) for image in images], k)
    assert copied.values.dtype.kind == "i"
    assert np.array_equal(copied.values[sigma], power.values)


@RELABELING
@given(GROUPS, SEEDS, st.integers(1, 12), st.booleans())
def test_dense_gaps_of_the_copy_match_the_catalog(descriptor, seed, size, symmetric):
    copy, _, s, image = instance(make_group(descriptor), seed, size, symmetric)
    assert spectral_summary(image).path == "dense"
    assert spectral_summary(s).path in ("fft", "blocks")
    assert abs(lambda1(image) - lambda1(s)) <= 1e-9
    assert abs(lambda1_star(image) - lambda1_star(s)) <= 1e-9
    with pytest.raises(NotCataloged):
        irrep_catalog(copy)
    with pytest.raises(NotCataloged):
        set_norm(image)


@RELABELING
@given(GROUPS, SEEDS, st.integers(1, 12), st.booleans())
def test_dense_spectrum_of_the_copy_matches_the_blocks(descriptor, seed, size, symmetric):
    # a set that is neither symmetric nor conjugation-closed may have a defective
    # operator, whose eigenvalues any two solvers share only to about sqrt(eps)
    group = make_group(descriptor)
    _, _, s, image = instance(group, seed, size, symmetric or not group.is_abelian)
    dense, blocks = laplace_spectrum_dense(image), laplace_spectrum_blocks(s)
    assert (dense.path, blocks.path) == ("dense", "blocks")
    assert multiset_distance(dense.eigenvalues, blocks.eigenvalues) <= 1e-9
    assert np.abs(dense.star_eigenvalues - blocks.star_eigenvalues).max() <= 1e-9


@RELABELING
@given(UNCATALOGED, SEEDS, st.integers(1, 12), st.booleans())
def test_dense_answers_of_the_copy_match_without_a_catalog(descriptor, seed, size, symmetric):
    group = make_group(descriptor)
    _, _, s, image = instance(group, seed, size, symmetric)
    assert spectral_summary(s).path == spectral_summary(image).path == "dense"
    assert abs(lambda1(image) - lambda1(s)) <= 1e-9
    assert abs(lambda1_star(image) - lambda1_star(s)) <= 1e-9
    if symmetric:
        dense, copied = laplace_spectrum_dense(s), laplace_spectrum_dense(image)
        assert multiset_distance(dense.eigenvalues, copied.eigenvalues) <= 1e-9
        assert np.abs(dense.star_eigenvalues - copied.star_eigenvalues).max() <= 1e-9


@pytest.mark.parametrize("gens", ['["(1 2 3 4)", "(1 2)"]', '["(1 2 3 4 5)", "(1 2)"]'])
def test_copy_splits_over_another_subgroup(gens):
    """On S4 and S5 the copy's greedy H is not the image of the original's."""
    group = make_group(f"permutation_closure({gens})")
    copy, sigma = relabeled(group, 0)
    original, copied = sigma[_translations(group)], _translations(copy)
    assert original.size == copied.size == 4
    assert set(original.tolist()) != set(copied.tolist())


def bounds_rows(s, d, g):
    """The rows of ``cayleygap bounds`` with their inputs, as ``cmd_bounds`` builds them."""
    omega = exceptional_set(s, d, g)
    omega_star = GroupSubset(s.group, symmetrized_rep_count(s, d).values.real < g)
    return {
        "01-diameter": (verify_diameter_bound, (s, d)),
        "02-basis": (verify_basis_bound, (s, d)),
        "03-exceptional": (verify_exceptional_bound, (s, d, g, omega)),
        "04-exceptional-star": (verify_exceptional_bound_star, (s, d, g, omega_star)),
        "05-fourier-norm": (verify_fourier_norm_bound, (s, d, g)),
        "06-uniformity": (verify_uniformity, (s, d, 2)),
        "07-progression-basis": (verify_progression_basis_bound, (s, d, g, omega)),
        "08-bohr-basis": (verify_bohr_basis_bound, (s, d, g, omega_star)),
        "09-bohr-basis-certified": (verify_bohr_basis_bound_certified, (s, d, g, omega_star)),
    }


# the rows that need a catalog or Z/p, and the error the copy raises there
COPY_ERRORS = {"05-fourier-norm": NotCataloged, "07-progression-basis": HypothesisFail}


def outcome(verify, inputs):
    try:
        return verify(*inputs)
    except CayleyGapError as exc:
        return type(exc)


@RELABELING
@given(GROUPS, SEEDS, st.integers(2, 12), st.booleans(), st.sampled_from([1, 2]))
def test_bounds_rows_agree_on_the_copy(descriptor, seed, size, symmetric, g):
    _, _, s, image = instance(make_group(descriptor), seed, size, symmetric)
    try:
        d = min(diameter(s), 4)
    except NoFiniteDiameter:
        d = 2
    copied_rows = bounds_rows(image, d, g)
    for name, row in bounds_rows(s, d, g).items():
        original, copied = outcome(*row), outcome(*copied_rows[name])
        if isinstance(original, type):
            assert copied is original, name
        elif name in COPY_ERRORS:
            assert copied is COPY_ERRORS[name], name
        else:
            assert (copied.verdict, copied.bound_value, copied.bound_exact) == (
                original.verdict, original.bound_value, original.bound_exact
            ), name
            assert abs(copied.measured - original.measured) <= 1e-9, name


PRIMES = st.sampled_from([p for p in range(2, 300) if is_prime(p)])


@RELABELING
@given(PRIMES, SEEDS, st.integers(1, 12), st.booleans())
def test_progression_scans_refuse_the_copy(p, seed, size, symmetric):
    """A progression of Z/p is a statement about labels: the copy of cyclic(p) is
    no CyclicGroup, and the prime-cyclic guard refuses it."""
    _, _, s, image = instance(make_group(f"cyclic({p})"), seed, size, symmetric)
    for scan in (progression_scan, gap_from_progressions, progressions_from_gap, progressions_from_gap_certified):
        scan(s, 2, 0.3)
        with pytest.raises(HypothesisFail, match="Z/N with N prime"):
            scan(image, 2, 0.3)


@RELABELING
@given(GROUPS, SEEDS, st.integers(1, 12), st.booleans())
def test_bohr_kernels_refuse_the_copy(descriptor, seed, size, symmetric):
    """The Bohr kernels read the irrep catalog, which the copy has none of."""
    group = make_group(descriptor)
    _, _, s, image = instance(group, seed, size, symmetric)
    kernels = [
        lambda b: gap_from_bohr_sets(b, 2, 0.3),
        lambda b: bohr_sets_from_gap(b, 2, 0.3),
        lambda b: large_spectrum(b, 0.5),
    ]
    if group.is_abelian:
        kernels.append(lambda b: large_spectrum_product_check(b, 0.1, 0.1))
    for kernel in kernels:
        kernel(s)
        with pytest.raises(NotCataloged):
            kernel(image)
