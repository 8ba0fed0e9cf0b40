"""Irrep catalogs and the matrix Fourier transform with its identities."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cayleygap import (
    GroupFunction,
    GroupSubset,
    convolve,
    d_min,
    fourier_all,
    fourier_transform,
    inverse_fourier,
    irrep_catalog,
    make_group,
    set_norm,
)
from cayleygap import representations, sampling
from cayleygap.bohr import large_spectrum, large_spectrum_product_check
from cayleygap.representations import UnitaryRepresentation, operator_norms
from cayleygap.spectra import laplace_spectrum_blocks, spectral_summary
from cayleygap.errors import GroupMismatch, GroupTooLarge, IncompleteCatalog, NotCataloged
from cayleygap.sampling import random_function

CATALOGED = [
    "cyclic(1)",
    "cyclic(5)",
    "cyclic(12)",
    "cyclic(30)",
    "abelian_product([2, 3, 4])",
    "dihedral(3)",
    "dihedral(4)",
    "dihedral(6)",
    "dihedral(10)",
    "cyclic(1200)",
    "dihedral(600)",
]


class TestCatalogs:
    @pytest.mark.parametrize("descriptor", CATALOGED)
    def test_dimension_sum_and_validation(self, descriptor):
        group = make_group(descriptor)
        catalog = irrep_catalog(group)
        assert sum(rep.dim**2 for rep in catalog) == group.order
        assert sum(rep.is_trivial for rep in catalog) == 1
        for rep in catalog:
            rep.validate()

    def test_trivial_group_catalog(self):
        catalog = irrep_catalog(make_group("cyclic(1)"))
        assert len(catalog) == 1
        assert catalog[0].is_trivial

    def test_cyclic_all_one_dimensional(self):
        catalog = irrep_catalog(make_group("cyclic(11)"))
        assert [rep.dim for rep in catalog] == [1] * 11

    def test_dihedral6_dimension_split(self, d6):
        catalog = irrep_catalog(d6)
        dims = sorted(rep.dim for rep in catalog)
        assert dims == [1, 1, 1, 1, 2, 2]

    def test_orthogonality_residuals(self, d6):
        for row in irrep_catalog(d6).report():
            assert row["residual_trace_orthogonality"] <= 1e-8
            assert row["residual_unitarity"] <= 1e-10

    def test_each_catalog_keeps_its_own_group(self):
        # cyclic(12) and abelian_product([12]) share one law but are distinct groups
        for descriptor, name in (("cyclic(12)", "cyclic(12)"), ("abelian_product([12])", "abelian_product(12)")):
            catalog = irrep_catalog(make_group(descriptor))
            assert catalog.group.name == name and {rep.group.name for rep in catalog} == {name}
            assert catalog.labels == tuple(f"chi{r}" for r in range(12))

    def test_generic_group_not_cataloged(self, a5):
        with pytest.raises(NotCataloged):
            irrep_catalog(a5)


def _character(group, j):
    """The character x -> e^(2 pi i j x / n) of Z/n as a one-dimensional rep, built directly."""
    n = group.order
    return np.exp(2j * np.pi * j * np.arange(n) / n).reshape(n, 1, 1)


class TestValidation:
    """``validate()`` checks rho(x) rho(s) = rho(xs) on every x and generator s: the whole law."""

    def test_one_rotated_value_is_rejected_on_a_large_order(self):
        # chi(19) rotated by e^(0.5i) stays unimodular; the pairs (18, 1) and (19, 1)
        # are off by |1 - e^(0.5i)| = 0.495, yet a seeded sample of 4096 pairs
        # (default_rng(0)) on Z/50021 draws no pair that involves 19
        group = make_group("cyclic(50021)")
        mats = _character(group, 1)
        rep = UnitaryRepresentation(group, mats.copy(), "chi1")
        rep.validate()
        mats[19] *= np.exp(0.5j)
        rotated = UnitaryRepresentation(group, mats, "chi1-rotated")
        res = rotated.validation_residuals()
        assert res["unitarity"] < 1e-12 and res["identity"] == 0 and res["trace_orthogonality"] < 1e-6
        assert res["homomorphism"] == pytest.approx(abs(1 - np.exp(0.5j)))
        with pytest.raises(ValueError, match="not a homomorphism"):
            rotated.validate()

    @pytest.mark.parametrize("descriptor", ["dihedral(6)", "abelian_product([2, 3, 4])"])
    def test_every_single_corrupted_element_is_caught(self, descriptor):
        group = make_group(descriptor)
        rep = max(irrep_catalog(group), key=lambda r: (r.dim, r.label))
        for x in range(group.order):
            mats = rep.matrices.copy()
            mats[x] = mats[x] @ np.diag(np.exp(0.5j * np.arange(1, rep.dim + 1)))  # still unitary
            res = UnitaryRepresentation(group, mats, "bent").validation_residuals()
            assert max(res["identity"], res["homomorphism"]) > 0.1, x

    def test_a_true_character_of_a_large_product_passes(self):
        # the residual reads mul on an int64 column of all 9000 elements
        group = make_group("abelian_product([100, 90])")
        high, low = np.divmod(np.arange(group.order), 90)
        mats = np.exp(2j * np.pi * ((3 * high) % 100 / 100 + (7 * low) % 90 / 90)).reshape(-1, 1, 1)
        rep = UnitaryRepresentation(group, mats, "chi3_7")
        assert rep.validation_residuals()["homomorphism"] < 1e-12
        rep.validate()

    def test_no_random_draw(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("validation drew a random sample")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        monkeypatch.setattr(sampling.SeededStream, "__init__", forbidden)
        for rep in irrep_catalog(make_group("dihedral(500)")):
            rep.validate()


class TestFourierTransform:
    def test_delta_gives_identity(self, d6):
        delta = GroupFunction.delta(d6)
        for rep in irrep_catalog(d6):
            coeff = fourier_transform(delta, rep)
            assert np.abs(coeff.matrix - np.eye(rep.dim)).max() < 1e-12

    def test_full_group_annihilates_nontrivial(self, d6):
        full = GroupSubset.full(d6).indicator()
        catalog = irrep_catalog(d6)
        for rep in catalog.nontrivial():
            assert fourier_transform(full, rep).op_norm < 1e-10

    def test_hand_case_z4(self):
        z4 = make_group("cyclic(4)")
        s = GroupSubset.from_indices(z4, [0, 2]).indicator()
        coeff = fourier_transform(s, irrep_catalog(z4)[1])
        assert abs(coeff.matrix[0, 0] - (1 + np.exp(1j * np.pi))) < 1e-12
        assert coeff.op_norm < 1e-12

    def test_group_mismatch(self, z5, z7):
        with pytest.raises(GroupMismatch):
            fourier_transform(GroupFunction.delta(z5), irrep_catalog(z7)[1])


class TestInverseFourier:
    def test_round_trip_z12(self, z12, rng):
        f = random_function(z12, rng)
        back = inverse_fourier(fourier_all(f))
        assert np.abs(back.values - f.values).max() < 1e-10

    def test_zero_coefficients(self, z12):
        coeffs = fourier_all(GroupFunction(z12, np.zeros(12)))
        assert np.abs(inverse_fourier(coeffs).values).max() < 1e-12

    def test_delta_round_trip_dihedral(self, d4):
        delta = GroupFunction.delta(d4, 5)
        back = inverse_fourier(fourier_all(delta))
        assert np.abs(back.values - delta.values.astype(complex)).max() < 1e-10

    def test_incomplete_catalog_rejected(self, z12, rng):
        coeffs = fourier_all(random_function(z12, rng))
        with pytest.raises(IncompleteCatalog):
            inverse_fourier(coeffs[:-1])
        with pytest.raises(IncompleteCatalog):
            inverse_fourier([])


class TestSetNorm:
    def test_full_group(self, z5):
        assert set_norm(GroupSubset.full(z5)) < 1e-10

    def test_identity_singleton(self, z5):
        assert abs(set_norm(GroupSubset.singleton(z5, 0)) - 1.0) < 1e-12

    def test_character_oracle_z5(self, z5):
        # max_{r != 0} |sum_{s in S} e^(2 pi i r s / 5)| computed directly
        s = GroupSubset.from_indices(z5, [1, 4])
        expected = max(
            abs(sum(np.exp(2j * np.pi * r * x / 5) for x in (1, 4))) for r in range(1, 5)
        )
        assert abs(expected - 2 * np.cos(np.pi / 5)) < 1e-12
        assert abs(set_norm(s) - expected) < 1e-10

    def test_bounded_by_size(self, d6, rng):
        for _ in range(10):
            s = GroupSubset.from_indices(d6, rng.choice(12, size=5, replace=False))
            assert -1e-12 <= set_norm(s) <= 5 + 1e-12


class TestDMin:
    def test_cyclic(self):
        assert d_min(make_group("cyclic(9)")) == 1

    def test_dihedral_has_sign_rep(self, d6):
        assert d_min(d6) == 1

    def test_not_cataloged(self, a5):
        with pytest.raises(NotCataloged):
            d_min(a5)

    def test_one_point_group_property(self):
        # the property itself refuses, not only the module function
        catalog = irrep_catalog(make_group("cyclic(1)"))
        with pytest.raises(NotCataloged, match="no nontrivial representation"):
            catalog.d_min


class TestIdentities:
    @pytest.mark.parametrize("descriptor", [d for d in CATALOGED if d != "cyclic(1)"])
    def test_parseval(self, descriptor, rng):
        group = make_group(descriptor)
        catalog = irrep_catalog(group)
        for _ in range(5):
            f = random_function(group, rng)
            lhs = float((np.abs(f.values) ** 2).sum())
            rhs = sum(
                rep.dim * fourier_transform(f, rep).hs_norm ** 2 for rep in catalog
            ) / group.order
            assert abs(lhs - rhs) / abs(lhs) < 1e-8

    @pytest.mark.parametrize("descriptor", ["cyclic(12)", "dihedral(6)", "abelian_product([2, 3, 4])"])
    def test_convolution_identity(self, descriptor, rng):
        group = make_group(descriptor)
        catalog = irrep_catalog(group)
        for _ in range(5):
            f = random_function(group, rng)
            g = random_function(group, rng)
            conv = convolve(f, g)
            for rep in catalog:
                lhs = fourier_transform(conv, rep).matrix
                rhs = fourier_transform(f, rep).matrix @ fourier_transform(g, rep).matrix
                assert np.abs(lhs - rhs).max() < 1e-8

    def test_norm_submultiplicativity(self, d6, rng):
        catalog = irrep_catalog(d6)
        for _ in range(5):
            f = random_function(d6, rng)
            g = random_function(d6, rng)
            for rep in catalog:
                a = fourier_transform(f, rep)
                b = fourier_transform(g, rep)
                product = a.matrix @ b.matrix
                hs = float(np.sqrt((np.abs(product) ** 2).sum()))
                assert hs <= a.op_norm * b.hs_norm + 1e-9
                assert a.op_norm <= a.hs_norm + 1e-12


class TestStackedCatalog:
    # every cataloged family: cyclic, abelian products, dihedral with odd and even n
    FAMILIES = [
        "cyclic(1)",
        "cyclic(12)",
        "cyclic(97)",
        "abelian_product([2, 3, 4])",
        "abelian_product([4, 6])",
        "dihedral(3)",
        "dihedral(7)",
        "dihedral(4)",
        "dihedral(10)",
    ]

    @pytest.mark.parametrize("descriptor", FAMILIES)
    def test_batched_coefficients_match_per_rep(self, descriptor, rng):
        group = make_group(descriptor)
        catalog = irrep_catalog(group)
        f = random_function(group, rng)
        batched = [matrix for stack in catalog.coefficients(f) for matrix in stack]
        assert len(batched) == len(catalog)
        for rep, matrix, coeff in zip(catalog, batched, fourier_all(f)):
            reference = fourier_transform(f, rep).matrix
            assert matrix.shape == reference.shape
            assert np.abs(matrix - reference).max() <= 1e-12
            assert coeff.rep is rep
            assert np.abs(coeff.matrix - reference).max() <= 1e-12

    @pytest.mark.parametrize("descriptor", FAMILIES)
    def test_norms_match_per_rep_op_norms(self, descriptor, rng):
        group = make_group(descriptor)
        catalog = irrep_catalog(group)
        for f in (random_function(group, rng), GroupSubset.from_indices(group, [0, group.order - 1]).indicator()):
            reference = np.array([fourier_transform(f, rep).op_norm for rep in catalog])
            assert catalog.norms(f).shape == reference.shape
            assert np.abs(catalog.norms(f) - reference).max() <= 1e-12 * max(1.0, reference.max())

    @pytest.mark.parametrize("descriptor", FAMILIES)
    def test_reps_are_read_only_views_of_their_stack(self, descriptor):
        catalog = irrep_catalog(make_group(descriptor))
        reps = iter(catalog)
        for stack in catalog.stacks:
            assert not stack.flags.writeable
            for row in stack:
                rep = next(reps)
                assert np.shares_memory(rep.matrices, stack)
                assert not rep.matrices.flags.writeable
                assert np.array_equal(rep.matrices, row)
        assert next(reps, None) is None
        assert catalog[catalog.trivial_index].is_trivial
        with pytest.raises(ValueError):
            catalog[0].matrices[0, 0, 0] = 2.0

    def test_coefficients_group_mismatch(self, z5, z7):
        with pytest.raises(GroupMismatch):
            irrep_catalog(z7).coefficients(GroupFunction.delta(z5))


class TestFFTCoefficients:
    """FFT coefficients against the per-rep tensordot on the catalog matrices."""

    @pytest.mark.parametrize(
        "descriptor",
        [
            "cyclic(1009)",
            "abelian_product([12, 15])",
            "abelian_product([2, 3, 4])",
            "dihedral(500)",
            "dihedral(7)",
            "dihedral(3)",
        ],
    )
    def test_fft_matches_per_rep_transform(self, descriptor, rng):
        group = make_group(descriptor)
        catalog = irrep_catalog(group)
        f = GroupFunction(group, rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order))
        bound = 1e-12 * max(1.0, float(np.abs(f.values).sum()))
        coefficients = [matrix for stack in catalog.coefficients(f) for matrix in stack]
        assert len(coefficients) == len(catalog)
        for rep, matrix in zip(catalog, coefficients):
            assert np.abs(matrix - fourier_transform(f, rep).matrix).max() <= bound, rep.label


def _cyclic_stacks_loop(group):
    n = group.order
    x = np.arange(n)
    stack = np.empty((n, n, 1, 1), dtype=np.complex128)
    for r in range(n):
        stack[r, :, 0, 0] = np.exp(2j * np.pi * ((r * x) % n) / n)
    return [stack]


def _abelian_product_stacks_loop(group):
    digits = group.decode(np.arange(group.order))
    stack = np.empty((group.order, group.order, 1, 1), dtype=np.complex128)
    for label_idx in range(group.order):
        freq = group.decode(label_idx)
        phases = sum(((r * x) % n) / n for r, x, n in zip(freq, digits, group.factor_orders))
        stack[label_idx, :, 0, 0] = np.exp(2j * np.pi * phases)
    return [stack]


def _dihedral_stacks_loop(group):
    n = group.n
    order = group.order
    t, i = np.divmod(np.arange(order), n)
    signs = [np.ones(order), (-1.0) ** t]
    if n % 2 == 0:
        signs += [(-1.0) ** i, (-1.0) ** (t + i)]
    lines = np.array(signs, dtype=np.complex128).reshape(len(signs), order, 1, 1)
    harmonics = range(1, (n - 1) // 2 + 1 if n % 2 else n // 2)
    planes = np.zeros((len(harmonics), order, 2, 2), dtype=np.complex128)
    for mats, h in zip(planes, harmonics):
        rot = np.exp(2j * np.pi * ((h * i) % n) / n)
        mats[t == 0, 0, 0] = rot[t == 0]
        mats[t == 0, 1, 1] = rot[t == 0].conj()
        mats[t == 1, 0, 1] = rot[t == 1].conj()
        mats[t == 1, 1, 0] = rot[t == 1]
    return [lines, planes]


class TestLazyStacks:
    """Stacks are the transform of the identity, built on first read, and match
    row loops whose phases are reduced exactly as integers."""

    @pytest.mark.parametrize(
        "descriptor, oracle",
        [
            ("cyclic(1)", _cyclic_stacks_loop),
            ("cyclic(12)", _cyclic_stacks_loop),
            ("cyclic(1009)", _cyclic_stacks_loop),
            ("cyclic(1200)", _cyclic_stacks_loop),
            ("abelian_product([2, 3, 4])", _abelian_product_stacks_loop),
            ("abelian_product([12, 15])", _abelian_product_stacks_loop),
            ("dihedral(3)", _dihedral_stacks_loop),
            ("dihedral(4)", _dihedral_stacks_loop),
            ("dihedral(7)", _dihedral_stacks_loop),
            ("dihedral(200)", _dihedral_stacks_loop),
            ("dihedral(600)", _dihedral_stacks_loop),
        ],
    )
    def test_stacks_match_exact_phase_row_loops(self, descriptor, oracle):
        group = make_group(descriptor)
        stacks = irrep_catalog(group).stacks
        expected = oracle(group)
        assert [stack.shape for stack in stacks] == [stack.shape for stack in expected]
        for stack, reference in zip(stacks, expected):
            assert np.abs(stack - reference).max() <= 1e-14

    @pytest.mark.parametrize("descriptor, count", [("dihedral(500)", 253), ("cyclic(1200)", 1200)])
    def test_spectral_paths_leave_stacks_unbuilt(self, descriptor, count):
        irrep_catalog.cache_clear()
        spectral_summary.cache_clear()
        group = make_group(descriptor)
        s = GroupSubset.from_indices(group, [1, 2, 7, group.order - 1])
        laplace_spectrum_blocks(s)
        spectral_summary(s)
        catalog = irrep_catalog(group)
        catalog.norms(s.indicator())
        assert len(large_spectrum(s, 0.5).indices) >= 1
        if group.is_abelian:
            large_spectrum_product_check(s, 0.1, 0.1)
        assert len(catalog) == count
        assert catalog.d_min == 1
        assert "stacks" not in vars(catalog) and "reps" not in vars(catalog)
        assert catalog[1].matrices.shape[0] == group.order
        assert "stacks" in vars(catalog) and "reps" in vars(catalog)

    @staticmethod
    def _peak_while(read):
        tracemalloc.start()
        try:
            read()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_stacks_hold_the_identity_and_one_transform(self):
        # the identity, the two FFT outputs and the planes: harmonics sliced as views add no copy
        catalog = representations._DihedralCatalog(make_group("dihedral(200)"))
        assert self._peak_while(lambda: catalog.stacks) <= 10 * 2**20

    def test_stacks_over_the_dense_budget_raise_before_allocating(self):
        catalog = representations._AbelianCatalog(make_group("cyclic(100003)"))

        def read():
            with pytest.raises(GroupTooLarge, match="dense budget"):
                catalog.stacks

        assert self._peak_while(read) < 2**20
        assert "stacks" not in vars(catalog)

    @pytest.mark.parametrize(
        "catalog_type, descriptor",
        [(representations._AbelianCatalog, "cyclic(1200)"), (representations._DihedralCatalog, "dihedral(500)")],
    )
    def test_identity_distances_one_rep_at_a_time(self, catalog_type, descriptor):
        """After the stacks and reps, all rows allocate their result and one rep's
        temporaries, never a stack-sized rho(g) - I, and equal the whole-stack norms."""
        catalog = catalog_type(make_group(descriptor))
        stacks, reps = catalog.stacks, catalog.reps
        size = len(catalog) * catalog.group.order * 8
        assert self._peak_while(lambda: [rep.identity_distances() for rep in reps]) < size + 2**20
        whole = np.concatenate([
            operator_norms((stack - np.eye(stack.shape[2])).reshape(-1, *stack.shape[2:])).reshape(stack.shape[:2])
            for stack in stacks
        ])
        assert np.array_equal(np.stack([rep.identity_distances() for rep in reps]), whole)

    def test_wrong_builder_dimensions_raise_on_build(self):
        group = make_group("dihedral(6)")

        class Truncated(representations._DihedralCatalog):
            def _transform(self, values):
                lines, planes = super()._transform(values)
                return [lines, planes[:-1]]

        class WrongOrder(representations._AbelianCatalog):
            def _transform(self, values):
                return [stack[:, 1:] for stack in super()._transform(values)]

        catalog = Truncated(group)
        assert catalog.coefficients(GroupFunction.delta(group))[1].shape == (1, 2, 2)
        with pytest.raises(ValueError, match="dimension check"):
            catalog.stacks
        with pytest.raises(ValueError, match="dimension check"):
            catalog.reps
        with pytest.raises(ValueError, match="dimension check"):
            WrongOrder(make_group("cyclic(5)")).stacks


class TestOperatorNorms:
    """The closed form of 2 x 2 stacks against LAPACK's singular values."""

    @staticmethod
    def _relative_error(stack):
        exact = np.linalg.svd(stack, compute_uv=False)[:, 0]
        got = operator_norms(stack)
        nonzero = exact > 0
        assert np.all(got[~nonzero] == 0)
        return float(np.max(np.abs(got - exact)[nonzero] / exact[nonzero]))

    def test_dihedral_distance_stack(self):
        planes = irrep_catalog(make_group("dihedral(200)")).stacks[1]
        assert self._relative_error((planes - np.eye(2)).reshape(-1, 2, 2)) <= 2e-15

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_random_complex_matrices(self, scale):
        rng = np.random.default_rng(7)
        stack = scale * (rng.standard_normal((100_000, 2, 2)) + 1j * rng.standard_normal((100_000, 2, 2)))
        assert self._relative_error(stack) <= 2e-15

    def test_s5_standard_rep_distances_by_cycle_type(self):
        """d = 4: S5 on the sum-zero subspace of C^5.  rho(g) - I is normal, so its
        norm is the largest |z - 1| over the roots of unity of g's cycles."""
        group = make_group('permutation_closure(["(1 2 3 4 5)", "(1 2)"])')
        perms = sorted(itertools.permutations(range(5)))  # element a is the a-th image list
        mats = np.zeros((group.order, 5, 5))
        for a, perm in enumerate(perms):
            mats[a, perm, range(5)] = 1.0  # e_j -> e_perm[j], so a * b = p_a o p_b is the product
        basis = np.linalg.qr(np.eye(5, 4) - np.eye(5, 4, k=-1))[0]  # spans the differences e_j - e_j+1
        rep = UnitaryRepresentation(group, basis.T @ mats @ basis, "standard")
        rep.validate()
        expected = []
        for perm in perms:
            lengths = []
            for start in range(5):
                j, length = perm[start], 1
                while j != start:
                    j, length = perm[j], length + 1
                lengths.append(length)  # the length of start's cycle, once per point of it
            if any(length % 2 == 0 for length in lengths):
                expected.append(2.0)
            else:
                expected.append({1: 0.0, 3: math.sqrt(3.0), 5: 2 * math.sin(2 * math.pi / 5)}[max(lengths)])
        assert np.abs(rep.identity_distances() - expected).max() <= 1e-12

    @pytest.mark.parametrize("d", [3, 5])
    def test_random_complex_matrices_of_larger_dimension(self, d):
        rng = np.random.default_rng(d)
        stack = rng.standard_normal((200, d, d)) + 1j * rng.standard_normal((200, d, d))
        expected = [np.linalg.norm(m, 2) for m in stack]
        assert np.allclose(operator_norms(stack), expected, rtol=1e-13, atol=0.0)
