"""Laplace spectra: dense vs block paths, the singular gap, walk energies."""

import numpy as np
import pytest

from cayleygap import (
    GroupFunction,
    GroupSubset,
    balanced_function,
    cluster_eigenvalues,
    fourier_transform,
    irrep_catalog,
    lambda1,
    lambda1_of_function,
    lambda1_star,
    laplace_spectrum_blocks,
    laplace_spectrum_dense,
    make_group,
    markov_matrix,
    multiset_distance,
    set_norm,
    walk_energy,
)
from cayleygap.cli import main as cli_main
from cayleygap.errors import EmptySet, KZero, NotCataloged
from cayleygap.sampling import random_nonempty_subset, random_symmetric_subset
from cayleygap.spectra import (
    _laplacian,
    is_normal_operator,
    markov_of_function,
    spectral_summary,
    variational_lambda1,
)


class TestMarkovMatrix:
    def test_identity_singleton(self, z5):
        m = markov_matrix(GroupSubset.singleton(z5, 0))
        assert np.array_equal(m, np.eye(5))

    def test_full_group(self, z5):
        assert np.array_equal(markov_matrix(GroupSubset.full(z5)), np.ones((5, 5)))

    def test_shift(self):
        z3 = make_group("cyclic(3)")
        m = markov_matrix(GroupSubset.from_indices(z3, [1]))
        expected = np.zeros((3, 3))
        for x in range(3):
            expected[x, (x + 1) % 3] = 1
        assert np.array_equal(m, expected)

    def test_row_sums(self, d6, rng):
        s = random_nonempty_subset(d6, rng)
        m = markov_matrix(s)
        assert np.array_equal(m.sum(axis=1), np.full(12, s.size))
        assert np.array_equal(m.sum(axis=0), np.full(12, s.size))

    def test_empty_rejected(self, z5):
        with pytest.raises(EmptySet):
            markov_matrix(GroupSubset.empty(z5))


class TestDenseSpectrum:
    def test_full_group(self, d6):
        report = laplace_spectrum_dense(GroupSubset.full(d6))
        values = np.sort(report.eigenvalues.real)
        assert abs(values[0]) < 1e-12
        assert np.abs(values[1:] - 1.0).max() < 1e-12

    def test_identity_singleton(self, d6):
        report = laplace_spectrum_dense(GroupSubset.singleton(d6, 0))
        assert np.abs(report.eigenvalues).max() < 1e-12
        assert np.abs(report.star_eigenvalues).max() < 1e-12

    def test_z5_character_oracle(self, z5):
        report = laplace_spectrum_dense(GroupSubset.from_indices(z5, [1, 4]))
        expected = sorted(
            1 - np.cos(2 * np.pi * r / 5) for r in range(5)
        )
        assert np.abs(np.sort(report.eigenvalues.real) - expected).max() < 1e-9

    def test_trivial_eigenvalues_vanish(self, d6, rng):
        for _ in range(5):
            s = random_nonempty_subset(d6, rng)
            report = laplace_spectrum_dense(s)
            assert abs(report.eigenvalues[0]) < 1e-9
            assert abs(report.star_eigenvalues[0]) < 1e-9
            assert report.star_eigenvalues.min() > -1e-9
            assert report.star_eigenvalues.max() < 1 + 1e-9

    def test_nonsymmetric_variational_gap(self, z5):
        # Hermitian part of the one-step shift averages S and S^-1
        report = laplace_spectrum_dense(GroupSubset.from_indices(z5, [1]))
        assert abs(report.lambda1 - (1 - np.cos(2 * np.pi / 5))) < 1e-9


class TestBlockSpectrum:
    @pytest.mark.parametrize(
        "descriptor",
        ["cyclic(12)", "cyclic(30)", "dihedral(6)", "dihedral(10)", "abelian_product([2, 3, 4])"],
    )
    def test_matches_dense(self, descriptor, rng):
        group = make_group(descriptor)
        for _ in range(5):
            if group.is_abelian:
                s = random_nonempty_subset(group, rng)
            else:
                s = random_symmetric_subset(group, int(rng.integers(1, group.order // 3)), rng)
            dense = laplace_spectrum_dense(s)
            blocks = laplace_spectrum_blocks(s)
            assert multiset_distance(dense.eigenvalues, blocks.eigenvalues) < 1e-9
            assert np.abs(dense.star_eigenvalues - blocks.star_eigenvalues).max() < 1e-9

    def test_matches_dense_nonsymmetric_nonabelian(self, d6, rng):
        # the dense side solves a non-normal matrix whose eigenvalues are
        # less well conditioned than the tiny per-block problems, so the
        # multiset comparison gets a looser cap; the Hermitian star path
        # stays at full accuracy
        for _ in range(10):
            s = random_nonempty_subset(d6, rng)
            dense = laplace_spectrum_dense(s)
            blocks = laplace_spectrum_blocks(s)
            assert multiset_distance(dense.eigenvalues, blocks.eigenvalues) < 1e-6
            assert np.abs(dense.star_eigenvalues - blocks.star_eigenvalues).max() < 1e-9

    def test_identity_all_blocks_zero(self, d6):
        report = laplace_spectrum_blocks(GroupSubset.singleton(d6, 0))
        assert np.abs(report.eigenvalues).max() < 1e-12

    def test_requires_catalog(self, a5):
        with pytest.raises(NotCataloged):
            laplace_spectrum_blocks(GroupSubset.from_indices(a5, [1, 2]))


class TestLambda1Star:
    def test_identity_singleton(self, d6):
        assert abs(lambda1_star(GroupSubset.singleton(d6, 0))) < 1e-12

    def test_full_group(self, d6):
        assert abs(lambda1_star(GroupSubset.full(d6)) - 1.0) < 1e-12

    def test_character_oracle_z7(self, z7):
        s = GroupSubset.from_indices(z7, [1, 2, 4])
        best = max(
            abs(sum(np.exp(2j * np.pi * r * x / 7) for x in (1, 2, 4))) for r in range(1, 7)
        )
        assert abs(lambda1_star(s) - (1 - best**2 / 9)) < 1e-9

    @pytest.mark.parametrize("descriptor", ["cyclic(13)", "dihedral(5)", "abelian_product([2, 3, 4])"])
    def test_norm_identity(self, descriptor, rng):
        group = make_group(descriptor)
        for _ in range(5):
            s = random_nonempty_subset(group, rng)
            # dense operator on one side, the spectral engine's norm on the other
            dense_star = laplace_spectrum_dense(s).lambda1_star
            assert abs(dense_star - (1 - set_norm(s) ** 2 / s.size**2)) < 1e-9

    def test_lambda1_lower_bound_symmetric(self, d6, rng):
        for _ in range(5):
            s = random_symmetric_subset(d6, int(rng.integers(1, 5)), rng)
            assert lambda1(s) >= 1 - set_norm(s) / s.size - 1e-9

    def test_lambda1_inversion_invariance(self, d6, rng):
        # the Hermitian parts of the operators of S and S^-1 coincide
        from cayleygap import inverse_set
        from cayleygap.sampling import random_nonempty_subset as rand

        for _ in range(5):
            s = rand(d6, rng)
            assert abs(lambda1(s) - lambda1(inverse_set(s))) < 1e-9
            assert abs(lambda1_star(s) - lambda1_star(inverse_set(s))) < 1e-9


class TestSpectralEngine:
    # (descriptor, instances, expected path); the dense side is the full
    # operator eigendecomposition, the norm side the explicit catalog loop
    ENGINE_GRID = [
        ("cyclic(31)", 20, "fft"),
        ("cyclic(200)", 15, "fft"),
        ("abelian_product([4, 6])", 20, "fft"),
        ("abelian_product([2, 3, 4])", 20, "fft"),
        ("dihedral(7)", 20, "blocks"),
        ("dihedral(30)", 15, "blocks"),
        ("dihedral(250)", 4, "blocks"),
    ]

    def test_agrees_with_dense_and_catalog(self, rng):
        checked = 0
        nonsymmetric = 0
        for descriptor, count, path in self.ENGINE_GRID:
            group = make_group(descriptor)
            catalog = irrep_catalog(group)
            for i in range(count):
                if i % 2:
                    s = random_symmetric_subset(group, int(rng.integers(1, max(2, group.order // 4))), rng)
                else:
                    s = random_nonempty_subset(group, rng, max_size=max(2, group.order // 2))
                nonsymmetric += not s.is_symmetric
                dense = laplace_spectrum_dense(s)
                assert spectral_summary(s).path == path
                assert abs(lambda1(s) - dense.lambda1) <= 1e-9
                assert abs(lambda1_star(s) - dense.lambda1_star) <= 1e-9
                assert abs(set_norm(s) - set_norm(s, catalog)) <= 1e-9
                checked += 1
        assert checked >= 100
        assert nonsymmetric >= 40

    def test_dense_path_without_catalog(self, a5, rng):
        s = random_symmetric_subset(a5, 4, rng)
        summary = spectral_summary(s)
        dense = laplace_spectrum_dense(s)
        assert summary.path == "dense"
        assert summary.norm is None
        assert abs(summary.lambda1 - dense.lambda1) <= 1e-9
        assert abs(summary.lambda1_star - dense.lambda1_star) <= 1e-9
        with pytest.raises(NotCataloged):
            set_norm(s)

    def test_equal_subsets_computed_once(self):
        group = make_group("cyclic(97)")
        before = spectral_summary.cache_info()
        lambda1(GroupSubset.from_indices(group, [3, 10, 41]))
        lambda1_star(GroupSubset.from_indices(group, [41, 3, 10]))
        set_norm(GroupSubset.from_indices(group, [10, 41, 3]))
        after = spectral_summary.cache_info()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 2

    def test_empty_set_rejected(self, z5):
        with pytest.raises(EmptySet):
            spectral_summary(GroupSubset.empty(z5))

    def test_trivial_group(self):
        summary = spectral_summary(GroupSubset.full(make_group("cyclic(1)")))
        assert (summary.lambda1, summary.lambda1_star, summary.norm) == (0.0, 0.0, 0.0)

    def test_bounds_on_cyclic_never_builds_catalog(self, tmp_path):
        # an order no other test uses, so a cached catalog cannot mask a build
        cfg = tmp_path / "bounds.cfg"
        cfg.write_text("group = cyclic(433)\nset = random(25)\nseed = 4\nd = 2\n", encoding="utf-8")
        before = irrep_catalog.cache_info().misses
        assert cli_main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "b.csv")]) == 0
        assert irrep_catalog.cache_info().misses == before


S4 = '["(1 2 3 4)", "(1 2)"]'
FROBENIUS_21 = '["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"]'


def _frobenius_set():
    """A class of 7-cycles (size 3) with a class of order-3 elements (size 7)
    in the Frobenius group of order 21: normal, not symmetric, generating."""
    group = make_group(f"permutation_closure({FROBENIUS_21})")
    classes = group.conjugacy_classes()
    sevens = [c for c in classes if c.size == 3]
    threes = [c for c in classes if c.size == 7]
    return GroupSubset.from_indices(group, np.concatenate([sevens[0], threes[0]]))


def _three_solves(s):
    """lambda1 and the ascending star spectrum with one solve each."""
    m = markov_matrix(s)
    n, size = s.group.order, s.size
    star = np.sort(np.linalg.eigvalsh(np.eye(n) - (m @ m.T) / (size * size)))
    return variational_lambda1(np.eye(n) - m / size), star


class TestNormalOperator:
    GROUPS = ["cyclic(31)", "dihedral(7)", f"permutation_closure({S4})", f"permutation_closure({FROBENIUS_21})"]

    @staticmethod
    def _subsets(group, count, rng):
        """Random, symmetric and class-union subsets in turn."""
        classes = group.conjugacy_classes()
        for i in range(count):
            if i % 3 == 0:
                yield random_nonempty_subset(group, rng, max_size=max(2, group.order // 3))
            elif i % 3 == 1:
                yield random_symmetric_subset(group, int(rng.integers(1, max(2, group.order // 4))), rng)
            else:
                picked = rng.choice(len(classes), size=int(rng.integers(1, len(classes) + 1)), replace=False)
                yield GroupSubset.from_indices(group, np.concatenate([classes[j] for j in picked]))

    def test_certificate_matches_dense_oracle(self, rng):
        outcomes = {True: 0, False: 0}
        nonsymmetric_normal = 0
        for descriptor in self.GROUPS:
            group = make_group(descriptor)
            for s in self._subsets(group, 81, rng):
                m = markov_matrix(s)
                oracle = np.array_equal(m @ m.T, m.T @ m)
                assert is_normal_operator(s) == oracle, (descriptor, s.indices)
                outcomes[oracle] += 1
                nonsymmetric_normal += oracle and not s.is_symmetric and not group.is_abelian
        assert sum(outcomes.values()) >= 300
        assert min(outcomes.values()) >= 30
        assert nonsymmetric_normal >= 10

    def test_frobenius_set(self):
        s = _frobenius_set()
        assert s.group.order == 21 and s.size == 10
        assert is_normal_operator(s) and not s.is_symmetric
        assert laplace_spectrum_dense(s).lambda1 > 1e-3  # connected: S generates

    def _normal_sets(self, rng):
        cases = [_frobenius_set()]
        for descriptor in ("cyclic(31)", "abelian_product([4, 6])"):
            group = make_group(descriptor)
            cases += [random_nonempty_subset(group, rng, max_size=12) for _ in range(6)]
        for descriptor in ("cyclic(31)", "dihedral(7)", f"permutation_closure({S4})"):
            group = make_group(descriptor)
            cases += [random_symmetric_subset(group, int(rng.integers(1, 6)), rng) for _ in range(6)]
        return cases

    def test_one_solve_matches_three_solves(self, rng):
        nonsymmetric = 0
        for s in self._normal_sets(rng):
            assert is_normal_operator(s)
            nonsymmetric += not s.is_symmetric
            report = laplace_spectrum_dense(s)
            lam1, star = _three_solves(s)
            assert abs(report.lambda1 - lam1) <= 1e-12
            assert abs(report.lambda1_star - star[1]) <= 1e-12
            assert report.star_eigenvalues.dtype == np.float64
            assert np.abs(report.star_eigenvalues - star).max() <= 1e-12
        assert nonsymmetric >= 13

    @staticmethod
    def _non_normal_sets(rng, count):
        """``count`` random subsets per nonabelian group whose operator is not normal."""
        cases = []
        for descriptor in ("dihedral(7)", f"permutation_closure({S4})", f"permutation_closure({FROBENIUS_21})"):
            group = make_group(descriptor)
            draws = (random_nonempty_subset(group, rng, max_size=group.order // 2) for _ in range(200))
            found = [s for s in draws if not is_normal_operator(s)][:count]
            assert len(found) == count, descriptor
            cases += found
        return cases

    def test_non_normal_sets_match_three_solves_exactly(self, rng):
        cases = self._non_normal_sets(rng, 5)
        assert len(cases) == 15
        for s in cases:
            report = laplace_spectrum_dense(s)
            lam1, star = _three_solves(s)
            assert report.lambda1 == lam1
            assert np.array_equal(report.star_eigenvalues, star)
            assert report.lambda1_star == star[1]

    @staticmethod
    def _solves(monkeypatch, call, s):
        counts = {"eigvalsh": 0, "eigvals": 0}
        for name in counts:

            def counted(*args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] += 1
                return _solve(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        call(s)
        monkeypatch.undo()
        return counts["eigvalsh"], counts["eigvals"]

    def test_solve_counts(self, monkeypatch, rng):
        symmetric = random_symmetric_subset(make_group("dihedral(7)"), 3, rng)
        abelian = GroupSubset.from_indices(make_group("cyclic(31)"), [1, 5, 6])
        non_normal, s4_non_normal, _ = self._non_normal_sets(rng, 1)
        s4_symmetric = random_symmetric_subset(s4_non_normal.group, 3, rng)
        summary = spectral_summary.__wrapped__  # uncached, so every call solves
        assert not abelian.is_symmetric and not non_normal.is_symmetric
        assert self._solves(monkeypatch, laplace_spectrum_dense, symmetric) == (1, 0)
        assert self._solves(monkeypatch, laplace_spectrum_dense, abelian) == (0, 1)
        assert self._solves(monkeypatch, laplace_spectrum_dense, non_normal) == (2, 1)
        assert self._solves(monkeypatch, summary, s4_symmetric) == (1, 0)
        assert self._solves(monkeypatch, summary, s4_non_normal) == (2, 0)


class TestBatchedBlocks:
    @staticmethod
    def _per_rep(s):
        """The block spectrum with one set of solves per irrep."""
        size = s.size
        f = s.indicator()
        eig, star, gaps = [], [], []
        for rep in irrep_catalog(s.group):
            block = fourier_transform(f, rep).matrix
            eig += [1.0 - np.linalg.eigvals(block / size)] * rep.dim
            star += [1.0 - np.linalg.eigvalsh(block @ block.conj().T / (size * size))] * rep.dim
            if not rep.is_trivial:
                herm = np.eye(rep.dim) - (block + block.conj().T) / (2.0 * size)
                gaps.append(np.linalg.eigvalsh(herm)[0])
        return np.concatenate(eig), np.sort(np.concatenate(star)), min(gaps, default=0.0)

    @pytest.mark.parametrize(
        "descriptor",
        ["cyclic(1)", "cyclic(31)", "abelian_product([4, 6])", "dihedral(7)", "dihedral(10)"],
    )
    def test_matches_per_rep_loop(self, descriptor, rng):
        group = make_group(descriptor)
        for i in range(6):
            if i % 2:
                s = random_symmetric_subset(group, int(rng.integers(1, 4)), rng)
            else:
                s = random_nonempty_subset(group, rng, max_size=max(2, group.order // 2))
            report = laplace_spectrum_blocks(s)
            eig, star, gap = self._per_rep(s)
            assert multiset_distance(report.eigenvalues, eig) <= 1e-12
            assert np.abs(report.star_eigenvalues - star).max() <= 1e-12
            assert abs(report.lambda1 - gap) <= 1e-12
            assert abs(report.lambda1_star - (star[1] if star.size > 1 else 0.0)) <= 1e-12


class TestInPlaceLaplacian:
    """The in-place I - M/scale is byte for byte np.eye(n) - M/scale, signed zeros included."""

    @pytest.mark.parametrize("descriptor", ["cyclic(120)", "dihedral(250)", "cyclic(1000)", "cyclic(1200)"])
    def test_bytes_equal_eye_minus_scaled(self, descriptor, rng):
        group = make_group(descriptor)
        n = group.order
        s = random_nonempty_subset(group, rng, max_size=12)
        weights = GroupFunction(group, rng.normal(size=n) + 1j * rng.normal(size=n))
        for m, scale in (
            (markov_matrix(s), s.size),
            (markov_matrix(s) @ markov_matrix(s).T, s.size * s.size),
            (markov_of_function(weights), weights.l1_norm),
        ):
            before = m.tobytes()
            assert _laplacian(m, scale).tobytes() == (np.eye(n) - m / scale).tobytes()
            assert m.tobytes() == before


class TestVariationalLambda1:
    @staticmethod
    def _projected(delta):
        """The gap through an explicit orthonormal basis of the mean-zero space."""
        n = delta.shape[0]
        basis = np.linalg.svd(np.ones((1, n)))[2][1:].T
        herm = (delta + delta.conj().T) / 2.0
        return float(np.linalg.eigvalsh(basis.T @ herm @ basis)[0])

    def test_signed_weights_match_projection(self, z12, d6, rng):
        trivial_not_smallest = 0
        for group in (z12, d6):
            for _ in range(10):
                f = GroupFunction(group, rng.normal(size=group.order))
                delta = np.eye(group.order) - markov_of_function(f) / f.l1_norm
                values = np.linalg.eigvalsh((delta + delta.T) / 2.0)
                trivial_not_smallest += values[0] < 1 - f.values.sum() / f.l1_norm - 1e-9
                assert abs(lambda1_of_function(f) - self._projected(delta)) < 1e-12
        assert trivial_not_smallest > 0

    def test_symmetric_sets_match_projection(self, d6, rng):
        for _ in range(10):
            s = random_symmetric_subset(d6, int(rng.integers(1, 5)), rng)
            report = laplace_spectrum_dense(s)
            delta = np.eye(12) - markov_matrix(s) / s.size
            assert abs(report.lambda1 - self._projected(delta)) < 1e-12


class TestMultiplicity:
    def test_clusters_at_least_dmin(self, d6, rng):
        # every nontrivial eigenvalue of a dihedral Cayley graph repeats at
        # least d_min = 1 times; the 2-dim blocks force pairs for plane reps
        s = random_symmetric_subset(d6, 3, rng)
        report = laplace_spectrum_dense(s)
        values = np.sort(report.eigenvalues.real)
        labels = cluster_eigenvalues(values)
        sizes = np.bincount(labels)
        assert sizes.min() >= 1

    def test_cluster_function(self):
        labels = cluster_eigenvalues([0.0, 1e-8, 0.5, 0.5 + 1e-7, 1.0])
        assert labels.tolist() == [0, 0, 1, 1, 2]


class TestWalkEnergy:
    def test_full_group_vanishes(self, d6):
        report = walk_energy(GroupSubset.full(d6), 2)
        assert abs(report.convolution_side) < 1e-9
        assert abs(report.spectral_side) < 1e-9

    def test_t1_strict_bound(self, z12, rng):
        for _ in range(10):
            b = random_nonempty_subset(z12, rng)
            report = walk_energy(b, 1)
            assert report.convolution_side < report.t1_bound

    def test_hand_case_z6(self):
        z6 = make_group("cyclic(6)")
        b = GroupSubset.from_indices(z6, [0, 1, 3])
        report = walk_energy(b, 2)
        assert report.relative_gap < 1e-8

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_identity_on_normal_instances(self, k, z12, d6, rng):
        for group in (z12, d6):
            for _ in range(3):
                if group is z12:
                    b = random_nonempty_subset(group, rng)
                else:
                    b = random_symmetric_subset(group, int(rng.integers(1, 5)), rng)
                report = walk_energy(b, k)
                assert report.relative_gap < 1e-6

    def test_balanced_function_mean_zero(self, d6, rng):
        b = random_nonempty_subset(d6, rng)
        assert abs(balanced_function(b).values.sum()) < 1e-12

    def test_k_zero_rejected(self, z5):
        with pytest.raises(KZero):
            walk_energy(GroupSubset.full(z5), 0)


class TestReportRows:
    def test_row_schema(self, d6, rng):
        s = random_symmetric_subset(d6, 3, rng)
        rows = laplace_spectrum_dense(s).rows()
        assert len(rows) == 12
        assert {"index", "eigenvalue_re", "eigenvalue_im", "star_eigenvalue", "cluster", "path"} <= set(rows[0])
