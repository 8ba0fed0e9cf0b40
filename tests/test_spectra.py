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
from cayleygap import representations, spectra
from cayleygap.cli import main as cli_main
from cayleygap.errors import EmptySet, KZero, NotCataloged
from cayleygap.representations import operator_norms
from cayleygap.sampling import random_nonempty_subset, random_symmetric_subset
from cayleygap.spectra import (
    _conjugation_closed,
    _coupled_spectrum,
    _inversion_blocks,
    _laplacian,
    _split_spectrum,
    markov_of_function,
    spectral_summary,
    variational_lambda1,
)

S4 = '["(1 2 3 4)", "(1 2)"]'
S5 = '["(1 2 3 4 5)", "(1 2)"]'
FROBENIUS_21 = '["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"]'


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

    @staticmethod
    def _gathered(f):
        """The former builder: one gather of F at the n x n Cayley index x^-1 y."""
        group = f.group
        idx = group._indices()
        values = f.values if f.values.dtype.kind == "c" else f.values.astype(np.float64)
        return values[group.mul(group.inv(idx)[:, None], idx[None, :])]

    @pytest.mark.parametrize(
        "descriptor",
        [
            "cyclic(13)",
            "dihedral(7)",
            "abelian_product([2, 3, 4])",
            f"permutation_closure({S5})",
            "multiplication_table([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]])",
        ],
    )
    def test_scatter_equals_gather(self, descriptor, rng):
        group = make_group(descriptor)
        n = group.order
        signed = rng.normal(size=n)
        signed[::3] = 0.0
        signed[1::4] = -0.0
        complex_weights = rng.normal(size=n) + 1j * rng.normal(size=n)
        complex_weights[::3] = 0.0
        complex_weights[1::5] = complex(-0.0, 0.0)
        complex_weights[2::5] = complex(0.0, -0.0)
        weights = [rng.integers(0, 2, size=n), np.zeros(n, dtype=np.int64), signed, complex_weights]
        for values in weights:
            f = GroupFunction(group, values)
            built, oracle = markov_of_function(f), self._gathered(f)
            assert built.dtype == oracle.dtype
            assert built.tobytes() == oracle.tobytes()


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

    @staticmethod
    def _draw(group, i, rng):
        """A random symmetric subset for odd i, an arbitrary nonempty one for even i."""
        if i % 2:
            return random_symmetric_subset(group, int(rng.integers(1, max(2, group.order // 4))), rng)
        return random_nonempty_subset(group, rng, max_size=max(2, group.order // 2))

    def test_agrees_with_dense_and_catalog(self, rng):
        checked = 0
        nonsymmetric = 0
        for descriptor, count, path in self.ENGINE_GRID:
            group = make_group(descriptor)
            catalog = irrep_catalog(group)
            for i in range(count):
                s = self._draw(group, i, rng)
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

    def test_summary_reads_the_catalogs_own_blocks(self, rng):
        """lambda1 is bit for bit the block path's, and the norm the largest
        nontrivial operator norm of the same ``catalog.coefficients``."""
        checked = 0
        for descriptor in [d for d, _, _ in self.ENGINE_GRID] + ["cyclic(1009)"]:
            group = make_group(descriptor)
            catalog = irrep_catalog(group)
            for i in range(10):
                s = self._draw(group, i, rng)
                summary = spectral_summary(s)
                norms = np.concatenate([operator_norms(b) for b in catalog.coefficients(s.indicator())])
                assert summary.lambda1 == laplace_spectrum_blocks(s).lambda1, (descriptor, s.indices)
                assert summary.norm == np.delete(norms, catalog.trivial_index).max(), (descriptor, s.indices)
                checked += 1
        assert checked == 80

    def test_bounds_on_cyclic_leaves_stacks_unbuilt(self, tmp_path):
        irrep_catalog.cache_clear()
        spectral_summary.cache_clear()
        cfg = tmp_path / "bounds.cfg"
        cfg.write_text("group = cyclic(433)\nset = random(25)\nseed = 4\nd = 2\n", encoding="utf-8")
        assert cli_main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "b.csv")]) == 0
        misses = irrep_catalog.cache_info().misses
        catalog = irrep_catalog(make_group("cyclic(433)"))
        assert irrep_catalog.cache_info().misses == misses  # the catalog the run read
        # its coefficients come by FFT; the (|G|, |G|) character stack stays unbuilt
        assert "stacks" not in vars(catalog) and "reps" not in vars(catalog)


def _frobenius_set():
    """A class of 7-cycles (size 3) with a class of order-3 elements (size 7)
    in the Frobenius group of order 21: normal, not symmetric, generating."""
    group = make_group(f"permutation_closure({FROBENIUS_21})")
    classes = group.conjugacy_classes()
    sevens = [c for c in classes if c.size == 3]
    threes = [c for c in classes if c.size == 7]
    return GroupSubset.from_indices(group, np.concatenate([sevens[0], threes[0]]))


def _is_normal(s):
    """Dense oracle: the Markov operator of s commutes with its transpose."""
    m = markov_matrix(s)
    return np.array_equal(m @ m.T, m.T @ m)


def _three_solves(s):
    """lambda1 and the ascending star spectrum with one solve each."""
    m = markov_matrix(s)
    n, size = s.group.order, s.size
    star = np.sort(np.linalg.eigvalsh(np.eye(n) - (m @ m.T) / (size * size)))
    return variational_lambda1(np.eye(n) - m / size), star


class TestNormalOperator:
    def test_frobenius_set(self):
        s = _frobenius_set()
        assert s.group.order == 21 and s.size == 10
        assert _is_normal(s) and not s.is_symmetric
        assert laplace_spectrum_dense(s).lambda1 > 1e-3  # connected: S generates

    def _normal_sets(self, rng):
        cases = [_frobenius_set()]
        for descriptor in ("cyclic(31)", "abelian_product([4, 6])"):
            group = make_group(descriptor)
            cases += [random_nonempty_subset(group, rng, max_size=12) for _ in range(6)]
        for descriptor in ("cyclic(31)", "dihedral(7)", f"permutation_closure({S4})"):
            group = make_group(descriptor)
            cases += [random_symmetric_subset(group, int(rng.integers(1, 6)), rng) for _ in range(6)]
        assert all(map(_is_normal, cases))
        return cases

    def test_one_solve_matches_three_solves(self, rng):
        nonsymmetric = 0
        for s in self._normal_sets(rng):
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
            found = [s for s in draws if not _is_normal(s)][:count]
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
        counts = {"eigvalsh": 0, "eigvals": 0, "eigh": 0}
        for name in counts:

            def counted(*args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] += 1
                return _solve(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        call(s)
        monkeypatch.undo()
        return counts["eigvalsh"], counts["eigvals"], counts["eigh"]

    def test_solve_counts(self, monkeypatch, rng):
        symmetric = random_symmetric_subset(make_group("dihedral(7)"), 3, rng)
        reflection = GroupSubset.singleton(make_group("dihedral(7)"), 7)
        rotation = GroupSubset.singleton(make_group("dihedral(7)"), 1)
        abelian = GroupSubset.from_indices(make_group("cyclic(31)"), [1, 5, 6])
        non_normal, s4_non_normal, _ = self._non_normal_sets(rng, 1)
        s4_symmetric = random_symmetric_subset(s4_non_normal.group, 3, rng)
        summary = spectral_summary.__wrapped__  # uncached, so every call solves
        assert not abelian.is_symmetric and not non_normal.is_symmetric
        # the drawn symmetric set is every nontrivial rotation, a union of classes:
        # the inversion split solves its two half-size blocks
        assert _conjugation_closed(symmetric) and not _conjugation_closed(reflection)
        assert self._solves(monkeypatch, laplace_spectrum_dense, symmetric) == (2, 0, 0)
        assert self._solves(monkeypatch, laplace_spectrum_dense, reflection) == (1, 0, 0)
        # two half-size eigh and one batched eigvals of the 2 x 2 conjugate-pair blocks
        assert self._solves(monkeypatch, laplace_spectrum_dense, abelian) == (0, 1, 2)
        # normal but neither symmetric nor conjugation-closed: nothing certifies
        # normality cheaply, so it takes the star and Hermitian solves plus eigvals
        assert _is_normal(rotation) and not rotation.is_symmetric and not _conjugation_closed(rotation)
        assert self._solves(monkeypatch, laplace_spectrum_dense, rotation) == (2, 1, 0)
        assert self._solves(monkeypatch, laplace_spectrum_dense, non_normal) == (2, 1, 0)
        assert self._solves(monkeypatch, summary, s4_symmetric) == (1, 0, 0)
        assert self._solves(monkeypatch, summary, s4_non_normal) == (2, 0, 0)


def _full_eigvals(s):
    """Every eigenvalue of Delta from one n x n ``eigvals``."""
    return np.linalg.eigvals(np.eye(s.group.order) - markov_matrix(s) / s.size)


A4 = '["(1 2 3)", "(1 2)(3 4)"]'
S5 = '["(1 2 3 4 5)", "(1 2)"]'


def _gathered_closure(s):
    """Oracle: the full n |S| gather, g s g^-1 in S for every g in G and s in S."""
    group = s.group
    idx = np.arange(group.order)[:, None]
    return bool(s.membership[group.mul(group.mul(idx, s.indices[None, :]), group.inv(idx))].all())


class TestConjugationClosed:
    @pytest.mark.parametrize("descriptor", ["dihedral(7)", f"permutation_closure({A4})", f"permutation_closure({S5})"])
    def test_generators_decide_like_the_full_gather(self, descriptor, rng):
        group = make_group(descriptor)
        classes = group.conjugacy_classes()
        cases = [random_nonempty_subset(group, rng, max_size=8) for _ in range(10)]
        for _ in range(10):
            picked = rng.choice(len(classes), size=rng.integers(1, len(classes)), replace=False)
            cases.append(GroupSubset.from_indices(group, np.concatenate([classes[i] for i in picked])))
        # orbits of one element under conjugation by a single generator: closed
        # under that generator, and under the whole group only when a class
        for s in group.generators.tolist():
            for x in rng.choice(group.order, size=4, replace=False).tolist():
                orbit = [x]
                while (y := int(group.mul(group.mul(group.inv(s), orbit[-1]), s))) != x:
                    orbit.append(y)
                cases.append(GroupSubset.from_indices(group, orbit))
        closed = [_conjugation_closed(s) for s in cases]
        assert closed == [_gathered_closure(s) for s in cases]
        assert 10 <= sum(closed) < len(cases)


class TestInversionSplit:
    """Conjugation-closed sets: two half-size symmetric solves plus cluster blocks."""

    @staticmethod
    def _cases(rng):
        cases = []
        for descriptor in ("cyclic(31)", "cyclic(32)", "abelian_product([2, 2, 2, 4])", "abelian_product([2, 2, 2])"):
            group = make_group(descriptor)
            cases += [random_nonempty_subset(group, rng, max_size=group.order // 2) for _ in range(3)]
            cases += [random_symmetric_subset(group, 3, rng), GroupSubset.full(group)]
            cases += [GroupSubset.singleton(group, 1), GroupSubset.singleton(group, group.order - 1)]
        cases.append(GroupSubset.full(make_group("cyclic(1)")))
        z30 = make_group("cyclic(30)")
        cases.append(GroupSubset.from_indices(z30, range(0, 30, 6)))  # a subgroup
        cases.append(GroupSubset.from_indices(z30, range(1, 30, 6)))  # its coset: mu = 1 for 24 characters
        d7 = make_group("dihedral(7)")
        cases.append(GroupSubset.from_indices(d7, np.concatenate(d7.conjugacy_classes()[1:3])))
        cases.append(_frobenius_set())
        a4 = make_group(f"permutation_closure({A4})")
        cases += [GroupSubset.from_indices(a4, c) for c in a4.conjugacy_classes() if c.size == 4]
        return cases

    def test_matches_full_eigvals(self, rng):
        nonsymmetric = 0
        for s in self._cases(rng):
            assert _conjugation_closed(s)
            nonsymmetric += not s.is_symmetric
            mu = _split_spectrum(s)
            assert mu is not None and mu.dtype == np.complex128
            assert multiset_distance(mu, _full_eigvals(s)) <= 1e-12, s
            report = laplace_spectrum_dense(s)
            lam1, star = _three_solves(s)
            assert multiset_distance(report.eigenvalues, _full_eigvals(s)) <= 1e-12
            assert abs(report.lambda1 - lam1) <= 1e-12
            assert np.abs(report.star_eigenvalues - star).max() <= 1e-12
            assert abs(report.lambda1_star - (star[1] if star.size > 1 else 0.0)) <= 1e-12
        assert nonsymmetric >= 15

    def test_odd_part_and_fixed_points(self):
        """F = {x = x^-1} has one element in Z/31, two in Z/32 and all of (Z/2)^3."""
        for descriptor, fixed in (("cyclic(31)", 1), ("cyclic(32)", 2), ("abelian_product([2, 2, 2])", 8)):
            group = make_group(descriptor)
            blocks = [b.shape for b in _inversion_blocks(GroupSubset.from_indices(group, [1]))]
            pairs = (group.order - fixed) // 2
            coupling = [] if fixed == group.order else [(pairs + fixed, pairs)]  # {1} is symmetric in (Z/2)^3
            assert blocks == [(pairs + fixed, pairs + fixed), (pairs, pairs), *coupling]

    def test_rotated_blocks_reassemble_delta(self, rng):
        """R^T Delta R = [[A, B], [-B^T, C]] with A and C symmetric, B the skew coupling."""
        for descriptor in ("cyclic(32)", "abelian_product([2, 2, 2, 4])"):
            group = make_group(descriptor)
            s = random_nonempty_subset(group, rng, max_size=group.order // 2)
            s = s if not s.is_symmetric else GroupSubset.singleton(group, 1)
            idx = np.arange(group.order)
            inverse = group.inv(idx)
            pairs, fixed = np.flatnonzero(idx < inverse), np.flatnonzero(idx == inverse)
            r = np.zeros((group.order, group.order))
            r[pairs, np.arange(pairs.size)] = r[inverse[pairs], np.arange(pairs.size)] = np.sqrt(0.5)
            r[fixed, pairs.size + np.arange(fixed.size)] = 1.0
            odd = pairs.size + fixed.size + np.arange(pairs.size)
            r[pairs, odd] = np.sqrt(0.5)
            r[inverse[pairs], odd] = -np.sqrt(0.5)
            a, c, b = _inversion_blocks(s)
            assert np.array_equal(a, a.T) and np.array_equal(c, c.T)
            rotated = r.T @ (np.eye(group.order) - markov_matrix(s) / s.size) @ r
            assert np.abs(rotated - np.block([[a, b], [-b.T, c]])).max() <= 1e-15

    def test_certificate_refuses_planted_coupling(self):
        lam_e, lam_o = np.array([0.0, 0.5]), np.array([0.5])
        inside = np.array([[0.0], [0.25]])
        mu = _coupled_spectrum(lam_e, lam_o, inside)
        assert multiset_distance(mu, [0.0, 0.5 + 0.25j, 0.5 - 0.25j]) <= 1e-15
        assert _coupled_spectrum(lam_e, lam_o, inside + [[1e-12], [0.0]]) is not None
        assert _coupled_spectrum(lam_e, lam_o, inside + [[1e-8], [0.0]]) is None

    def test_refused_split_falls_back_to_eigvals(self, monkeypatch):
        s = GroupSubset.from_indices(make_group("cyclic(31)"), [1, 5, 6])
        expected = laplace_spectrum_dense(s)
        coupled = spectra._coupled_spectrum

        refused = []

        def planted(lam_e, lam_o, w):
            w = w.copy()
            w[np.argmin(lam_e), np.argmax(lam_o)] += 1e-6  # the trivial 0 couples to nothing
            result = coupled(lam_e, lam_o, w)
            refused.append(result is None)
            return result

        monkeypatch.setattr(spectra, "_coupled_spectrum", planted)
        # the refused split solves no block; its one eigvals is the n x n fallback
        assert TestNormalOperator._solves(monkeypatch, laplace_spectrum_dense, s) == (0, 1, 2)
        monkeypatch.setattr(spectra, "_coupled_spectrum", planted)
        report = laplace_spectrum_dense(s)
        assert refused == [True, True]
        assert multiset_distance(report.eigenvalues, expected.eigenvalues) <= 1e-12
        assert abs(report.lambda1 - expected.lambda1) <= 1e-12

    def test_dense_path_reads_no_catalog_and_no_fft(self, monkeypatch, rng):
        def forbidden(*args, **kwargs):
            raise AssertionError("the dense path must not read the catalog or an FFT")

        for name in np.fft.__all__:
            monkeypatch.setattr(np.fft, name, forbidden)
        monkeypatch.setattr(spectra, "irrep_catalog", forbidden)
        monkeypatch.setattr(representations, "irrep_catalog", forbidden)
        for descriptor in ("cyclic(31)", "abelian_product([4, 6])", "dihedral(7)"):
            group = make_group(descriptor)
            for s in (random_nonempty_subset(group, rng), random_symmetric_subset(group, 3, rng)):
                assert laplace_spectrum_dense(s).path == "dense"
        assert laplace_spectrum_dense(_frobenius_set()).path == "dense"


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
                s = random_symmetric_subset(group, min(int(rng.integers(1, 4)), group.order), rng)
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

    @staticmethod
    def _looped_clusters(values):
        """The former Python loop over n, kept as the oracle."""
        arr = np.sort(np.asarray(values, dtype=np.float64))
        labels = np.zeros(arr.size, dtype=np.int64)
        for i in range(1, arr.size):
            labels[i] = labels[i - 1] + (1 if arr[i] - arr[i - 1] > 1e-6 else 0)
        return labels

    def test_cluster_function_matches_loop(self, rng):
        draws = [
            [],
            [0.5],
            rng.normal(size=200),
            np.repeat(rng.normal(size=20), 3) + rng.normal(scale=1e-7, size=60),
            np.cumsum(np.full(50, 1e-6)),  # gaps at the threshold itself
            [0.0, 1e-6, 2e-6 + 1e-12, np.nan, 1.0],
        ]
        for values in draws:
            labels = cluster_eigenvalues(values)
            assert labels.dtype == np.int64
            assert np.array_equal(labels, self._looped_clusters(values))


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

    @staticmethod
    def _looped_rows(report):
        """The former per-row serialization with one searchsorted per row, kept as the oracle."""
        eig = report.eigenvalues
        real_spectrum = np.abs(eig.imag).max(initial=0.0) < 1e-9
        sorted_real = np.sort(eig.real) if real_spectrum else None
        labels = cluster_eigenvalues(sorted_real) if real_spectrum else None
        rows = []
        for j in range(report.order):
            value = eig[j]
            if real_spectrum:
                pos = min(int(np.searchsorted(sorted_real, value.real)), labels.size - 1)
                cluster = int(labels[pos])
            else:
                cluster = -1
            rows.append(
                {
                    "index": j,
                    "eigenvalue_re": float(value.real),
                    "eigenvalue_im": float(value.imag),
                    "star_eigenvalue": float(report.star_eigenvalues[j]),
                    "cluster": cluster,
                    "path": report.path,
                }
            )
        return rows

    @pytest.mark.parametrize("descriptor", ["cyclic(1)", "cyclic(40)", "dihedral(6)", "abelian_product([4, 6])"])
    def test_rows_match_per_row_loop(self, descriptor, rng):
        group = make_group(descriptor)
        symmetric = random_symmetric_subset(group, min(3, group.order), rng)
        subsets = [random_nonempty_subset(group, rng), symmetric, GroupSubset.full(group)]
        for s in subsets:
            for report in (laplace_spectrum_dense(s), laplace_spectrum_blocks(s)):
                rows = report.rows()
                assert rows == self._looped_rows(report)
                assert [type(row["cluster"]) for row in rows] == [int] * report.order
