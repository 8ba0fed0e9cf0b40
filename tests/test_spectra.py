"""Laplace spectra: dense vs block paths, the singular gap, walk energies."""

import tracemalloc

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
from cayleygap.config import resolve_subset
from cayleygap.errors import EmptySet, KZero, NotCataloged
from cayleygap.groups import TableGroup
from cayleygap.representations import operator_norms
from cayleygap.sampling import random_nonempty_subset, random_symmetric_subset
from cayleygap.spectra import (
    _central_involution,
    _conjugation_closed,
    _coupled_spectrum,
    _inversion_blocks,
    _laplacian,
    _parts,
    _split_spectrum,
    markov_of_function,
    spectral_summary,
    variational_lambda1,
)

S4 = '["(1 2 3 4)", "(1 2)"]'
S5 = '["(1 2 3 4 5)", "(1 2)"]'
FROBENIUS_21 = '["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"]'
Q8 = '["(1 2 3 4)(5 6 7 8)", "(1 5 3 7)(2 8 4 6)"]'  # i and j of the quaternion group


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

    def test_solve_counts_on_the_halves(self, monkeypatch):
        """A central involution runs every solve above once on each half."""
        d8 = make_group("dihedral(8)")
        q8 = make_group(f"permutation_closure({Q8})")
        z32 = make_group("cyclic(32)")
        summary = spectral_summary.__wrapped__
        d8_symmetric = GroupSubset.from_indices(d8, [1, 7, 8])  # r, r^-1 and a reflection: not closed
        d8_rotation = GroupSubset.singleton(d8, 1)
        x = int(np.flatnonzero(q8.mul(np.arange(8), np.arange(8)) != q8.identity)[0])  # an element of order 4
        q8_symmetric = GroupSubset.from_indices(q8, [x, int(q8.inv(x))])  # in Q8 a class, so closed
        q8_order_four = GroupSubset.singleton(q8, x)
        abelian = GroupSubset.from_indices(z32, [1, 5, 6])
        assert d8_symmetric.is_symmetric and not _conjugation_closed(d8_symmetric)
        assert not d8_rotation.is_symmetric and not _conjugation_closed(d8_rotation)
        assert not q8_order_four.is_symmetric and not _conjugation_closed(q8_order_four)
        assert self._solves(monkeypatch, laplace_spectrum_dense, d8_symmetric) == (2, 0, 0)
        assert self._solves(monkeypatch, laplace_spectrum_dense, GroupSubset.full(d8)) == (4, 0, 0)
        assert self._solves(monkeypatch, laplace_spectrum_dense, d8_rotation) == (4, 2, 0)
        # two eigh per half; the odd half batches its 2 x 2 conjugate pairs, the even
        # half also a 3 x 3 and a 4 x 4 cluster (characters 8, 16, 24 share the real
        # part -1, and 4, 12, 20, 28 the real part 0)
        assert self._solves(monkeypatch, laplace_spectrum_dense, abelian) == (0, 4, 4)
        assert _conjugation_closed(q8_symmetric)
        assert self._solves(monkeypatch, summary, q8_symmetric) == (4, 0, 0)
        assert self._solves(monkeypatch, summary, q8_order_four) == (4, 0, 0)


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


def _relabeled(descriptor, seed):
    """A ``TableGroup`` copy of the group in which element i is named label[i],
    for a seeded permutation label."""
    group = make_group(descriptor)
    label = np.random.default_rng(seed).permutation(group.order)
    idx = np.arange(group.order)
    table = np.empty((group.order, group.order), dtype=np.int64)
    table[label[:, None], label[None, :]] = label[group.mul(idx[:, None], idx[None, :])]
    return TableGroup(table), label


def _central_oracle(group):
    """The smallest z != e with z^2 = e that commutes with every element of G."""
    idx = np.arange(group.order)
    for z in idx.tolist():
        if z != group.identity and group.mul(z, z) == group.identity:
            if np.array_equal(group.mul(z, idx), group.mul(idx, z)):
                return z
    return None


def _half_basis(group, z, sign):
    """Orthonormal J-even and J-odd columns of one half, from the definitions:
    w_g = (e_g + sign e_zg)/sqrt2 for every g; over the representatives x < zx,
    a pair x < rep(x^-1) gives (w_x +- w_x^-1)/sqrt2, and a fixed point
    x = rep(x^-1) gives w_x, J-odd exactly when w_x + w_x^-1 = 0."""
    n = group.order

    def w(g):
        v = np.zeros(n)
        v[g] += np.sqrt(0.5)
        v[int(group.mul(z, g))] += sign * np.sqrt(0.5)
        return v

    even_pairs, odd_pairs, even_fixed, odd_fixed = [], [], [], []
    for x in (x for x in range(n) if x < group.mul(z, x)):
        y = int(group.inv(x))
        rep = min(y, int(group.mul(z, y)))
        if x < rep:
            even_pairs.append((w(x) + w(y)) * np.sqrt(0.5))
            odd_pairs.append((w(x) - w(y)) * np.sqrt(0.5))
        elif x == rep:
            (even_fixed if np.abs(w(x) + w(y)).max() > 0 else odd_fixed).append(w(x))
    even = np.array(even_pairs + even_fixed).reshape(-1, n).T
    odd = np.array(odd_pairs + odd_fixed).reshape(-1, n).T
    return even, odd


class TestCentralInvolutionSplit:
    """Groups with a central involution z: every dense solve runs on the two
    halves of the left translation L_z."""

    DESCRIPTORS = (
        "cyclic(32)",
        "cyclic(2)",
        "dihedral(8)",
        "dihedral(7)",
        "abelian_product([2, 2, 2, 4])",
        "abelian_product([12, 15])",
        f"permutation_closure({A4})",
        f"permutation_closure({S4})",
        f"permutation_closure({Q8})",
    )

    @classmethod
    def _groups(cls):
        return [make_group(d) for d in cls.DESCRIPTORS] + [_relabeled("dihedral(8)", 8)[0]]

    @classmethod
    def _cases(cls, rng):
        """Symmetric, non-symmetric and class-union sets on every group, the
        whole group, and where z exists {z}, <z> = {e, z} and a coset {x, zx}."""
        cases = []
        for group in cls._groups():
            n = group.order
            classes = group.conjugacy_classes()
            cases += [random_symmetric_subset(group, min(3, n), rng), GroupSubset.full(group)]
            cases += [random_nonempty_subset(group, rng, max_size=max(1, n // 2)) for _ in range(3)]
            for _ in range(2):
                picked = rng.choice(len(classes), size=rng.integers(1, len(classes) + 1), replace=False)
                cases.append(GroupSubset.from_indices(group, np.concatenate([classes[i] for i in picked])))
            # a class that is not its own inverse (the 3-cycles of A4): closed, not symmetric
            cases += [GroupSubset.from_indices(group, c) for c in classes if not np.isin(group.inv(c), c).all()][:1]
            z = _central_involution(group)
            if z is not None:
                x = int(rng.integers(n))
                cases.append(GroupSubset.singleton(group, z))
                cases.append(GroupSubset.from_indices(group, [group.identity, z]))
                cases.append(GroupSubset.from_indices(group, [x, int(group.mul(z, x))]))
        return cases

    def test_central_involution_is_the_smallest_central_one(self):
        expected = dict(zip(self.DESCRIPTORS, (16, 1, 4, None, 2, 90, None, None)))
        assert [_central_involution(make_group(d)) for d in expected] == list(expected.values())
        for group in self._groups():
            z = _central_oracle(group)
            assert _central_involution(group) == z
            assert (_parts(GroupSubset.full(group)) == [None]) == (z is None)
        q8 = make_group(f"permutation_closure({Q8})")
        squares = q8.mul(np.arange(8), np.arange(8))
        z = _central_involution(q8)
        assert np.flatnonzero(squares == q8.identity).tolist() == sorted([q8.identity, z])  # one involution
        assert np.count_nonzero(squares == z) == 6
        table, label = _relabeled("dihedral(8)", 8)
        assert table.identity == label[0] and _central_involution(table) == label[4]  # r^4

    def test_matches_full_eigvals_and_three_solves(self, rng):
        kinds = {}
        for s in self._cases(rng):
            n = s.group.order
            report = laplace_spectrum_dense(s)
            lam1, star = _three_solves(s)
            _, summary_lam1, summary_star = spectra._dense_gaps(s, full=False)
            closed = _conjugation_closed(s)
            if closed or s.is_symmetric:
                assert multiset_distance(report.eigenvalues, _full_eigvals(s)) <= 1e-12, s
            else:
                # a non-normal Delta may be defective; its eigenvalues then move by
                # about sqrt(eps) between any two solvers (1.2e-8 on dihedral(8)),
                # while the power sums tr Delta^k stay well conditioned
                delta = np.eye(n) - markov_matrix(s) / s.size
                for k in (1, 2, 3):
                    power_sum = (report.eigenvalues**k).sum()
                    assert abs(power_sum - np.trace(np.linalg.matrix_power(delta, k))) <= 1e-12 * n, s
                assert multiset_distance(report.eigenvalues, _full_eigvals(s)) <= 1e-6, s
            for gap, spectrum in ((report.lambda1, report.star_eigenvalues), (summary_lam1, summary_star)):
                assert abs(gap - lam1) <= 1e-12, s
                assert np.abs(spectrum - star).max() <= 1e-12, s
            assert abs(report.lambda1_star - (star[1] if star.size > 1 else 0.0)) <= 1e-12
            key = (_central_involution(s.group) is not None, closed, s.is_symmetric)
            kinds[key] = kinds.get(key, 0) + 1
        # on groups with z: closed or not, symmetric or not, and so also without z
        assert all(kinds.get((True, closed, symmetric), 0) >= 3 for closed in (0, 1) for symmetric in (0, 1))

    def test_fixed_points_of_the_halves(self):
        """cyclic(32): z = 16, the pairs {p, 16 - p} for p = 1..7, and the
        fixed points 0 (an involution) and 8 (8 + 8 = z, J-odd on the odd
        half).  Q8: every representative is fixed, and i, j, k are J-odd on
        the odd half."""
        z32 = make_group("cyclic(32)")
        even, odd = _parts(GroupSubset.from_indices(z32, [1]))
        assert [b.shape for b in _inversion_blocks(GroupSubset.from_indices(z32, [1]), even)] == [(9, 9), (7, 7), (9, 7)]
        assert [b.shape for b in _inversion_blocks(GroupSubset.from_indices(z32, [1]), odd)] == [(8, 8), (8, 8), (8, 8)]
        q8 = make_group(f"permutation_closure({Q8})")
        x = int(np.flatnonzero(q8.mul(np.arange(8), np.arange(8)) != q8.identity)[0])
        s = GroupSubset.from_indices(q8, [x, int(q8.inv(x))])
        even, odd = _parts(s)
        assert [b.shape for b in _inversion_blocks(s, even)] == [(4, 4), (0, 0)]
        assert [b.shape for b in _inversion_blocks(s, odd)] == [(1, 1), (3, 3)]

    def test_rotated_halves_reassemble_delta(self, rng):
        """In the basis built from the definitions, each half of Delta is
        [[A, B], [-B^T, C]] with A and C symmetric, and the halves do not couple."""
        cases = []
        for descriptor in ("cyclic(32)", "abelian_product([2, 2, 2, 4])"):
            group = make_group(descriptor)
            cases += [GroupSubset.singleton(group, 1), random_nonempty_subset(group, rng, max_size=16)]
            cases.append(random_symmetric_subset(group, 3, rng))
        q8 = make_group(f"permutation_closure({Q8})")
        cases += [GroupSubset.from_indices(q8, c) for c in q8.conjugacy_classes()[1:]]
        for s in cases:
            group, n = s.group, s.group.order
            assert _conjugation_closed(s)
            z = _central_involution(group)
            delta = np.eye(n) - markov_matrix(s) / s.size
            columns = []
            for part, sign in zip(_parts(s), (1, -1)):
                a, c, *coupling = _inversion_blocks(s, part)
                b = coupling[0] if coupling else np.zeros((a.shape[0], c.shape[0]))
                assert np.array_equal(a, a.T) and np.array_equal(c, c.T)
                assert bool(coupling) != s.is_symmetric
                r = np.hstack(_half_basis(group, z, sign))
                assert np.abs(r.T @ delta @ r - np.block([[a, b], [-b.T, c]])).max() <= 1e-15
                columns.append(r)
            r = np.hstack(columns)
            assert np.abs(r.T @ r - np.eye(n)).max() <= 1e-15
            assert np.abs((r.T @ delta @ r)[: n // 2, n // 2 :]).max() <= 1e-15


class TestDenseAllocation:
    """The dense path allocates less than one float n x n operator."""

    @pytest.mark.parametrize(
        "descriptor, spec",
        [("cyclic(1200)", "random(12)"), ("cyclic(1000)", "symmetric_random(10)"), ("dihedral(500)", "symmetric_random(8)")],
    )
    def test_peak_below_one_dense_operator(self, descriptor, spec):
        group = make_group(descriptor)
        s = resolve_subset(group, spec, np.random.default_rng(0))
        tracemalloc.start()
        try:
            laplace_spectrum_dense(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < group.order**2 * 8


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
