"""Laplace spectra: dense vs block paths, the singular gap, walk energies."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

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
from cayleygap import groups, representations, spectra
from cayleygap.cli import main as cli_main
from cayleygap.config import resolve_subset
from cayleygap.errors import EmptySet, GroupTooLarge, KZero, NotCataloged
from cayleygap.bounds import verify_exceptional_bound_pair
from cayleygap.groups import TableGroup, convolve
from cayleygap.representations import operator_norms
from cayleygap.sampling import random_nonempty_subset, random_symmetric_subset
from cayleygap.spectra import (
    _coupled_spectrum,
    _abelian_spectrum,
    _inversion_blocks,
    _inversion_layout,
    _laplacian,
    _split,
    _split_spectra,
    _translations,
    markov_of_function,
    multiset_key,
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

    def test_matches_dense_on_two_to_the_14(self):
        # the dense split reads mul on int64 columns of 16384 elements; six elements
        # span at most 6 of the 14 dimensions, so lambda1 is 0
        group = make_group("abelian_product([" + ", ".join(["2"] * 14) + "])")
        s = resolve_subset(group, "random(6)", 0)
        dense, blocks = laplace_spectrum_dense(s), laplace_spectrum_blocks(s)
        assert multiset_distance(dense.eigenvalues, blocks.eigenvalues) < 1e-9
        assert np.abs(dense.star_eigenvalues - blocks.star_eigenvalues).max() < 1e-9
        assert dense.lambda1 == pytest.approx(0, abs=1e-12) and blocks.lambda1 == pytest.approx(0, abs=1e-12)

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


def _sign_characters(size):
    """eps_k(h_j) = (-1)^popcount(j & k), from the definition, as a (size, size) array."""
    return np.array([[(-1) ** bin(j & k).count("1") for j in range(size)] for k in range(size)])


def _defined_counts(s, h):
    """|S| <w_x, M w_y> on every part of H, from the definition:
    sum_j eps_k(h_j) S(x^-1 h_j y) over the representatives x = min Hx."""
    group = s.group
    idx = np.arange(group.order)
    reps = [x for x in idx.tolist() if x == min(int(group.mul(t, x)) for t in h.tolist())]
    m = markov_matrix(s).astype(np.int64)
    grids = [m[np.ix_(reps, [int(group.mul(t, y)) for y in reps])] for t in h.tolist()]
    return np.array([sum(e * g for e, g in zip(eps, grids)) for eps in _sign_characters(h.size)]), reps


def _three_solves_on_parts(s):
    """``_three_solves`` run on each part of the split of a set on a nonabelian
    group, with the trivial eigenvalue removed in part 0."""
    counts, _ = _defined_counts(s, _translations(s.group))
    size, m = s.size, counts.shape[1]
    gaps, stars = [], []
    for k, part in enumerate(counts.astype(np.float64)):
        delta = np.eye(m) - part / size
        stars.append(np.linalg.eigvalsh(np.eye(m) - (part @ part.T) / (size * size)))
        gaps.append(variational_lambda1(delta) if k == 0 else np.linalg.eigvalsh((delta + delta.T) / 2.0)[0])
    return min(gaps), np.sort(np.concatenate(stars))


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
        """The same three solves, on the same matrices, as one solve per part
        of the counts taken from their definition; within roundoff of the
        three solves of the whole operator."""
        cases = self._non_normal_sets(rng, 5)
        assert len(cases) == 15
        for s in cases:
            report = laplace_spectrum_dense(s)
            lam1, star = _three_solves_on_parts(s)
            assert report.lambda1 == lam1
            assert np.array_equal(report.star_eigenvalues, star)
            assert report.lambda1_star == star[1]
            whole_lam1, whole_star = _three_solves(s)
            assert abs(report.lambda1 - whole_lam1) <= 1e-12
            assert np.abs(report.star_eigenvalues - whole_star).max() <= 1e-12

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
        # the drawn symmetric set is every nontrivial rotation, a union of classes,
        # and the reflection is not closed: either way a nonabelian group's
        # symmetric set takes one eigvalsh of the stack of the two parts of H = {e, s}
        assert _gathered_closure(symmetric) and not _gathered_closure(reflection)
        assert self._solves(monkeypatch, laplace_spectrum_dense, symmetric) == (1, 0, 0)
        assert self._solves(monkeypatch, laplace_spectrum_dense, reflection) == (1, 0, 0)
        # abelian: two half-size eigh and one batched eigvals of the 2 x 2 conjugate-pair blocks
        assert self._solves(monkeypatch, laplace_spectrum_dense, abelian) == (0, 1, 2)
        # abelian with H = {x : x^2 = e} of order 8: the fixed points 0 and 2 of the
        # representatives 0..3 sort the 8 parts into two stacks of 4 by the sign of
        # h = 4 (-2 = 2 + 4), two eigh on each stack and one batched eigvals per part
        z2z2z8 = GroupSubset.from_indices(make_group("abelian_product([2, 2, 8])"), [1, 5, 6])
        assert not z2z2z8.is_symmetric and _translations(z2z2z8.group).size == 8
        assert self._solves(monkeypatch, laplace_spectrum_dense, z2z2z8) == (0, 8, 4)
        # normal but not symmetric on a nonabelian group: nothing certifies
        # normality cheaply, so it takes the star and Hermitian solves plus eigvals,
        # each once over the stack of the two parts of H = {e, s}
        assert _is_normal(rotation) and not rotation.is_symmetric and not _gathered_closure(rotation)
        assert self._solves(monkeypatch, laplace_spectrum_dense, rotation) == (2, 1, 0)
        # a 3-cycle class of A4 is closed and normal but not symmetric: the same
        # three solves over the four parts of the Klein four-group
        a4 = make_group(f"permutation_closure({A4})")
        three_cycles = next(GroupSubset.from_indices(a4, c) for c in a4.conjugacy_classes() if c.size == 4)
        assert _gathered_closure(three_cycles) and not three_cycles.is_symmetric
        assert self._solves(monkeypatch, laplace_spectrum_dense, three_cycles) == (2, 1, 0)
        # a non-normal set of dihedral(7), S4 or the Frobenius group: the same three batched solves
        assert self._solves(monkeypatch, laplace_spectrum_dense, non_normal) == (2, 1, 0)
        # not closed: S4's four parts of H = {e, (3 4), (1 2), (1 2)(3 4)} in one eigvalsh
        assert self._solves(monkeypatch, summary, s4_symmetric) == (1, 0, 0)
        # the summary needs no eigvals: the star and Hermitian eigvalsh of the stack
        assert self._solves(monkeypatch, summary, s4_non_normal) == (2, 0, 0)

    def test_solve_counts_on_the_halves(self, monkeypatch):
        """A set on an abelian group runs the inversion split once per part; a set
        on a nonabelian group runs each solve once over the stack of parts."""
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
        assert d8_symmetric.is_symmetric and not _gathered_closure(d8_symmetric)
        assert not d8_rotation.is_symmetric and not _gathered_closure(d8_rotation)
        assert not q8_order_four.is_symmetric and not _gathered_closure(q8_order_four)
        # one eigvalsh of the four quarters of H = {e, r^4, s, s r^4}, closed or not
        assert self._solves(monkeypatch, laplace_spectrum_dense, d8_symmetric) == (1, 0, 0)
        assert self._solves(monkeypatch, laplace_spectrum_dense, GroupSubset.full(d8)) == (1, 0, 0)
        # the star and Hermitian eigvalsh and one eigvals, each over the four quarters
        assert self._solves(monkeypatch, laplace_spectrum_dense, d8_rotation) == (2, 1, 0)
        # two eigh per half; the odd half batches its 2 x 2 conjugate pairs, the even
        # half also a 3 x 3 and a 4 x 4 cluster (characters 8, 16, 24 share the real
        # part -1, and 4, 12, 20, 28 the real part 0)
        assert self._solves(monkeypatch, laplace_spectrum_dense, abelian) == (0, 4, 4)
        assert _gathered_closure(q8_symmetric)
        # closed, yet nonabelian: one eigvalsh of both halves of H = {e, -1}
        assert self._solves(monkeypatch, summary, q8_symmetric) == (1, 0, 0)
        # H = {e, -1}, since -1 is Q8's only involution; the star and
        # Hermitian eigvalsh, each over both halves
        assert self._solves(monkeypatch, summary, q8_order_four) == (2, 0, 0)


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


def _whole_space(s):
    """The split over H = {e}: one part, the whole space, with counts S(x^-1 y)."""
    group = s.group
    return spectra._Split(np.array([group.identity]), np.arange(group.order), markov_matrix(s).astype(np.int8)[None])


def _part(s, split, part):
    """The arguments of the stacked inversion helpers for one part of a split."""
    q, signs = _inversion_layout(s.group, split)
    return split.counts, signs, q, [part]


def _part_blocks(s, split, part):
    """The inversion blocks of one part, unstacked."""
    return [b[0] for b in _inversion_blocks(s, *_part(s, split, part))]


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
            assert _gathered_closure(s)
            nonsymmetric += not s.is_symmetric
            [mu] = _split_spectra(s, *_part(s, _whole_space(s), 0))
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
            s = GroupSubset.from_indices(group, [1])
            blocks = [b.shape for b in _part_blocks(s, _whole_space(s), 0)]
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
            a, c, b = _part_blocks(s, _whole_space(s), 0)
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


def _commute(group, x, y):
    return int(group.mul(x, y)) == int(group.mul(y, x))


def _maximal_oracle(group):
    """Brute force over every element in index order: an involution that is
    not yet in H and commutes with every element of H doubles H to H u tH."""
    h = [group.identity]
    for t in range(group.order):
        if t not in h and int(group.mul(t, t)) == group.identity and all(_commute(group, t, x) for x in h):
            h += [int(group.mul(t, x)) for x in h]
    return h


def _part_basis(group, h, k):
    """Columns w_x = sum_j eps_k(h_j) e_(h_j x) / sqrt|H| over the representatives
    x = min Hx, ascending, from the definitions."""
    scale = np.sqrt(1.0 / len(h))
    reps = [x for x in range(group.order) if x == min(int(group.mul(t, x)) for t in h)]
    w = np.zeros((group.order, len(reps)))
    for col, x in enumerate(reps):
        for eps, t in zip(_sign_characters(len(h))[k], h):
            w[int(group.mul(t, x)), col] += eps * scale
    return w


def _inversion_basis(group, h, k):
    """Orthonormal J-even and J-odd columns of part k, from the definitions:
    w_g = sum_j eps_k(h_j) e_(h_j g) / sqrt|H| for every g; over the
    representatives x = min Hx, a pair x < rep(x^-1) gives (w_x +- w_x^-1)/sqrt2,
    and a fixed point x = rep(x^-1) gives w_x, J-odd exactly when w_x + w_x^-1 = 0."""
    n, scale, signs = group.order, np.sqrt(1.0 / len(h)), _sign_characters(len(h))[k]

    def w(g):
        v = np.zeros(n)
        for eps, t in zip(signs, h):
            v[int(group.mul(t, g))] += eps * scale
        return v

    def rep(g):
        return min(int(group.mul(t, g)) for t in h)

    even_pairs, odd_pairs, even_fixed, odd_fixed = [], [], [], []
    for x in (x for x in range(n) if x == rep(x)):
        y = int(group.inv(x))
        if x < rep(y):
            even_pairs.append((w(x) + w(y)) * np.sqrt(0.5))
            odd_pairs.append((w(x) - w(y)) * np.sqrt(0.5))
        elif x == rep(y):
            (even_fixed if np.abs(w(x) + w(y)).max() > 0 else odd_fixed).append(w(x))
    even = np.array(even_pairs + even_fixed).reshape(-1, n).T
    odd = np.array(odd_pairs + odd_fixed).reshape(-1, n).T
    return even, odd


S6 = '["(1 2 3 4 5 6)", "(1 2)"]'


def _rank_seven():
    """D4 x (Z/2)^5, the group (1 2 3 4), (1 3), (5 6), ..., (13 14) generate, of
    order 256 and 2-rank 7, as a table: (d, v)(d', v') = (dd', v xor v') at
    index 32 d + v.  A permutation closure takes at most 8 points."""
    d4, v = make_group("dihedral(4)"), np.arange(32)
    d = np.arange(8)
    table = (32 * d4.mul(d[:, None, None, None], d[None, None, :, None]) + (v[None, :, None, None] ^ v[None, None, None, :]))
    return TableGroup(table.reshape(256, 256), name="D4 x (Z/2)^5")


class TestInvolutionSplit:
    """Every dense solve runs on the parts of a maximal elementary abelian
    2-subgroup H of left translations; on an abelian group H = {x : x^2 = e}."""

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
            z = _central_oracle(group)
            if z is not None:
                x = int(rng.integers(n))
                cases.append(GroupSubset.singleton(group, z))
                cases.append(GroupSubset.from_indices(group, [group.identity, z]))
                cases.append(GroupSubset.from_indices(group, [x, int(group.mul(z, x))]))
        return cases

    def test_translations_match_the_oracles(self):
        """H is the greedy H of the brute-force scan, elementary abelian and
        extended by no involution; on an abelian group, every x with x^2 = e."""
        # the ranks of dihedral(500), S5 and S6 are 2, 2 and 3; Q8 has the one involution -1
        sizes = {"dihedral(500)": 4, "dihedral(7)": 2, f"permutation_closure({S5})": 4, f"permutation_closure({S6})": 8}
        named = {make_group(d): size for d, size in sizes.items()}
        named[make_group(f"permutation_closure({Q8})")] = 2
        named[_rank_seven()] = 128
        assert _translations(make_group("dihedral(500)")).tolist() == [0, 250, 500, 750]  # r^250, s
        assert _translations(make_group("dihedral(7)")).tolist() == [0, 7]  # s
        abelian = 0
        for group in self._groups() + list(named):
            h = _translations(group).tolist()
            if group.is_abelian:
                abelian += 1
                idx = np.arange(group.order)
                assert sorted(h) == idx[group.mul(idx, idx) == group.identity].tolist()
            assert h == _maximal_oracle(group)
            assert len(h) == named.get(group, len(h)) and len(set(h)) == len(h) and len(h) & (len(h) - 1) == 0
            assert all(int(group.mul(x, x)) == group.identity and _commute(group, x, y) for x in h for y in h)
            assert all(int(group.mul(x, y)) in h for x in h for y in h)
            outside = [t for t in range(group.order) if t not in h and int(group.mul(t, t)) == group.identity]
            assert not any(all(_commute(group, t, x) for x in h) for t in outside)
        assert abelian == 4

    def test_parts_block_diagonalize_delta(self, rng):
        """In the bases w_x built from the definitions for every character of H,
        r^T Delta r is block-diagonal with the gathered parts as its blocks."""
        for group in [make_group(d) for d in ("dihedral(8)", "dihedral(7)", f"permutation_closure({S4})")] + [
            make_group(f"permutation_closure({A4})"),
            make_group(f"permutation_closure({Q8})"),
            _relabeled("dihedral(8)", 8)[0],
        ]:
            classes = group.conjugacy_classes()
            sets = [random_nonempty_subset(group, rng, max_size=group.order // 2), random_symmetric_subset(group, 3, rng)]
            sets.append(GroupSubset.from_indices(group, np.concatenate(classes[1:3])))
            for s in sets:
                split = _split(s)
                h = split.h.tolist()
                assert h == _translations(group).tolist()
                counts, reps = _defined_counts(s, split.h)
                assert split.reps.tolist() == reps and np.array_equal(split.counts, counts)
                r = np.hstack([_part_basis(group, h, k) for k in range(len(h))])
                n, m = group.order, len(reps)
                assert np.abs(r.T @ r - np.eye(n)).max() <= 1e-15
                rotated = r.T @ (np.eye(n) - markov_matrix(s) / s.size) @ r
                expected = np.zeros((n, n))
                for k, c in enumerate(split.counts):
                    expected[k * m : (k + 1) * m, k * m : (k + 1) * m] = np.eye(m) - c / s.size
                assert np.abs(rotated - expected).max() <= 1e-15, (group.name, h)

    def test_matches_full_eigvals_and_three_solves(self, rng):
        kinds = {}
        for s in self._cases(rng):
            n = s.group.order
            report = laplace_spectrum_dense(s)
            lam1, star = _three_solves(s)
            _, summary_lam1, summary_star = spectra._dense_gaps(s, full=False)
            if _gathered_closure(s) or s.is_symmetric:
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
            key = (_translations(s.group).size > 1, s.group.is_abelian, s.is_symmetric)
            kinds[key] = kinds.get(key, 0) + 1
        # every group here has an involution, so every set is split: abelian or
        # not, symmetric or not
        assert all(kinds.get((True, abelian, symmetric), 0) >= 3 for abelian in (0, 1) for symmetric in (0, 1))
        assert all(split for split, _, _ in kinds)

    def test_rank_seven_counts_overflow_int8(self):
        """|H| = 128 on D4 x (Z/2)^5: S = H u {x} puts |S n Hy| = 128 into the
        trivial part, one past int8, so the counts take int16."""
        group = _rank_seven()
        assert group.order == 256
        h = _translations(group)
        x = next(x for x in range(group.order) if not _gathered_closure(GroupSubset.from_indices(group, [*h, x])))
        s = GroupSubset.from_indices(group, [*h, x])
        split = _split(s)
        assert split.h.size == 128 and split.reps.size == 2
        assert split.counts.dtype == np.int16 and split.counts.max() == 128
        counts, _ = _defined_counts(s, split.h)
        assert np.array_equal(split.counts, counts)
        report = laplace_spectrum_dense(s)
        lam1, star = _three_solves(s)
        assert abs(report.lambda1 - lam1) <= 1e-12
        assert np.abs(report.star_eigenvalues - star).max() <= 1e-12
        delta = np.eye(group.order) - markov_matrix(s) / s.size
        for k in (1, 2, 3):
            assert abs((report.eigenvalues**k).sum() - np.trace(np.linalg.matrix_power(delta, k))) <= 1e-12 * 256

    def test_fixed_points_of_the_halves(self):
        """cyclic(32): z = 16, the pairs {p, 16 - p} for p = 1..7, and the
        fixed points 0 (an involution) and 8 (8 + 8 = z, J-odd on the odd
        half).  Q8: every representative is fixed, and i, j, k are J-odd on
        the odd half."""
        s = GroupSubset.from_indices(make_group("cyclic(32)"), [1])
        split = _split(s)
        assert [b.shape for b in _part_blocks(s, split, 0)] == [(9, 9), (7, 7), (9, 7)]
        assert [b.shape for b in _part_blocks(s, split, 1)] == [(8, 8), (8, 8), (8, 8)]
        q8 = make_group(f"permutation_closure({Q8})")
        x = int(np.flatnonzero(q8.mul(np.arange(8), np.arange(8)) != q8.identity)[0])
        s = GroupSubset.from_indices(q8, [x, int(q8.inv(x))])
        split = _split(s)
        assert [b.shape for b in _part_blocks(s, split, 0)] == [(4, 4), (0, 0)]
        assert [b.shape for b in _part_blocks(s, split, 1)] == [(1, 1), (3, 3)]

    def test_rotated_halves_reassemble_delta(self, rng):
        """In the basis built from the definitions, each part of Delta is
        [[A, B], [-B^T, C]] with A and C symmetric, and the parts do not couple.
        H is {e, 16} on cyclic(32) and {e, -1} on Q8, and has order 16 on
        abelian_product([2, 2, 2, 4])."""
        cases = []
        for descriptor in ("cyclic(32)", "abelian_product([2, 2, 2, 4])"):
            group = make_group(descriptor)
            cases += [GroupSubset.singleton(group, 1), random_nonempty_subset(group, rng, max_size=16)]
            cases.append(random_symmetric_subset(group, 3, rng))
        q8 = make_group(f"permutation_closure({Q8})")
        cases += [GroupSubset.from_indices(q8, c) for c in q8.conjugacy_classes()[1:]]
        for s in cases:
            group, n = s.group, s.group.order
            assert _gathered_closure(s)
            split = _split(s)
            h = split.h.tolist()
            assert len(h) == (16 if group.name == "abelian_product(2x2x2x4)" else 2)
            delta = np.eye(n) - markov_matrix(s) / s.size
            columns = []
            for part in range(len(h)):
                a, c, *coupling = _part_blocks(s, split, part)
                b = coupling[0] if coupling else np.zeros((a.shape[0], c.shape[0]))
                assert np.array_equal(a, a.T) and np.array_equal(c, c.T)
                assert bool(coupling) != s.is_symmetric
                r = np.hstack(_inversion_basis(group, h, part))
                assert np.abs(r.T @ delta @ r - np.block([[a, b], [-b.T, c]])).max() <= 1e-15
                columns.append(r)
            r = np.hstack(columns)
            assert np.abs(r.T @ r - np.eye(n)).max() <= 1e-15
            m = n // len(h)
            rotated = r.T @ delta @ r
            for part in range(len(h)):
                rotated[part * m : (part + 1) * m, part * m : (part + 1) * m] = 0.0
            assert np.abs(rotated).max() <= 1e-15


class TestAbelianStacks:
    """On an abelian group H is every x with x^2 = e, so |H| can be large and
    its parts small: the inversion split sums four counts of up to |H| each, and
    parts with the same signs on the J-fixed points are solved as one stack."""

    def test_four_sums_of_counts_fit_the_dtype(self, rng):
        """|H| = 32 or 64 and a coset meeting S in 32 elements: the trivial part's
        A block sums four counts of 32, one past int8, so the counts take int16."""
        z2_5, z2_6 = make_group("abelian_product([2, 2, 2, 2, 2])"), make_group("abelian_product([2, 2, 2, 2, 2, 2])")
        z2_4z4 = make_group("abelian_product([2, 2, 2, 2, 4])")
        cases = [GroupSubset.full(z2_5), GroupSubset.full(z2_4z4)]
        cases += [GroupSubset.from_indices(z2_6, rng.choice(64, size=32, replace=False)) for _ in range(2)]
        cases += [GroupSubset.from_indices(z2_4z4, rng.choice(64, size=40, replace=False)) for _ in range(2)]
        assert any(not s.is_symmetric for s in cases)
        for s in cases:
            split = _split(s)
            assert split.h.size >= 32 and split.counts.dtype == np.int16
            report = laplace_spectrum_dense(s)
            assert multiset_distance(report.eigenvalues, _full_eigvals(s)) <= 1e-12, s
            lam1, star = _three_solves(s)
            assert abs(report.lambda1 - lam1) <= 1e-12
            assert np.abs(report.star_eigenvalues - star).max() <= 1e-12

    def test_layout_matches_the_definitions(self):
        """x^-1 = h_j reps[q[x]] for every representative x, and column x of the
        signs is eps_k(h_j) for every part k."""
        for descriptor in ("cyclic(32)", "abelian_product([2, 2, 2, 4])", "abelian_product([4, 4, 2])"):
            group = make_group(descriptor)
            split = _split(GroupSubset.full(group))
            q, signs = _inversion_layout(group, split)
            h, characters = split.h.tolist(), _sign_characters(split.h.size)
            assert signs.shape == (len(h), split.reps.size)
            for x, inverse in enumerate(group.inv(split.reps).tolist()):
                j = next(j for j, t in enumerate(h) if int(group.mul(t, split.reps[q[x]])) == inverse)
                assert np.array_equal(signs[:, x], characters[:, j])

    @pytest.mark.parametrize(
        "descriptor, spec",
        [
            ("cyclic(1000)", "symmetric_random(10)"),
            ("abelian_product([2, 2, 300])", "symmetric_random(12)"),
            ("abelian_product([12, 15])", "symmetric_random(10)"),
            ("abelian_product([2, 2, 2, 2, 2, 3])", "symmetric_random(8)"),
            ("cyclic(12)", "symmetric_random(3)"),
        ],
    )
    def test_symmetric_sets_read_g3_as_g2_transposed(self, descriptor, spec):
        """The A and C blocks of a symmetric S, which take G3 = G2^T, are
        bit-identical to those built from a third gather of the counts (the
        blocks of the same S read as non-symmetric), and that B vanishes."""
        group = make_group(descriptor)
        for seed in range(5):
            s = resolve_subset(group, spec, seed)
            split = _split(s)
            gathered = SimpleNamespace(size=s.size, is_symmetric=False)
            for part in range(split.h.size):
                blocks = list(_inversion_blocks(s, *_part(s, split, part)))
                a, c, b = _inversion_blocks(gathered, *_part(s, split, part))
                assert len(blocks) == 2 and np.array_equal(blocks[0], a) and np.array_equal(blocks[1], c)
                assert not b.any()

    def test_stacks_match_one_part_at_a_time(self, monkeypatch, rng):
        """The stacked solves give every part the eigenvalues it has alone, with
        the default stacks and with stacks and product indices of at most 8 cells,
        which cut the rows of one h and the parts that share their signs."""
        for descriptor in ("abelian_product([2, 2, 2, 3])", "abelian_product([2, 2, 2, 4])", "abelian_product([4, 4, 4])"):
            group = make_group(descriptor)
            sets = [random_symmetric_subset(group, 3, rng)]
            sets += [random_nonempty_subset(group, rng, max_size=group.order // 2) for _ in range(2)]
            for s in sets:
                split = _split(s)
                alone = [_split_spectra(s, *_part(s, split, part))[0] for part in range(split.h.size)]
                assert all(values is not None for values in alone)
                counts, _ = _defined_counts(s, split.h)
                for cells in (spectra._GATHER_CELLS, 8):
                    monkeypatch.setattr(spectra, "_GATHER_CELLS", cells)
                    assert np.array_equal(_split(s).counts, counts)
                    assert np.abs(_abelian_spectrum(s, split) - np.concatenate(alone)).max() <= 1e-13, s


class TestDenseAllocation:
    """The dense path allocates less than one float n x n operator."""

    @pytest.mark.parametrize(
        "descriptor, spec",
        [("cyclic(1200)", "random(12)"), ("cyclic(1000)", "symmetric_random(10)"), ("dihedral(500)", "symmetric_random(8)")],
    )
    def test_peak_below_one_dense_operator(self, descriptor, spec):
        group = make_group(descriptor)
        s = resolve_subset(group, spec, 0)
        tracemalloc.start()
        try:
            laplace_spectrum_dense(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < group.order**2 * 8


class TestDenseBudget:
    """The dense path refuses a part whose gathers exceed the dense budget before it allocates."""

    def test_budget_counts_one_half(self, monkeypatch):
        """cyclic(100) random(5) is abelian: the int8 counts of both halves of z = 50,
        one int32 product index over the rows of both halves and one float half,
        2 + 8 + 8 bytes a cell of 50 x 50."""
        s = resolve_subset(make_group("cyclic(100)"), "random(5)", 0)
        needed = 18 * 50 * 50
        monkeypatch.setattr(groups, "DENSE_BYTES_BUDGET", needed)
        laplace_spectrum_dense(s)
        monkeypatch.setattr(groups, "DENSE_BYTES_BUDGET", needed - 1)
        with pytest.raises(GroupTooLarge, match="dense budget"):
            laplace_spectrum_dense(s)

    def test_budget_counts_the_quarters(self, monkeypatch):
        """dihedral(8) {r, r^-1, s} is nonabelian: the counts of the four quarters of
        H = {e, r^4, s, s r^4} (int8), one int32 product index over the rows of all
        four and the float stack of all four, 4 + 16 + 32 bytes a cell of 4 x 4."""
        s = GroupSubset.from_indices(make_group("dihedral(8)"), [1, 7, 8])
        assert s.is_symmetric and not s.group.is_abelian
        monkeypatch.setattr(groups, "DENSE_BYTES_BUDGET", 52 * 4 * 4)
        laplace_spectrum_dense(s)
        monkeypatch.setattr(groups, "DENSE_BYTES_BUDGET", 52 * 4 * 4 - 1)
        with pytest.raises(GroupTooLarge, match="dense budget"):
            laplace_spectrum_dense(s)

    def test_variational_lambda1_checks_the_budget(self, monkeypatch):
        """The Hermitian copy of an n x n operator is refused before it is built."""
        delta = _laplacian(markov_matrix(GroupSubset.from_indices(make_group("cyclic(12)"), [1, 5])), 2)
        expected = variational_lambda1(delta)
        monkeypatch.setattr(groups, "DENSE_BYTES_BUDGET", 12 * 12 * 8)
        assert variational_lambda1(delta) == expected
        monkeypatch.setattr(groups, "DENSE_BYTES_BUDGET", 12 * 12 * 8 - 1)
        with pytest.raises(GroupTooLarge, match=r"Hermitian part of a 12 x 12 operator"):
            variational_lambda1(delta)

    def test_large_group_exits_2_under_an_address_space_limit(self, tmp_path):
        """cyclic(100003) random(50) has no central involution: one 100003-wide
        part, whose first gather alone was a 9.31 GiB int32 array.  The child
        runs under its own 3 GiB address-space limit, so a missing guard fails
        here with a MemoryError rather than taking the machine's memory."""
        resource = pytest.importorskip("resource")
        config = tmp_path / "large.cfg"
        config.write_text("group = cyclic(100003)\nset = random(50)\n")
        limit = 3 * 2**30

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = Path(spectra.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "cayleygap.cli", "spectrum", "--config", str(config)],
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
            capture_output=True,
            text=True,
            preexec_fn=cap,
            timeout=120,
        )
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert result.stderr.startswith("error: dense spectrum of cyclic(100003)")
        assert result.stderr.count("\n") == 1

    def test_weighted_markov_is_refused_before_it_allocates(self):
        """The pair bound's measured side builds the n x n weights of B1 * B2:
        74.5 GiB on cyclic(100003), refused before any O(n) array is built."""
        group = make_group("cyclic(100003)")
        b1, b2 = GroupSubset.from_indices(group, [1, 2]), GroupSubset.from_indices(group, [3])
        with pytest.raises(GroupTooLarge, match=r"dense Markov weights of cyclic\(100003\)"):
            verify_exceptional_bound_pair(b1, b2, 1, 0)
        weights = convolve(b1.indicator(), b2.indicator())
        tracemalloc.start()
        try:
            with pytest.raises(GroupTooLarge):
                markov_of_function(weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _greedy_oracle(a, b) -> float:
    """The former per-eigenvalue greedy loop of multiset_distance, kept as the oracle."""
    a, b = multiset_key(a), multiset_key(b)
    if a.size != b.size:
        return float("inf")
    used = np.zeros(b.size, dtype=bool)
    worst = 0.0
    for x in a:
        dist = np.abs(b - x)
        dist[used] = np.inf
        j = int(np.argmin(dist))
        used[j] = True
        worst = max(worst, float(dist[j]))
    return worst


def _planted_spectrum(rng, n: int) -> np.ndarray:
    """Random spectrum with repeated values, conjugate pairs and runs of equal real part."""
    values = np.round(rng.normal(size=n) + 1j * rng.normal(size=n), int(rng.integers(1, 4)))  # rounding plants ties
    values.real[rng.random(n) < 0.3] = values.real[0]  # a run of equal real part
    values.imag[rng.random(n) < 0.3] = 0.0
    values = np.repeat(values, rng.integers(1, 4, size=n))  # multiplicities
    return np.concatenate((values, values[rng.random(values.size) < 0.5].conj()))


class TestMultisetDistance:
    """Component-batched matching gives exactly the whole-array greedy's result."""

    @pytest.mark.parametrize("scale", [0.0, 1e-15, 1e-12, 1e-9, 5e-7, 1e-5, 1e-2])
    def test_planted_spectra_match_greedy_loop(self, scale, rng):
        for _ in range(60):
            a = _planted_spectrum(rng, int(rng.integers(1, 25)))
            b = rng.permutation(a + scale * (rng.normal(size=a.size) + 1j * rng.normal(size=a.size)))
            assert multiset_distance(a, b) == _greedy_oracle(a, b)
            assert multiset_distance(b, a) == _greedy_oracle(b, a)

    @pytest.mark.parametrize("spacing, spread", [(1e-9, 1e-7), (0.1, 1.0)])
    def test_shared_real_grid_matches_greedy_loop(self, spacing, spread, rng):
        """Both spectra take their real parts from one grid, and the imaginary
        parts spread wider than its spacing, so nearest partners cross real values:
        within one component at 1e-9, across components (whole-array greedy) at 0.1."""
        for _ in range(60):
            real = rng.integers(0, 4, size=int(rng.integers(2, 30))) * spacing
            a = real + 1j * spread * rng.normal(size=real.size)
            b = rng.permutation(real) + 1j * spread * rng.normal(size=real.size)
            assert multiset_distance(a, b) == _greedy_oracle(a, b)

    def test_cyclic1200_near_tie(self):
        """At seed 3 a lexicographic pairing of the two paths is off by about 1;
        the greedy pairs them within roundoff."""
        s = resolve_subset(make_group("cyclic(1200)"), "random(12)", 3)
        dense, blocks = laplace_spectrum_dense(s).eigenvalues, laplace_spectrum_blocks(s).eigenvalues
        assert np.abs(multiset_key(dense) - multiset_key(blocks)).max() > 1.0
        assert multiset_distance(dense, blocks) == _greedy_oracle(dense, blocks) < 1e-12

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ([0, 1e-9 + 5e-7j], [5e-7j, 1e-9], 1e-9),  # nearest partner across a real-part gap below 1e-6
            ([0, 2 + 10j], [2, 10j], 2.0),  # components pick 10 each: the whole-array greedy decides
            ([0, 1], [0, 1, 2], float("inf")),
            ([], [], 0.0),
        ],
    )
    def test_hand_cases(self, a, b, expected):
        assert multiset_distance(a, b) == _greedy_oracle(a, b) == expected

    @pytest.mark.parametrize(
        "a, b", [([np.nan, 1], [1, 2]), ([1, np.nan], [np.nan, 1]), ([np.inf, 0], [0, 1]), ([1j * np.nan], [0])]
    )
    def test_non_finite_takes_the_greedy_loop(self, a, b):
        with np.errstate(invalid="ignore"):
            assert multiset_distance(a, b) == _greedy_oracle(a, b)


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
