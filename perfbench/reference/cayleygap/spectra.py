"""Laplace and Markov operators of Cayley graphs and their spectra.

Two independent eigenvalue paths: a dense eigendecomposition of the |G| x |G|
operator, and a block path through the representation catalog where each irrep
contributes its d x d Fourier block with multiplicity d.  The first nontrivial
eigenvalue is always reported variationally, as the minimum of the quadratic
form of the Hermitian part on the mean-zero subspace, which keeps it well
defined for non-symmetric generating sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySet, KZero
from .groups import GroupFunction, GroupSubset, iterated_convolution
from .representations import IrrepCatalog, fourier_transform, irrep_catalog

_mean_zero_cache: dict[int, np.ndarray] = {}


def mean_zero_basis(n: int) -> np.ndarray:
    """Orthonormal basis (n x (n-1)) of the subspace of zero-sum vectors."""
    basis = _mean_zero_cache.get(n)
    if basis is None:
        _, _, vh = np.linalg.svd(np.ones((1, n)))
        basis = np.ascontiguousarray(vh[1:].T)
        basis.flags.writeable = False
        _mean_zero_cache[n] = basis
    return basis


def markov_matrix(s: GroupSubset) -> np.ndarray:
    """Adjacency operator M(x, y) = S(x^-1 y) of the Cayley graph; rows sum to |S|."""
    if s.size == 0:
        raise EmptySet("Markov matrix of the empty set")
    return s.membership[s.group.conv_index].astype(np.float64)


def markov_of_function(f: GroupFunction) -> np.ndarray:
    """Weighted adjacency M(x, y) = F(x^-1 y) for an arbitrary function F."""
    values = f.values
    if values.dtype.kind == "c":
        return values[f.group.conv_index]
    return values.astype(np.float64)[f.group.conv_index]


def variational_lambda1(delta: np.ndarray) -> float:
    """min <Delta f, f> over unit mean-zero f: smallest eigenvalue of the
    Hermitian part restricted to the mean-zero subspace."""
    n = delta.shape[0]
    if n == 1:
        return 0.0
    herm = (delta + delta.conj().T) / 2.0
    basis = mean_zero_basis(n)
    reduced = basis.conj().T @ herm @ basis
    if np.abs(reduced.imag).max(initial=0.0) < 1e-12:
        reduced = reduced.real
    return float(np.linalg.eigvalsh(reduced)[0])


def _display_order(eigenvalues: np.ndarray) -> np.ndarray:
    """Trivial eigenvalue (nearest 0) first, the rest sorted by modulus."""
    trivial = int(np.argmin(np.abs(eigenvalues)))
    rest = np.delete(eigenvalues, trivial)
    order = np.lexsort((rest.imag, rest.real, np.abs(rest)))
    return np.concatenate(([eigenvalues[trivial]], rest[order]))


def multiset_key(values: np.ndarray) -> np.ndarray:
    """Canonical ordering for multiset comparison of (possibly complex) spectra."""
    arr = np.asarray(values, dtype=np.complex128)
    return arr[np.lexsort((arr.imag, arr.real))]


def multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Worst-pair distance under greedy nearest matching of two spectra.

    Robust against near-ties where a lexicographic sort would pair wrong
    partners across the two eigenvalue paths.
    """
    a = multiset_key(a)
    b = multiset_key(b)
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


def cluster_eigenvalues(values: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Cluster ids over sorted real values; a new cluster starts at a gap > tol."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    labels = np.zeros(arr.size, dtype=np.int64)
    for i in range(1, arr.size):
        labels[i] = labels[i - 1] + (1 if arr[i] - arr[i - 1] > tol else 0)
    return labels


@dataclass(frozen=True)
class SpectrumReport:
    """Laplace spectrum of a Cayley graph with its singular counterpart."""

    eigenvalues: np.ndarray  # display order: trivial 0 first, rest by modulus
    star_eigenvalues: np.ndarray  # ascending, real
    lambda1: float
    lambda1_star: float
    path: str  # "dense" | "blocks"
    cluster_tol: float = 1e-6

    @property
    def order(self) -> int:
        return self.eigenvalues.size

    def rows(self) -> list[dict]:
        """Columnar serialization: one row per eigenvalue index."""
        eig = self.eigenvalues
        real_spectrum = np.abs(eig.imag).max(initial=0.0) < 1e-9
        sorted_real = np.sort(eig.real) if real_spectrum else None
        labels = cluster_eigenvalues(sorted_real, self.cluster_tol) if real_spectrum else None
        rows = []
        for j in range(self.order):
            value = eig[j]
            if real_spectrum:
                pos = int(np.searchsorted(sorted_real, value.real))
                pos = min(pos, labels.size - 1)
                cluster = int(labels[pos])
            else:
                cluster = -1
            rows.append(
                {
                    "index": j,
                    "eigenvalue_re": float(value.real),
                    "eigenvalue_im": float(value.imag),
                    "star_eigenvalue": float(self.star_eigenvalues[j]),
                    "cluster": cluster,
                    "path": self.path,
                }
            )
        return rows


def laplace_matrix(s: GroupSubset) -> np.ndarray:
    return np.eye(s.group.order) - markov_matrix(s) / s.size


def laplace_spectrum_dense(s: GroupSubset) -> SpectrumReport:
    """Spectrum of I - M/|S| by dense eigendecomposition, plus the singular path."""
    if s.size == 0:
        raise EmptySet("spectrum of the empty set")
    group = s.group
    m = markov_matrix(s)
    size = s.size
    delta = np.eye(group.order) - m / size
    if s.is_symmetric:
        eigenvalues = np.linalg.eigvalsh(delta).astype(np.complex128)
    else:
        eigenvalues = np.linalg.eigvals(delta)
    star_matrix = np.eye(group.order) - (m @ m.T) / (size * size)
    star = np.sort(np.linalg.eigvalsh(star_matrix))
    lam1 = variational_lambda1(delta)
    lam1_star = float(star[1]) if star.size > 1 else 0.0
    return SpectrumReport(
        eigenvalues=_display_order(eigenvalues),
        star_eigenvalues=star,
        lambda1=lam1,
        lambda1_star=lam1_star,
        path="dense",
    )


def laplace_spectrum_blocks(s: GroupSubset, catalog: IrrepCatalog | None = None) -> SpectrumReport:
    """Spectrum assembled from the irrep blocks: each eigenvalue mu of
    Shat(rho)/|S| contributes 1 - mu with multiplicity d_rho."""
    if s.size == 0:
        raise EmptySet("spectrum of the empty set")
    catalog = catalog or irrep_catalog(s.group)
    size = s.size
    indicator = s.indicator()
    eig_parts = []
    star_parts = []
    for rep in catalog:
        block = fourier_transform(indicator, rep).matrix
        mus = np.linalg.eigvals(block / size)
        gram = block @ block.conj().T / (size * size)
        star_mus = np.linalg.eigvalsh(gram)
        for _ in range(rep.dim):
            eig_parts.append(1.0 - mus)
            star_parts.append(1.0 - star_mus)
    eigenvalues = np.concatenate(eig_parts)
    star = np.sort(np.concatenate(star_parts).real)
    # the variational gap needs the Hermitian-part quadratic form; reuse the
    # dense machinery only when the set is symmetric, where blocks determine it
    if s.is_symmetric:
        real_sorted = np.sort(eigenvalues.real)
        lam1 = float(real_sorted[1]) if real_sorted.size > 1 else 0.0
    else:
        lam1 = variational_lambda1(laplace_matrix(s))
    lam1_star = float(star[1]) if star.size > 1 else 0.0
    return SpectrumReport(
        eigenvalues=_display_order(eigenvalues),
        star_eigenvalues=star,
        lambda1=lam1,
        lambda1_star=lam1_star,
        path="blocks",
    )


def lambda1(s: GroupSubset) -> float:
    """Variational first nontrivial eigenvalue of the Cayley Laplacian."""
    if s.size == 0:
        raise EmptySet("lambda1 of the empty set")
    return variational_lambda1(laplace_matrix(s))


def lambda1_star(s: GroupSubset) -> float:
    """First nontrivial eigenvalue of I - M M^T / |S|^2."""
    if s.size == 0:
        raise EmptySet("lambda1_star of the empty set")
    m = markov_matrix(s)
    star_matrix = np.eye(s.group.order) - (m @ m.T) / (s.size * s.size)
    star = np.sort(np.linalg.eigvalsh(star_matrix))
    return float(star[1]) if star.size > 1 else 0.0


def lambda1_of_function(f: GroupFunction) -> float:
    """Variational gap of the weighted Cayley operator I - M_F / ||F||_1."""
    mass = f.l1_norm
    if mass == 0:
        raise EmptySet("lambda1 of a zero-mass function")
    delta = np.eye(f.group.order) - markov_of_function(f) / mass
    return variational_lambda1(delta)


def balanced_function(b: GroupSubset) -> GroupFunction:
    """B(x) - |B|/|G|: the mean-zero shadow of the set."""
    group = b.group
    values = b.membership.astype(np.float64) - b.size / group.order
    return GroupFunction(group, values)


@dataclass(frozen=True)
class WalkEnergyReport:
    """Both sides of the closed-walk identity for the balanced function."""

    k: int
    set_size: int
    group_order: int
    convolution_side: float  # sum_x f_B^(k)(x)^2
    spectral_side: float  # |B|^(2k)/|G| * sum_{j>=1} |1 - lambda_j|^(2k)
    t1_bound: float  # |B|, the strict upper bound for k = 1

    @property
    def relative_gap(self) -> float:
        # the spectral side carries eigensolver roundoff of order
        # |B|^(2k)/|G| * eps, so comparisons are floored at that scale:
        # a full set has both sides numerically zero, not disagreeing
        floor = self.set_size ** (2 * self.k) / self.group_order * 1e-12
        scale = max(abs(self.convolution_side), abs(self.spectral_side), floor, 1e-300)
        return abs(self.convolution_side - self.spectral_side) / scale


def walk_energy(b: GroupSubset, k: int, spectrum: SpectrumReport | None = None) -> WalkEnergyReport:
    """Energy T_k of the balanced function, with the spectral cross-check side.

    The convolution side is sum_x f^(k)(x)^2 computed directly; the spectral
    side counts closed walks of length 2k through the nontrivial eigenvalues.
    """
    if b.size == 0:
        raise EmptySet("walk energy of the empty set")
    if k < 1:
        raise KZero(f"walk energy needs k >= 1, got {k}")
    f = balanced_function(b)
    fk = iterated_convolution(f, k)
    conv_side = float((fk.values.real**2).sum())
    spectrum = spectrum or laplace_spectrum_dense(b)
    nontrivial = spectrum.eigenvalues[1:]  # display order puts the trivial 0 first
    group_order = b.group.order
    spectral_side = float(
        (np.abs(1.0 - nontrivial) ** (2 * k)).sum() * b.size ** (2 * k) / group_order
    )
    return WalkEnergyReport(
        k=k,
        set_size=b.size,
        group_order=group_order,
        convolution_side=conv_side,
        spectral_side=spectral_side,
        t1_bound=float(b.size),
    )
