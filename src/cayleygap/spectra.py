"""Laplace and Markov operators of Cayley graphs and their spectra.

Two independent eigenvalue paths give whole spectra: a dense eigendecomposition
of the |G| x |G| operator, and a block path through the representation catalog
where each irrep contributes its d x d Fourier block with multiplicity d.  The
first nontrivial eigenvalue is reported variationally, as the minimum of the
quadratic form of the Hermitian part on the mean-zero subspace, which keeps it
well defined for non-symmetric generating sets.

The dense path solves one n x n eigenproblem when the operator is certified
normal (``is_normal_operator``): the spectrum mu of Delta then gives the
variational gap (min Re mu) and the star spectrum 1 - |1 - mu|^2 too.  The
block path solves each stack of equal-dimension blocks in one batched call.

The scalar queries ``lambda1``, ``lambda1_star`` and ``set_norm`` read one
memoized per-subset ``SpectralSummary``, computed by the cheapest exact path:
one FFT over the factor orders on cyclic and abelian-product groups, the
nontrivial irrep blocks on other cataloged groups (dihedral), and the dense
operator only where no catalog exists.  ``laplace_spectrum_dense`` reads
neither the summary nor the catalog, so it stays an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptySet, KZero, NotCataloged
from .groups import (
    AbelianProductGroup,
    CyclicGroup,
    GroupFunction,
    GroupSubset,
    iterated_convolution,
)
from .representations import irrep_catalog


def markov_matrix(s: GroupSubset) -> np.ndarray:
    """Adjacency operator M(x, y) = S(x^-1 y) of the Cayley graph; rows sum to |S|."""
    if s.size == 0:
        raise EmptySet("Markov matrix of the empty set")
    return markov_of_function(s.indicator())


def markov_of_function(f: GroupFunction) -> np.ndarray:
    """Weighted adjacency M(x, y) = F(x^-1 y) for an arbitrary function F; the one
    builder of the n x n Cayley index, from the group law on int32 indices."""
    group = f.group
    idx = group._indices()
    values = f.values if f.values.dtype.kind == "c" else f.values.astype(np.float64)
    return values[group.mul(group.inv(idx)[:, None], idx[None, :])]


def variational_lambda1(delta: np.ndarray) -> float:
    """min <Delta f, f> over unit mean-zero f: smallest eigenvalue of the
    Hermitian part restricted to the mean-zero subspace.

    Requires the all-ones vector to be an eigenvector of the Hermitian part,
    as it is for every (weighted) Cayley operator and every regular-graph
    Laplacian; its complement is then invariant and the restricted spectrum
    is the full one less one copy of the row-sum eigenvalue.  That eigenvalue need not be the
    smallest: signed weights can push it above the rest.
    """
    n = delta.shape[0]
    if n == 1:
        return 0.0
    herm = (delta + delta.conj().T) / 2.0
    if np.iscomplexobj(herm) and np.abs(herm.imag).max(initial=0.0) < 1e-12:
        herm = herm.real
    values = np.linalg.eigvalsh(herm)
    trivial = herm.sum().real / n
    return float(np.delete(values, np.argmin(np.abs(values - trivial))).min())


def _laplacian(m: np.ndarray, scale: float) -> np.ndarray:
    """I - m / scale in one new n x n array, byte for byte np.eye(n) - m / scale:
    0.0 - x keeps the +0.0 that np.negative would write as -0.0."""
    delta = m / scale
    np.subtract(0.0, delta, out=delta)
    delta.flat[:: delta.shape[0] + 1] += 1.0
    return delta


def _hermitian_gaps(blocks: np.ndarray, size: int) -> np.ndarray:
    """Smallest eigenvalue of I - (B + B*)/(2|S|) for each Fourier block B of a (k, d, d) stack."""
    herm = np.eye(blocks.shape[1]) - (blocks + blocks.conj().transpose(0, 2, 1)) / (2.0 * size)
    return np.linalg.eigvalsh(herm)[:, 0]


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


def cluster_eigenvalues(values: np.ndarray) -> np.ndarray:
    """Cluster ids over sorted real values; a new cluster starts at a gap > 1e-6."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    labels = np.zeros(arr.size, dtype=np.int64)
    for i in range(1, arr.size):
        labels[i] = labels[i - 1] + (1 if arr[i] - arr[i - 1] > 1e-6 else 0)
    return labels


@dataclass(frozen=True)
class SpectrumReport:
    """Laplace spectrum of a Cayley graph with its singular counterpart."""

    eigenvalues: np.ndarray  # display order: trivial 0 first, rest by modulus
    star_eigenvalues: np.ndarray  # ascending, real
    lambda1: float
    lambda1_star: float
    path: str  # "dense" | "blocks"

    @property
    def order(self) -> int:
        return self.eigenvalues.size

    def rows(self) -> list[dict]:
        """Columnar serialization: one row per eigenvalue index."""
        eig = self.eigenvalues
        real_spectrum = np.abs(eig.imag).max(initial=0.0) < 1e-9
        sorted_real = np.sort(eig.real) if real_spectrum else None
        labels = cluster_eigenvalues(sorted_real) if real_spectrum else None
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


def is_normal_operator(s: GroupSubset) -> bool:
    """Exact certificate that the Markov operator M of s commutes with M^T.

    (M M^T)(x, z) counts the pairs in S x S with s t^-1 = x^-1 z, (M^T M)(y, w)
    those with s^-1 t = y^-1 w; so M is normal exactly when S S^-1 and S^-1 S
    have equal representation counts (O(|S|^2 + n) integer work).
    """
    group = s.group
    elements = s.indices
    inverses = group.inv(elements)
    return np.array_equal(
        np.bincount(group.mul(elements[:, None], inverses[None, :]).ravel(), minlength=group.order),
        np.bincount(group.mul(inverses[:, None], elements[None, :]).ravel(), minlength=group.order),
    )


def _normal_gaps(mu: np.ndarray) -> tuple[float, np.ndarray]:
    """Variational gap and ascending star spectrum of a normal Delta from its
    eigenvalues mu: its Hermitian part has eigenvalues Re mu (less one copy of
    the trivial 0) and I - M M^T/|S|^2 has 1 - |1 - mu|^2."""
    rest = np.delete(mu, np.argmin(np.abs(mu)))
    return float(rest.real.min()) if rest.size else 0.0, np.sort(1.0 - np.abs(1.0 - mu) ** 2)


def _dense_gaps(s: GroupSubset, full: bool) -> tuple[np.ndarray | None, float, np.ndarray]:
    """Eigenvalues of Delta = I - M/|S| (None unless ``full``), its variational
    gap, and the ascending spectrum of I - M M^T / |S|^2.

    A normal operator takes one solve of Delta (``eigvals`` only when ``full``
    needs it anyway); other sets solve the star operator and Hermitian part."""
    m = markov_matrix(s)
    size = s.size
    delta = _laplacian(m, size)
    symmetric = s.is_symmetric
    if symmetric or (full and is_normal_operator(s)):
        del m
        mu = np.linalg.eigvalsh(delta).astype(np.complex128) if symmetric else np.linalg.eigvals(delta)
        return (mu, *_normal_gaps(mu))
    star = np.sort(np.linalg.eigvalsh(_laplacian(m @ m.T, size * size)))
    del m
    return np.linalg.eigvals(delta) if full else None, variational_lambda1(delta), star


def laplace_spectrum_dense(s: GroupSubset) -> SpectrumReport:
    """Spectrum of I - M/|S| by dense eigendecomposition, plus the singular path."""
    if s.size == 0:
        raise EmptySet("spectrum of the empty set")
    eigenvalues, lam1, star = _dense_gaps(s, full=True)
    return SpectrumReport(
        eigenvalues=_display_order(eigenvalues),
        star_eigenvalues=star,
        lambda1=lam1,
        lambda1_star=float(star[1]) if star.size > 1 else 0.0,
        path="dense",
    )


def laplace_spectrum_blocks(s: GroupSubset) -> SpectrumReport:
    """Spectrum assembled from the irrep blocks: each eigenvalue mu of
    Shat(rho)/|S| contributes 1 - mu with multiplicity d_rho."""
    if s.size == 0:
        raise EmptySet("spectrum of the empty set")
    catalog = irrep_catalog(s.group)
    size = s.size
    eig_parts, star_parts, gaps = [], [], []
    for blocks in catalog.coefficients(s.indicator()):  # one batched solve per stack
        d = blocks.shape[1]
        mus = np.linalg.eigvals(blocks / size)
        star_mus = np.linalg.eigvalsh(blocks @ blocks.conj().transpose(0, 2, 1) / (size * size))
        eig_parts.append(np.repeat(1.0 - mus, d, axis=0).ravel())
        star_parts.append(np.repeat(1.0 - star_mus, d, axis=0).ravel())
        gaps.append(_hermitian_gaps(blocks, size))
    eigenvalues = np.concatenate(eig_parts)
    star = np.sort(np.concatenate(star_parts).real)
    gaps = np.delete(np.concatenate(gaps), catalog.trivial_index)
    return SpectrumReport(
        eigenvalues=_display_order(eigenvalues),
        star_eigenvalues=star,
        # the mean-zero subspace is the sum of the nontrivial isotypic components,
        # so the variational gap is the smallest Hermitian-part eigenvalue there
        lambda1=float(gaps.min()) if gaps.size else 0.0,
        lambda1_star=float(star[1]) if star.size > 1 else 0.0,
        path="blocks",
    )


@dataclass(frozen=True)
class SpectralSummary:
    """The scalar spectral quantities of one nonempty subset.

    ``norm`` is the largest nontrivial Fourier-coefficient operator norm; the
    dense path has no catalog to take it from and leaves it None.
    """

    lambda1: float
    lambda1_star: float
    norm: float | None
    path: str  # "fft" | "blocks" | "dense"


@lru_cache(maxsize=128)
def spectral_summary(s: GroupSubset) -> SpectralSummary:
    """lambda1, lambda1* and the largest nontrivial norm, computed once per subset.

    Cyclic and abelian-product groups take one FFT of the membership vector
    reshaped to the factor orders (the mixed-radix index is C-order); over the
    nontrivial coefficients lambda1 = 1 - max Re Shat / |S| and
    lambda1* = 1 - max |Shat|^2 / |S|^2.  Other cataloged groups take the
    Hermitian parts and operator norms of their nontrivial irrep blocks.
    Everything else diagonalizes the dense operator.
    """
    if s.size == 0:
        raise EmptySet("spectral summary of the empty set")
    group = s.group
    size = s.size
    if isinstance(group, (CyclicGroup, AbelianProductGroup)):
        shape = getattr(group, "factor_orders", (group.order,))
        coeffs = np.fft.fftn(s.membership.reshape(shape)).ravel()[1:]
        gaps = 1.0 - coeffs.real / size
        norms = np.abs(coeffs)
        path = "fft"
    else:
        try:
            catalog = irrep_catalog(group)
        except NotCataloged:
            _, lam1, star = _dense_gaps(s, full=False)
            return SpectralSummary(lam1, float(star[1]) if star.size > 1 else 0.0, norm=None, path="dense")
        f = s.indicator()
        gaps = np.delete(
            np.concatenate([_hermitian_gaps(b, size) for b in catalog.coefficients(f)]), catalog.trivial_index
        )
        norms = np.delete(catalog.norms(f), catalog.trivial_index)
        path = "blocks"
    if norms.size == 0:  # the trivial group has no nontrivial irrep
        return SpectralSummary(lambda1=0.0, lambda1_star=0.0, norm=0.0, path=path)
    norm = float(norms.max())
    return SpectralSummary(
        lambda1=float(gaps.min()),
        lambda1_star=1.0 - norm**2 / size**2,
        norm=norm,
        path=path,
    )


def lambda1(s: GroupSubset) -> float:
    """Variational first nontrivial eigenvalue of the Cayley Laplacian."""
    if s.size == 0:
        raise EmptySet("lambda1 of the empty set")
    return spectral_summary(s).lambda1


def lambda1_star(s: GroupSubset) -> float:
    """First nontrivial eigenvalue of I - M M^T / |S|^2."""
    if s.size == 0:
        raise EmptySet("lambda1_star of the empty set")
    return spectral_summary(s).lambda1_star


def lambda1_of_function(f: GroupFunction) -> float:
    """Variational gap of the weighted Cayley operator I - M_F / ||F||_1."""
    mass = f.l1_norm
    if mass == 0:
        raise EmptySet("lambda1 of a zero-mass function")
    return variational_lambda1(_laplacian(markov_of_function(f), mass))


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
