"""Laplace and Markov operators of Cayley graphs and their spectra.

Two independent eigenvalue paths give whole spectra: a dense eigendecomposition
of the |G| x |G| operator, and a block path through the representation catalog
where each irrep contributes its d x d Fourier block with multiplicity d.  The
first nontrivial eigenvalue is reported variationally, as the minimum of the
quadratic form of the Hermitian part on the mean-zero subspace, which keeps it
well defined for non-symmetric generating sets.

The dense path needs no n x n solve when S is closed under conjugation (every
set in an abelian group, every union of classes): the inversion J f = f o inv
then satisfies J M J = M^T, and in the basis of J-even and J-odd vectors Delta
splits into two half-size symmetric blocks and a skew coupling, read straight
from the group law.  The coupling, rotated into the blocks' eigenvectors,
lives in clusters of equal real part; each cluster is a small block, and a
Bauer-Fike certificate on the dropped remainder falls back to one n x n solve
above 1e-9, as does a symmetric set that is not closed.  Either way the
spectrum mu of Delta gives the variational gap (min Re mu) and the star
spectrum 1 - |1 - mu|^2 too.  Any other set solves the star operator and the
Hermitian part.  The block path solves each stack of equal-dimension blocks in
one batched call.

The scalar queries ``lambda1``, ``lambda1_star`` and ``set_norm`` read one
memoized per-subset ``SpectralSummary``.  On a cataloged group it takes the
Fourier coefficients once (FFTs over the cyclic factors) and reads the gap and
the norm from the same nontrivial blocks; only where no catalog exists does it
diagonalize the dense operator.  ``laplace_spectrum_dense`` reads neither the
summary nor the catalog, so it stays an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptySet, KZero, NotCataloged
from .groups import GroupFunction, GroupSubset, iterated_convolution
from .representations import irrep_catalog, operator_norms

_CLUSTER_GAP = 1e-6  # eigenvalues closer than this along the real axis share a cluster
_SPLIT_TOL = 1e-9  # largest certified error of the inversion-split spectrum


def markov_matrix(s: GroupSubset) -> np.ndarray:
    """Adjacency operator M(x, y) = S(x^-1 y) of the Cayley graph; rows sum to |S|."""
    if s.size == 0:
        raise EmptySet("Markov matrix of the empty set")
    return markov_of_function(s.indicator())


def markov_of_function(f: GroupFunction) -> np.ndarray:
    """Weighted adjacency M(x, y) = F(x^-1 y) for an arbitrary function F,
    scattered from the group law: row x holds F(s) at column x s for every s
    in the support of F (every entry whose bytes are not +0.0, so a -0.0
    weight lands too).  No n x n index is built."""
    group = f.group
    idx = group._indices()[:, None]
    values = np.ascontiguousarray(f.values if f.values.dtype.kind == "c" else f.values.astype(np.float64))
    supp = np.flatnonzero(values.view(np.uint8).reshape(values.size, -1).any(axis=1))
    m = np.zeros((group.order, group.order), dtype=values.dtype)
    m[idx, group.mul(idx, supp[None, :])] = values[supp]
    return m


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
    return np.cumsum(np.diff(arr, prepend=arr[:1]) > _CLUSTER_GAP)


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
        if np.abs(eig.imag).max(initial=0.0) < 1e-9:  # a real spectrum gets cluster ids
            sorted_real = np.sort(eig.real)
            pos = np.minimum(np.searchsorted(sorted_real, eig.real), eig.size - 1)
            clusters = cluster_eigenvalues(sorted_real)[pos].tolist()
        else:
            clusters = [-1] * eig.size
        return [
            {
                "index": j,
                "eigenvalue_re": float(value.real),
                "eigenvalue_im": float(value.imag),
                "star_eigenvalue": float(star),
                "cluster": cluster,
                "path": self.path,
            }
            for j, (value, star, cluster) in enumerate(zip(eig, self.star_eigenvalues, clusters))
        ]


def _normal_gaps(mu: np.ndarray) -> tuple[float, np.ndarray]:
    """Variational gap and ascending star spectrum of a normal Delta from its
    eigenvalues mu: its Hermitian part has eigenvalues Re mu (less one copy of
    the trivial 0) and I - M M^T/|S|^2 has 1 - |1 - mu|^2."""
    rest = np.delete(mu, np.argmin(np.abs(mu)))
    return float(rest.real.min()) if rest.size else 0.0, np.sort(1.0 - np.abs(1.0 - mu) ** 2)


def _conjugation_closed(s: GroupSubset) -> bool:
    """Exact test that g^-1 S g lies in S for every g in G: it is enough for each
    generator, since (gh)^-1 S gh = h^-1 (g^-1 S g) h."""
    group = s.group
    gens = group.generators[:, None]
    return bool(s.membership[group.mul(group.mul(group.inv(gens), s.indices[None, :]), gens)].all())


def _inversion_blocks(s: GroupSubset):
    """Yield A, then C, then B (only for a non-symmetric S; it vanishes for a
    symmetric one) of R^T Delta R = [[A, B], [-B^T, C]] for a conjugation-closed S.

    J f = f o inv satisfies J M J = M^T when S is closed under conjugation.  R
    is the orthonormal basis of J-even vectors, (e_p + e_p^-1)/sqrt2 for the
    pairs p < p^-1 followed by e_t for the t = t^-1, then J-odd vectors
    (e_p - e_p^-1)/sqrt2.  The entries are int8 counts, gathered from the
    membership at products of the representatives: G1 = |S| M(x, y), G2 = |S|
    M(x, y^-1) and G3 = |S| M(x^-1, y), with M(x^-1, y^-1) = G1^T by the
    closure, divided by |S| and the norms of the two basis vectors (sqrt2 for a
    pair, 2 for an even fixed point).  Each float block is built only when the
    caller asks for the next, so a solved block can be freed first."""
    group = s.group
    idx = group._indices()
    inverse = group.inv(idx)
    pairs = np.flatnonzero(idx < inverse)
    reps = np.concatenate((pairs, np.flatnonzero(idx == inverse))).astype(idx.dtype)[:, None]
    k = pairs.size
    member = s.membership
    g1 = member[group.mul(inverse[reps], reps.T)]
    g2 = member[group.mul(inverse[reps], inverse[reps].T)]
    g3 = member[group.mul(reps, reps.T)]
    a = (g1 + g1.T + g2 + g3) / (-2.0 * s.size)
    a[:k, k:] /= np.sqrt(2.0)
    a[k:, :k] /= np.sqrt(2.0)
    a[k:, k:] /= 2.0
    a.flat[:: reps.size + 1] += 1.0
    yield a
    del a
    c = (g1 + g1.T - g2 - g3)[:k, :k] / (-2.0 * s.size)
    c.flat[:: k + 1] += 1.0
    yield c
    del c
    if not s.is_symmetric:
        b = (g1.T - g1 + g2 - g3)[:, :k] / (2.0 * s.size)
        b[k:] /= np.sqrt(2.0)
        yield b


def _coupled_spectrum(lam_e: np.ndarray, lam_o: np.ndarray, w: np.ndarray) -> np.ndarray | None:
    """Eigenvalues of the normal N = [[diag lam_e, W], [-W^T, diag lam_o]], or None.

    Its symmetric and skew parts commute, so (lam_e[i] - lam_o[j]) W[i, j] = 0
    and W lives inside clusters of equal real part (``cluster_eigenvalues``).
    Each cluster's block is solved, one batched ``eigvals`` per block size; a
    one-element cluster is its own eigenvalue.  Dropping W outside the clusters
    is a perturbation of 2-norm at most its Frobenius norm eps_drop, so by
    Bauer-Fike every returned value lies within eps_drop of an eigenvalue of N.
    Above ``_SPLIT_TOL`` the result is refused (None)."""
    lam = np.concatenate((lam_e, lam_o))
    ne = lam_e.size
    order = np.argsort(lam, kind="stable")
    sorted_labels = cluster_eigenvalues(lam[order])
    labels = np.empty_like(sorted_labels)
    labels[order] = sorted_labels
    if np.linalg.norm(np.where(labels[:ne, None] != labels[None, ne:], w, 0.0)) > _SPLIT_TOL:
        return None
    starts = np.flatnonzero(np.diff(sorted_labels, prepend=-1))
    sizes = np.diff(starts, append=lam.size)
    parts = [lam[order[starts[sizes == 1]]]]
    for size in np.unique(sizes[sizes > 1]):
        members = order[starts[sizes == size][:, None] + np.arange(size)]  # (clusters, size)
        rows, cols = members[:, :, None], members[:, None, :]
        even, odd = np.minimum(rows, cols), np.maximum(rows, cols) - ne  # even indices come first
        mixed = (even < ne) & (odd >= 0)
        coupling = np.where(mixed, w[np.minimum(even, ne - 1), np.maximum(odd, 0)], 0.0)
        block = np.where(rows < cols, coupling, -coupling)
        block[:, np.arange(size), np.arange(size)] = lam[members]
        parts.append(np.linalg.eigvals(block).ravel())
    return np.concatenate(parts).astype(np.complex128)


def _split_spectrum(s: GroupSubset) -> np.ndarray | None:
    """Eigenvalues of Delta for a conjugation-closed S from two half-size
    symmetric solves, or None when the coupling certificate refuses them."""
    blocks = _inversion_blocks(s)
    if s.is_symmetric:
        return np.concatenate(list(map(np.linalg.eigvalsh, blocks))).astype(np.complex128)
    lam_e, q_e = np.linalg.eigh(next(blocks))
    lam_o, q_o = np.linalg.eigh(next(blocks))
    w = q_e.T @ next(blocks) @ q_o
    del q_e, q_o
    return _coupled_spectrum(lam_e, lam_o, w)


def _dense_gaps(s: GroupSubset, full: bool) -> tuple[np.ndarray | None, float, np.ndarray]:
    """Eigenvalues of Delta = I - M/|S| (None unless ``full``), its variational
    gap, and the ascending spectrum of I - M M^T / |S|^2.

    A conjugation-closed set takes the inversion split (``_split_spectrum``).
    Where its certificate refuses, the operator, central and so normal, takes
    one solve of Delta (``eigvals`` only when ``full`` needs it anyway), as a
    symmetric set does; other sets solve the star operator and Hermitian part."""
    closed = _conjugation_closed(s)
    mu = _split_spectrum(s) if closed else None
    if mu is not None:
        return (mu, *_normal_gaps(mu))
    m = markov_matrix(s)
    size = s.size
    delta = _laplacian(m, size)
    symmetric = s.is_symmetric
    if symmetric or (full and closed):
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

    A cataloged group takes its Fourier coefficients once
    (``IrrepCatalog.coefficients``: FFTs over the cyclic factors); over the
    nontrivial blocks B, lambda1 is the least eigenvalue of I - (B + B*)/(2|S|)
    and lambda1* = 1 - max ||B||^2 / |S|^2.  The path reads "fft" on abelian
    groups, whose blocks are 1 x 1, and "blocks" otherwise.  A group without a
    catalog diagonalizes the dense operator.
    """
    if s.size == 0:
        raise EmptySet("spectral summary of the empty set")
    try:
        catalog = irrep_catalog(s.group)
    except NotCataloged:
        _, lam1, star = _dense_gaps(s, full=False)
        return SpectralSummary(lam1, float(star[1]) if star.size > 1 else 0.0, norm=None, path="dense")
    size = s.size
    blocks = catalog.coefficients(s.indicator())
    gaps = np.delete(np.concatenate([_hermitian_gaps(b, size) for b in blocks]), catalog.trivial_index)
    norms = np.delete(np.concatenate([operator_norms(b) for b in blocks]), catalog.trivial_index)
    path = "fft" if s.group.is_abelian else "blocks"
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
    return spectral_summary(s).lambda1


def lambda1_star(s: GroupSubset) -> float:
    """First nontrivial eigenvalue of I - M M^T / |S|^2."""
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
