"""Laplace and Markov operators of Cayley graphs and their spectra.

Two independent eigenvalue paths give whole spectra: a dense eigendecomposition
of the |G| x |G| operator, and a block path through the representation catalog
where each irrep contributes its d x d Fourier block with multiplicity d.  The
first nontrivial eigenvalue is reported variationally, as the minimum of the
quadratic form of the Hermitian part on the mean-zero subspace, which keeps it
well defined for non-symmetric generating sets.

The dense path first splits by a central involution z, where G has one
(every even-order abelian group, dihedral(n) for even n): M commutes with the left
translation L_z, so Delta is block-diagonal on the even and odd halves of L_z,
each of size n/2 and gathered from the group law, and every solve below runs
once per half.  Within a part (a half, or the whole space when there is no z),
a set closed under conjugation (every set in an abelian group, every union of
classes) takes the inversion split: J f = f o inv satisfies J M J = M^T and,
z being central, maps each half to itself, so in the basis of J-even and
J-odd vectors the part splits into two symmetric blocks and a skew coupling.
The coupling, rotated into the blocks' eigenvectors, lives in clusters of
equal real part; each cluster is a small block, and a Bauer-Fike certificate
on the dropped remainder falls back to one solve of the part above 1e-9, as
does a symmetric set that is not closed.  Either way the spectrum mu of Delta
gives the variational gap (min Re mu) and the star spectrum 1 - |1 - mu|^2
too.  Any other set solves the star operator and the Hermitian part.  On the
benchmark's spectrum configs, cyclic(1200) random(12) and abelian_product([12,
15]) random(10) take the split with coupling on each half, cyclic(1000)
symmetric_random(10) the symmetric split on each half, dihedral(500)
symmetric_random(8) one eigvalsh per half, and S5, which has no z, one
eigvalsh of the whole operator.  The block path solves each stack of
equal-dimension blocks in one batched call.

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


def _central_involution(group) -> int | None:
    """The smallest index z != e with z^2 = e that commutes with every
    generator, hence with all of G; None when G has no such z."""
    idx = group._indices()
    candidates = idx[(group.mul(idx, idx) == group.identity) & (idx != group.identity)][:, None]
    gens = group.generators[None, :]
    central = np.flatnonzero((group.mul(candidates, gens) == group.mul(gens, candidates)).all(axis=1))
    return int(candidates[central[0], 0]) if central.size else None


def _parts(s: GroupSubset) -> list:
    """The pieces Delta splits into: [None], the whole space, when G has no
    central involution, else the even and odd halves (z, +1, R) and (z, -1, R)
    of the left translation L_z, which commutes with every M(x, y) = S(x^-1 y).
    A half has the orthonormal basis w_x = (e_x + sign e_zx)/sqrt2 over the
    representatives R = {x : x < zx} of the pairs {x, zx}."""
    z = _central_involution(s.group)
    if z is None:
        return [None]
    idx = s.group._indices()
    half = idx[idx < s.group.mul(z, idx)]
    return [(z, 1, half), (z, -1, half)]


def _counts(s: GroupSubset, rows: np.ndarray, cols: np.ndarray, part) -> np.ndarray:
    """int8 |S| <w_x, M w_y> over any group elements x in ``rows`` and y in
    ``cols``, gathered from the membership: S(x^-1 y) on the whole space, and
    S(x^-1 y) + sign S(x^-1 z y) on a half, where w_zx = sign w_x."""
    group = s.group
    left = group.inv(rows)[:, None]
    counts = s.membership[group.mul(left, cols[None, :])]
    if part is not None:
        z, sign, _ = part
        counts = counts + np.int8(sign) * s.membership[group.mul(left, group.mul(z, cols)[None, :])]
    return counts


def _part_markov(s: GroupSubset, part) -> np.ndarray:
    """|S| times M on one part of ``_parts``, as a float matrix."""
    if part is None:
        return markov_matrix(s)
    half = part[2]
    return _counts(s, half, half, part).astype(np.float64)


def _scale_fixed_points(block: np.ndarray, k: int) -> None:
    """Normalize the rows and columns from k on, those of the J-fixed points.
    The counts are taken against w_p +- w_p^-1, of norm sqrt2 for a pair but
    2 for a fixed point t (w_t^-1 = +-w_t), so each fixed index takes one more
    factor 1/sqrt2."""
    block[:k, k:] /= np.sqrt(2.0)
    block[k:, :k] /= np.sqrt(2.0)
    block[k:, k:] /= 2.0


def _inversion_blocks(s: GroupSubset, part=None):
    """Yield A, then C, then B (only for a non-symmetric S; it vanishes for a
    symmetric one) of R^T Delta R = [[A, B], [-B^T, C]] on one part of
    ``_parts`` for a conjugation-closed S.

    J f = f o inv satisfies J M J = M^T when S is closed under conjugation, and
    it commutes with L_z for a central z, so it maps each half to itself:
    J w_x = w_x^-1, a signed permutation of the basis once x^-1 is written as
    +-w of its representative.  R is the orthonormal basis of J-even vectors,
    (w_p + w_p^-1)/sqrt2 for the pairs p < rep(p^-1), then w_t for the fixed
    points of sign +1 (t^-1 = t, or t^-1 = zt on the even half), then J-odd
    vectors (w_p - w_p^-1)/sqrt2 and w_t for the fixed points of sign -1 (t^2 = z
    on the odd half).  The entries are int8 counts (``_counts``): G1 = <w_x, M w_y>,
    G2 = <w_x, M w_y^-1> and G3 = <w_x^-1, M w_y> over the representatives, with
    <w_x^-1, M w_y^-1> = G1^T by the closure, divided by |S| and the norms of
    the two basis vectors (``_scale_fixed_points``).  Each float block is built
    only when the caller asks for the next, so a solved block can be freed first."""
    group = s.group
    z, sign, half = part if part is not None else (None, 1, group._indices())
    inverse = group.inv(half)
    partner = inverse if z is None else np.minimum(inverse, group.mul(z, inverse))  # the representative of x^-1
    pairs = half[half < partner]
    fixed = half[half == partner]
    odd = (sign < 0) & (inverse[half == partner] != fixed)  # t^-1 = zt: J w_t = -w_t
    reps = np.concatenate((pairs, fixed[~odd], fixed[odd]))
    k, ke = pairs.size, reps.size - int(odd.sum())
    inverse_reps = group.inv(reps)
    g1 = _counts(s, reps, reps, part)
    g2 = _counts(s, reps, inverse_reps, part)
    g3 = _counts(s, inverse_reps, reps, part)
    odd_rows = np.r_[0:k, ke : reps.size]
    a = (g1 + g1.T + g2 + g3)[:ke, :ke] / (-2.0 * s.size)
    _scale_fixed_points(a, k)
    a.flat[:: ke + 1] += 1.0
    yield a
    del a
    c = (g1 + g1.T - g2 - g3)[np.ix_(odd_rows, odd_rows)] / (-2.0 * s.size)
    _scale_fixed_points(c, k)
    c.flat[:: odd_rows.size + 1] += 1.0
    yield c
    del c
    if not s.is_symmetric:
        b = (g1.T - g1 + g2 - g3)[:ke, odd_rows] / (2.0 * s.size)
        _scale_fixed_points(b, k)
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
    if lam_o.size == 0:  # no J-odd vector, so nothing couples
        return lam_e.astype(np.complex128)
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


def _split_spectrum(s: GroupSubset, part=None) -> np.ndarray | None:
    """Eigenvalues of Delta on one part for a conjugation-closed S from two
    symmetric solves, or None when the coupling certificate refuses them."""
    blocks = _inversion_blocks(s, part)
    if s.is_symmetric:
        return np.concatenate(list(map(np.linalg.eigvalsh, blocks))).astype(np.complex128)
    lam_e, q_e = np.linalg.eigh(next(blocks))
    lam_o, q_o = np.linalg.eigh(next(blocks))
    w = q_e.T @ next(blocks) @ q_o
    del q_e, q_o
    return _coupled_spectrum(lam_e, lam_o, w)


def _normal_spectrum(s: GroupSubset, part, closed: bool) -> np.ndarray:
    """Eigenvalues of Delta on one part for a symmetric or conjugation-closed
    S, whose operator is normal: the inversion split when S is closed; where
    that is refused, or S is not closed, one solve of the part's Delta."""
    mu = _split_spectrum(s, part) if closed else None
    if mu is None:
        delta = _laplacian(_part_markov(s, part), s.size)
        mu = np.linalg.eigvalsh(delta).astype(np.complex128) if s.is_symmetric else np.linalg.eigvals(delta)
    return mu


def _star_and_hermitian(s: GroupSubset, part, full: bool, trivial: bool):
    """Eigenvalues of Delta on one part (None unless ``full``), the least
    eigenvalue of its Hermitian part (less the trivial one when the part holds
    the constants) and the spectrum of I - M M^T / |S|^2 there."""
    m = _part_markov(s, part)
    size = s.size
    delta = _laplacian(m, size)
    star = np.linalg.eigvalsh(_laplacian(m @ m.T, size * size))
    del m
    gap = variational_lambda1(delta) if trivial else float(np.linalg.eigvalsh((delta + delta.T) / 2.0)[0])
    return np.linalg.eigvals(delta) if full else None, gap, star


def _dense_gaps(s: GroupSubset, full: bool) -> tuple[np.ndarray | None, float, np.ndarray]:
    """Eigenvalues of Delta = I - M/|S| (None unless ``full``), its variational
    gap, and the ascending spectrum of I - M M^T / |S|^2.

    Every solve runs once per part of ``_parts``: on the two halves of a
    central involution, or on the whole space.  A symmetric or
    conjugation-closed set has a normal operator and takes
    ``_normal_spectrum``; other sets solve the star operator and the
    Hermitian part, whose trivial eigenvalue lies in the first part."""
    closed = _conjugation_closed(s)
    parts = _parts(s)
    if closed or s.is_symmetric:
        mu = np.concatenate([_normal_spectrum(s, part, closed) for part in parts])
        return (mu, *_normal_gaps(mu))
    eigenvalues, gaps, stars = zip(*(_star_and_hermitian(s, part, full, i == 0) for i, part in enumerate(parts)))
    return np.concatenate(eigenvalues) if full else None, min(gaps), np.sort(np.concatenate(stars))


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
