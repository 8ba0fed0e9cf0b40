"""Laplace and Markov operators of Cayley graphs and their spectra.

Two independent eigenvalue paths give whole spectra: a dense eigendecomposition
of the |G| x |G| operator, and a block path through the representation catalog
where each irrep contributes its d x d Fourier block with multiplicity d.  The
first nontrivial eigenvalue is reported variationally, as the minimum of the
quadratic form of the Hermitian part on the mean-zero subspace, which keeps it
well defined for non-symmetric generating sets.

The dense path first splits over an elementary abelian 2-subgroup H of left
translations, built greedily by index (the involutions need only commute with
each other): M(x, y) = S(x^-1 y) commutes with every L_h f(x) = f(hx), so
Delta is block-diagonal on the 2^r eigenspaces of the sign characters of H,
each of size |G|/|H| and gathered as integer counts from the group law.  On
an abelian group H is every x with x^2 = e, all central, and the parts take
the inversion split, stacked where they share the blocks' shapes: J f = f o
inv satisfies J M J = M^T and maps each part to itself, so in the basis of
J-even and J-odd vectors a part splits into two symmetric blocks and a skew
coupling.  The coupling, rotated into the blocks' eigenvectors, lives in
clusters of equal real part; each cluster is a small block, and a Bauer-Fike
certificate on the dropped remainder falls back to one solve of the part
above 1e-9.  A nonabelian group solves once over the stack of parts: eigvalsh
of Delta for a symmetric set, else the star operator and the Hermitian part.
For a normal Delta the spectrum mu gives the variational gap (min Re mu) and
the star spectrum 1 - |1 - mu|^2 too.  On the benchmark's spectrum configs,
cyclic(1200) random(12) and abelian_product([12, 15]) random(10) take the
split with coupling on each half, cyclic(1000) symmetric_random(10) the
symmetric split on each half, dihedral(500) symmetric_random(8) one eigvalsh
of its four 250 x 250 parts (H = {e, r^250, s, s r^250}) and S5 one of its
four 30 x 30 parts.  The block path solves each stack of
equal-dimension blocks in one batched call.

The scalar queries ``lambda1``, ``lambda1_star`` and ``set_norm`` read one
memoized per-subset ``SpectralSummary``.  On a cataloged group it takes the
Fourier coefficients once (FFTs over the cyclic factors) and reads the gap and
the norm from the same nontrivial blocks; only where no catalog exists does it
diagonalize the dense operator.  ``laplace_spectrum_dense`` reads neither the
summary nor the catalog, so it stays an independent cross-check;
``multiset_distance`` compares the two paths by greedy nearest matching, run
per component of the real parts (cut at gaps above 1e-6) and batched by size.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import EmptySet, KZero, NotCataloged
from .groups import GroupFunction, GroupSubset, iterated_convolution
from .representations import check_dense_budget, irrep_catalog, operator_norms

_CLUSTER_GAP = 1e-6  # eigenvalues closer than this along the real axis share a cluster
_SPLIT_TOL = 1e-9  # largest certified error of the inversion-split spectrum
_GATHER_CELLS = 2**16  # cells of one product index of the split's gathers, and of one stack of small abelian parts


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
    dtype = f.values.dtype if f.values.dtype.kind == "c" else np.dtype(np.float64)
    check_dense_budget(group.order**2 * dtype.itemsize, f"dense Markov weights of {group.name}")
    idx = group._indices()[:, None]
    values = np.ascontiguousarray(f.values, dtype=dtype)
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
    smallest: signed weights can push it above the rest.  The Hermitian copy
    must fit the dense budget.
    """
    n = delta.shape[0]
    if n == 1:
        return 0.0
    check_dense_budget(delta.nbytes, f"the Hermitian part of a {n} x {n} operator")
    herm = (delta + delta.conj().T) / 2.0
    if np.iscomplexobj(herm) and np.abs(herm.imag).max(initial=0.0) < 1e-12:
        herm = herm.real
    return _mean_zero_min(herm[None], np.linalg.eigvalsh(herm)[None])


def _mean_zero_min(herm: np.ndarray, values: np.ndarray) -> float:
    """Least of the eigenvalues ``values`` (k, m) of a stack ``herm`` of
    Hermitian parts whose first holds the constants, less one copy there of
    the row-sum eigenvalue, the constants' own."""
    trivial = herm[0].sum().real / herm.shape[-1]
    first = np.delete(values[0], np.argmin(np.abs(values[0] - trivial)))
    return float(np.concatenate((first, values[1:].ravel())).min())


def _laplacian(m: np.ndarray, scale: float) -> np.ndarray:
    """I - m / scale in one new float array, for one n x n matrix or a stack of
    them, byte for byte np.eye(n) - m / scale: 0.0 - x keeps the +0.0 that
    np.negative would write as -0.0."""
    delta = m / scale
    np.subtract(0.0, delta, out=delta)
    n = delta.shape[-1]
    delta.reshape(-1, n * n)[:, :: n + 1] += 1.0
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


def _greedy_worst(a: np.ndarray, b: np.ndarray) -> float:
    """Worst pick of the greedy matching, run in lockstep over the rows of two
    (m, k) arrays: each a[:, i] in turn takes its nearest unused b, the first
    on a tie."""
    rows = np.arange(a.shape[0])
    used = np.zeros(b.shape, dtype=bool)
    worst = 0.0
    for x in a.T:
        dist = np.abs(b - x[:, None])
        dist[used] = np.inf
        j = np.argmin(dist, axis=1)
        used[rows, j] = True
        worst = max(worst, float(dist[rows, j].max()))
    return worst


def multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Worst-pair distance under greedy nearest matching of two spectra.

    Robust against near-ties where a lexicographic sort would pair wrong
    partners across the two eigenvalue paths.  The greedy runs per component
    of the merged real parts cut at gaps above 1e-6, one batch per component
    size, when both spectra are finite with equal counts in every component.
    An element outside a component is then over 1e-6 away, so once every
    pick is within 1e-6 it can neither win nor tie, and the result is the
    whole-array greedy's; otherwise that greedy runs as one component.
    """
    a = multiset_key(a)
    b = multiset_key(b)
    if a.size != b.size:
        return float("inf")
    if np.isfinite(a).all() and np.isfinite(b).all():
        merged = np.sort(np.concatenate((a.real, b.real)))
        cuts = merged[:-1][np.diff(merged) > _CLUSTER_GAP]  # the last real part of each component but the last
        sizes, other = (np.bincount(np.searchsorted(cuts, x.real), minlength=cuts.size + 1) for x in (a, b))
        if np.array_equal(sizes, other):
            starts = np.cumsum(sizes) - sizes
            worst = 0.0
            for k in sorted(set(sizes.tolist())):
                members = starts[sizes == k][:, None] + np.arange(k)
                worst = max(worst, _greedy_worst(a[members], b[members]))
            if worst <= _CLUSTER_GAP:
                return worst
    return _greedy_worst(a[None], b[None])


def cluster_eigenvalues(values: np.ndarray) -> np.ndarray:
    """Cluster ids over sorted real values; a new cluster starts at a gap > 1e-6."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    return np.cumsum(np.diff(arr, prepend=arr[:1]) > _CLUSTER_GAP)


class SpectrumReport(NamedTuple):
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
        columns, path = (eig.real.tolist(), eig.imag.tolist(), self.star_eigenvalues.tolist()), self.path
        return [
            {"index": j, "eigenvalue_re": re, "eigenvalue_im": im, "star_eigenvalue": star, "cluster": c, "path": path}
            for j, re, im, star, c in zip(range(eig.size), *columns, clusters)
        ]


def _normal_gaps(mu: np.ndarray) -> tuple[float, np.ndarray]:
    """Variational gap and ascending star spectrum of a normal Delta from its
    eigenvalues mu: its Hermitian part has eigenvalues Re mu (less one copy of
    the trivial 0) and I - M M^T/|S|^2 has 1 - |1 - mu|^2."""
    rest = np.delete(mu, np.argmin(np.abs(mu)))
    return float(rest.real.min()) if rest.size else 0.0, np.sort(1.0 - np.abs(1.0 - mu) ** 2)


class _Split(NamedTuple):
    """Delta split over an elementary abelian 2-subgroup H of left translations.

    Element j of ``h`` is the product of H's generators t_i over the bits i set
    in j, so the sign characters of H are eps_k(h_j) = (-1)^popcount(j & k)
    (``_inversion_layout``).  Part k has the orthonormal basis w_x = sum_h eps_k(h)
    e_hx / sqrt|H| over the coset representatives ``reps`` = {x : x = min Hx},
    and ``counts[k]`` holds |S| <w_x, M w_y> = sum_h eps_k(h) S(x^-1 h y) there.
    Part 0, eps = 1, holds the constants."""

    h: np.ndarray
    reps: np.ndarray
    counts: np.ndarray  # (|H|, m, m) integers, m = |G| / |H|


def _translations(group) -> np.ndarray:
    """H, built greedily by index from the involutions t != e, in the order of
    ``_Split.h``: each next t is the smallest involution outside H that
    commutes with the t's taken so far; an involution passed over then also
    fails against the final H, so no involution extends it.  On an abelian
    group that is every x with x^2 = e."""
    idx = group._indices()
    candidates = idx[(group.mul(idx, idx) == group.identity) & (idx != group.identity)]
    free = np.ones(candidates.size, dtype=bool)
    h = np.array([group.identity], dtype=idx.dtype)
    in_h = np.zeros(group.order, dtype=bool)
    while free.any():
        t = candidates[np.argmax(free)]
        h = np.concatenate((h, group.mul(t, h)))
        in_h[h] = True
        free &= (group.mul(candidates, t) == group.mul(t, candidates)) & ~in_h[candidates]
    return h


def _split(s: GroupSubset) -> _Split:
    """The parts of Delta over ``_translations``: M(x, y) = S(x^-1 y) commutes
    with every left translation L_h f(x) = f(hx), so Delta is block-diagonal on
    the eigenspaces of the L_h, one per sign character of H.

    The grids G_h = S(R^-1 h R) of every h are gathered through one product
    index of at most ``_GATHER_CELLS`` cells (or one row) at a time, straight
    into an integer dtype that holds +-4|H|, as the inversion split sums four
    counts, and Walsh-Hadamard butterflies (u, v) -> (u + v, u - v) turn them
    in place into the counts sum_h eps_k(h) G_h of every part.  The counts, one
    product index and the float stack that the solves take (every part on a
    nonabelian group, one on an abelian one, whose stacks of small parts hold at
    most ``_GATHER_CELLS`` cells more) must fit the dense budget, else
    GroupTooLarge is raised before anything is gathered."""
    group = s.group
    h = _translations(group)
    low = idx = group._indices()
    for i in range(h.size.bit_length() - 1):  # min over Hx, one generator h[2^i] of H at a time
        low = np.minimum(low, low[group.mul(h[1 << i], idx)])
    reps = idx[low == idx]
    k, m = h.size, reps.size
    dtype = np.dtype(next(t for t in (np.int8, np.int16, np.int32) if np.iinfo(t).max >= 4 * k))
    chunk = max(1, min(k * m, _GATHER_CELLS // m))  # rows of one product index
    index_bytes = chunk * m * group.mul(reps[:1], reps[:1]).itemsize
    needed = (k * dtype.itemsize + 8 * (1 if group.is_abelian else k)) * m * m + index_bytes
    check_dense_budget(needed, f"dense spectrum of {group.name}: the counts of {k} parts of side {m}")
    counts = np.empty((k, m, m), dtype=dtype)
    membership, rows = s.membership.astype(dtype), counts.reshape(k * m, m)
    left = group.mul(group.inv(reps)[None, :], h[:, None]).reshape(-1, 1)  # x^-1 h for row (h, x)
    for lo in range(0, k * m, chunk):
        np.take(membership, group.mul(left[lo : lo + chunk], reps[None, :]), out=rows[lo : lo + chunk])
    half = 1
    while half < k:
        pairs = counts.reshape(-1, 2, half, m, m)
        u, v = pairs[:, 0], pairs[:, 1]
        u += v
        v *= -2
        v += u
        half *= 2
    return _Split(h, reps, counts)


def _inversion_block(counts: np.ndarray, k: int, scale: float, identity: bool) -> np.ndarray:
    """counts / scale as a stack of float blocks, plus I when ``identity``.
    The counts are taken against w_p +- w_p^-1, of norm sqrt2 for a pair but 2
    for a J-fixed point t (w_t^-1 = +-w_t), so each index from k on, those of
    the fixed points, takes one more factor 1/sqrt2."""
    block = counts / scale
    block[:, :k, k:] /= np.sqrt(2.0)
    block[:, k:, :k] /= np.sqrt(2.0)
    block[:, k:, k:] /= 2.0
    if identity:
        np.einsum("kii->ki", block)[:] += 1.0  # a view of every diagonal, whatever the layout
    return block


def _inversion_layout(group, split: _Split) -> tuple[np.ndarray, np.ndarray]:
    """q and signs, shared by the parts of an abelian group's split: x^-1 =
    h_j reps[q[x]] for each representative x, and J w_x = signs[k, x] w_reps[q[x]]
    on part k, signs[k, x] = eps_k(h_j) = (-1)^popcount(j & k) by Sylvester's doubling."""
    h, reps, _ = split
    coset = group.mul(h[:, None], group.inv(reps)[None, :])  # H x^-1 for each representative x
    j = np.argmin(coset, axis=0)
    signs = np.ones((1, reps.size), dtype=np.int8)
    while signs.shape[0] < h.size:
        signs = np.concatenate((signs, np.where(j & signs.shape[0], -signs, signs)))
    return np.searchsorted(reps, coset[j, np.arange(reps.size)]), signs


def _inversion_blocks(s: GroupSubset, counts: np.ndarray, signs: np.ndarray, q: np.ndarray, parts: list[int]):
    """Yield A, then C, then B (only for a non-symmetric S; it vanishes for a
    symmetric one) of R^T Delta R = [[A, B], [-B^T, C]], each stacked over
    ``parts`` of an abelian group's split with the same signs on the J-fixed
    points, read from the split's counts and ``_inversion_layout`` without a
    copy of either.  Any S closed under conjugation and central H would do;
    every S and H on an abelian group are.

    J f = f o inv satisfies J M J = M^T by the closure and commutes with every
    central L_h, so it maps each part to itself: J w_x = w_x^-1 = signs[x]
    w_reps[q[x]].  R is the orthonormal basis of J-even vectors,
    (w_p + w_p^-1)/sqrt2 for the pairs p < q[p] and w_t for the fixed points
    t = q[t] of sign +1, then J-odd ones, (w_p - w_p^-1)/sqrt2 and w_t of sign
    -1.  The entries are the counts G1 = <w_x, M w_y>, G2 = <w_x, M w_y^-1>
    and G3 = <w_x^-1, M w_y>, the latter two signed permutations of G1's
    columns and rows, with <w_x^-1, M w_y^-1> = G1^T by the closure, divided
    by |S| and the norms of the basis vectors (``_inversion_block``).  Each
    float block is built only when the caller asks for the next and is held by
    the caller alone, so a solved block is freed first."""
    pairs, fixed = np.flatnonzero(np.arange(q.size) < q), np.flatnonzero(np.arange(q.size) == q)
    odd = signs[parts[0], fixed] < 0  # w_t^-1 = -w_t, alike on every part of the stack
    order = np.concatenate((pairs, fixed[~odd], fixed[odd]))
    k, ke = pairs.size, order.size - int(odd.sum())
    partners, signs, parts = q[order], signs[parts][:, order], np.asarray(parts)[:, None]
    rows = counts[parts, order]  # two-step takes, several times faster than np.ix_
    g1, g2 = rows[:, :, order], rows[:, :, partners] * signs[:, None, :]
    del rows
    g3 = counts[parts, partners][:, :, order] * signs[:, :, None]
    g1t, odd_rows = g1.transpose(0, 2, 1), np.r_[0:k, ke : order.size]
    yield _inversion_block((g1 + g1t + g2 + g3)[:, :ke, :ke], k, -2.0 * s.size, identity=True)
    yield _inversion_block((g1 + g1t - g2 - g3)[:, odd_rows][:, :, odd_rows], k, -2.0 * s.size, identity=True)
    if not s.is_symmetric:
        yield _inversion_block((g1t - g1 + g2 - g3)[:, :ke][:, :, odd_rows], k, 2.0 * s.size, identity=False)


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
    for size in sorted(set(sizes[sizes > 1].tolist())):  # np.unique would import numpy.ma
        members = order[starts[sizes == size][:, None] + np.arange(size)]  # (clusters, size)
        rows, cols = members[:, :, None], members[:, None, :]
        even, odd = np.minimum(rows, cols), np.maximum(rows, cols) - ne  # even indices come first
        mixed = (even < ne) & (odd >= 0)
        coupling = np.where(mixed, w[np.minimum(even, ne - 1), np.maximum(odd, 0)], 0.0)
        block = np.where(rows < cols, coupling, -coupling)
        block[:, np.arange(size), np.arange(size)] = lam[members]
        parts.append(np.linalg.eigvals(block).ravel())
    return np.concatenate(parts).astype(np.complex128)


def _split_spectra(s: GroupSubset, counts: np.ndarray, signs: np.ndarray, q: np.ndarray, parts: list[int]) -> list:
    """Eigenvalues of Delta on each part of an ``_inversion_blocks`` stack, from
    two symmetric solves, or None where the coupling certificate refuses them."""
    blocks = _inversion_blocks(s, counts, signs, q, parts)
    if s.is_symmetric:
        return list(np.concatenate(list(map(np.linalg.eigvalsh, blocks)), axis=1).astype(np.complex128))
    lam_e, q_e = np.linalg.eigh(next(blocks))
    lam_o, q_o = np.linalg.eigh(next(blocks))
    w = q_e.transpose(0, 2, 1) @ next(blocks) @ q_o
    del q_e, q_o
    return list(map(_coupled_spectrum, lam_e, lam_o, w))


def _abelian_spectrum(s: GroupSubset, split: _Split) -> np.ndarray:
    """Eigenvalues of the normal Delta on an abelian group, part after part:
    the inversion split, or where its certificate refuses (only for a
    non-symmetric S), one ``eigvals`` of the part's Delta.  Parts with the same
    signs on the J-fixed points have blocks of the same shapes and are solved
    together, in stacks of at most ``_GATHER_CELLS`` cells or one part."""
    counts, (q, signs) = split.counts, _inversion_layout(s.group, split)
    alike: dict[bytes, list[int]] = {}
    for part, key in enumerate(map(bytes, signs[:, q == np.arange(q.size)])):
        alike.setdefault(key, []).append(part)
    mu, step = np.empty((split.h.size, q.size), dtype=np.complex128), max(1, _GATHER_CELLS // q.size**2)
    for parts in (same[lo : lo + step] for same in alike.values() for lo in range(0, len(same), step)):
        for part, values in zip(parts, _split_spectra(s, counts, signs, q, parts)):
            mu[part] = np.linalg.eigvals(_laplacian(counts[part], s.size)) if values is None else values
    return mu.ravel()


def _dense_gaps(s: GroupSubset, full: bool) -> tuple[np.ndarray | None, float, np.ndarray]:
    """Eigenvalues of Delta = I - M/|S| (None unless ``full``), its variational
    gap, and the ascending spectrum of I - M M^T / |S|^2.

    Every solve runs on the parts of ``_split``.  A set on an abelian group
    takes ``_abelian_spectrum``; a symmetric set on a nonabelian
    group takes one ``eigvalsh`` of the stack of parts.  Either operator is
    normal, so its eigenvalues give the gap and the star spectrum.  Any other
    set solves the star operator and the Hermitian part, each once over the
    stack, and the trivial eigenvalue leaves the part of the constants."""
    split, size = _split(s), s.size
    if s.group.is_abelian:
        mu = _abelian_spectrum(s, split)
        return (mu, *_normal_gaps(mu))
    if s.is_symmetric:
        mu = np.linalg.eigvalsh(_laplacian(split.counts, size)).ravel().astype(np.complex128)
        return (mu, *_normal_gaps(mu))
    m = split.counts.astype(np.float64)
    delta = _laplacian(m, size)
    star = np.sort(np.linalg.eigvalsh(_laplacian(m @ m.transpose(0, 2, 1), size * size)), axis=None)
    del m
    herm = (delta + delta.transpose(0, 2, 1)) / 2.0
    gap = _mean_zero_min(herm, np.linalg.eigvalsh(herm))
    return np.linalg.eigvals(delta).ravel() if full else None, gap, star


def _star_gap(star: np.ndarray) -> float:
    """lambda1* from the ascending star spectrum: its second value, or 0 on one point."""
    return float(star[1]) if star.size > 1 else 0.0


def _report(eigenvalues: np.ndarray, lam1: float, star: np.ndarray, path: str) -> SpectrumReport:
    """The path's report: eigenvalues in display order, lambda1* by ``_star_gap``."""
    return SpectrumReport(_display_order(eigenvalues), star, lam1, _star_gap(star), path)


def laplace_spectrum_dense(s: GroupSubset) -> SpectrumReport:
    """Spectrum of I - M/|S| by dense eigendecomposition, plus the singular path."""
    if s.size == 0:
        raise EmptySet("spectrum of the empty set")
    return _report(*_dense_gaps(s, full=True), "dense")


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
    # the mean-zero subspace is the sum of the nontrivial isotypic components,
    # so the variational gap is the smallest Hermitian-part eigenvalue there
    return _report(eigenvalues, float(gaps.min()) if gaps.size else 0.0, star, "blocks")


class SpectralSummary(NamedTuple):
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
        return SpectralSummary(lam1, _star_gap(star), norm=None, path="dense")
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


class WalkEnergyReport(NamedTuple):
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
