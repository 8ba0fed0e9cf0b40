"""Irreducible unitary representations for cataloged group families and the
matrix Fourier transform.

Catalogs exist for abelian products (``cyclic(n)`` is the one-factor product,
so it shares their catalog class) and dihedral groups.  Generic groups
deliberately get no numerically synthesized irreps; operations that need the
catalog raise NotCataloged.  Each family writes its irreps once,
as ``_transform``: every Fourier coefficient by FFTs over the group's cyclic
factors, one ``ifftn`` over the factor orders on abelian groups, and on
dihedral groups one ``ifft`` and one ``fft`` of the two coset rows, whose
entries fill the sign and plane blocks.  ``IrrepCatalog.coefficients`` and
``IrrepCatalog.norms`` read it, so neither touches a matrix; an abelian
catalog also inverts it (``_inverse``, one ``fftn``) for the representation
counts of ``bounds``.  The matrices themselves, one read-only
``(k, |G|, d, d)`` stack per dimension with each rep's ``matrices`` a view of
its row, are the same transform batched over the
identity, since rho(g) is the coefficient of the point mass at g; they are
built on first read of ``stacks`` or ``reps``, after a check against
``DENSE_BYTES_BUDGET`` that raises GroupTooLarge before anything is allocated.
``fourier_transform`` (the per-rep ``tensordot`` on those matrices) and
``set_norm(s, catalog)`` stay the reference the FFTs are tested against.
Each rep computes and caches its own row of ||rho(g) - I|| for Bohr sets
(``identity_distances``), so at most one rep's rho(g) - I is alive at a time.
The spectral engine (``spectra.spectral_summary``) takes ``coefficients``
once per subset on every cataloged group and reads gaps and norms from those
blocks, so it never builds the stacks; it diagonalizes the dense operator only
where ``irrep_catalog`` raises NotCataloged.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import GroupMismatch, IncompleteCatalog, NotCataloged
from .groups import (
    AbelianProductGroup,
    DihedralGroup,
    FiniteGroup,
    GroupFunction,
    GroupSubset,
    check_dense_budget,
)

UNITARITY_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-8


def operator_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a (k, d, d) stack.

    Plain |z| when d = 1. When d = 2 it is the square root of the top
    eigenvalue of the column Gram matrix [[p, w], [w*, q]], taken as
    (p + q)/2 + hypot((p - q)/2, |w|); the textbook discriminant
    (p + q)^2 - 4|det|^2 cancels and loses about half the digits.
    """
    if stack.shape[1] == 1:
        return np.abs(stack[:, 0, 0])
    if stack.shape[1] == 2:
        a, b = stack[:, :, 0], stack[:, :, 1]
        p = (a.real**2 + a.imag**2).sum(axis=1)
        q = (b.real**2 + b.imag**2).sum(axis=1)
        w = np.abs((a.conj() * b).sum(axis=1))
        return np.sqrt((p + q) / 2.0 + np.hypot((p - q) / 2.0, w))
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


class UnitaryRepresentation:
    """A map from group elements to d x d unitary matrices."""

    def __init__(
        self,
        group: FiniteGroup,
        matrices: np.ndarray,
        label: str,
        is_trivial: bool = False,
    ):
        mats = np.ascontiguousarray(matrices, dtype=np.complex128)
        if mats.ndim != 3 or mats.shape[0] != group.order or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"matrices must have shape (order, d, d), got {mats.shape}")
        mats.flags.writeable = False
        self.group = group
        self.matrices = mats
        self.label = label
        self.is_trivial = is_trivial

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def matrix(self, g: int) -> np.ndarray:
        return self.matrices[g]

    def __repr__(self) -> str:
        return f"<rep {self.label} of {self.group.name}, dim {self.dim}>"

    def character(self) -> np.ndarray:
        return np.trace(self.matrices, axis1=1, axis2=2)

    def identity_distances(self) -> np.ndarray:
        """Vector of operator norms ||rho(g) - I|| over all g; drives Bohr sets."""
        cached = getattr(self, "_identity_distances", None)
        if cached is None:
            cached = operator_norms(self.matrices - np.eye(self.dim))
            cached.flags.writeable = False
            self._identity_distances = cached
        return cached

    def validation_residuals(self) -> dict:
        """Max entrywise deviations from the homomorphism, unitarity and orthogonality laws.

        The homomorphism residual r is max |rho(x) rho(s) - rho(xs)| over every x and every s in
        ``group.generators``; with rho(e) = I, r = 0 certifies rho(xy) = rho(x) rho(y) for every
        pair by induction on the length l of y as a word in the generators.  In floats a unitary
        rho is off by about l d r at (x, y): the bound grows with the word length.
        """
        mats = self.matrices
        group = self.group
        eye = np.eye(self.dim)
        unitarity = float(
            np.abs(np.einsum("gij,gkj->gik", mats, mats.conj()) - eye).max()
        )
        identity_err = float(np.abs(mats[group.identity] - eye).max())
        x, s = np.arange(group.order)[:, None], group.generators[None, :]
        products = np.einsum("xij,sjk->xsik", mats, mats[group.generators])
        homomorphism = float(np.abs(products - mats[group.mul(x, s)]).max(initial=0.0))
        char = self.character()
        orthogonality = abs(float((np.abs(char) ** 2).sum()) - group.order)
        return {
            "identity": identity_err,
            "unitarity": unitarity,
            "homomorphism": homomorphism,
            "trace_orthogonality": orthogonality,
        }

    def validate(self) -> None:
        res = self.validation_residuals()
        for key, tol, law in (
            ("identity", UNITARITY_TOL, "rho(e) != I"),
            ("unitarity", UNITARITY_TOL, "not unitary"),
            ("homomorphism", UNITARITY_TOL, "not a homomorphism"),
            ("trace_orthogonality", ORTHOGONALITY_TOL, "trace orthogonality off"),
        ):
            if res[key] > tol:
                raise ValueError(f"rep {self.label}: {law} ({res[key]:.2e})")


class IrrepCatalog:
    """Complete list of irreducible unitary representations of a group, the
    first trivial, in ``len(shapes)`` stacks of ``k`` reps of dimension ``d``.

    A family subclass takes every Fourier coefficient by FFT (``_transform``,
    from ``(|G|, *batch)`` values to ``(k, *batch, d, d)`` blocks per stack)
    and names its reps (``labels``).
    ``stacks``, the ``(k, |G|, d, d)`` matrices, are ``_transform`` of the
    identity; they and the ``reps`` that view their rows are built on first
    read, so coefficients and norms never touch them.
    """

    trivial_index = 0

    def __init__(self, group: FiniteGroup, shapes: list[tuple[int, int]]):
        self.group = group
        self.shapes = tuple(shapes)  # (k, d) per stack

    def _transform(self, values: np.ndarray) -> list[np.ndarray]:
        raise NotImplementedError

    @cached_property
    def stacks(self) -> tuple[np.ndarray, ...]:
        order = self.group.order
        check_dense_budget(2 * order * order * 16, f"matrix stacks of {self.group.name}")  # identity and transform
        # rho(g) is the Fourier coefficient of the point mass at g
        stacks = self._transform(np.eye(order, dtype=np.complex128))
        declared = [(k, order, d, d) for k, d in self.shapes]
        if [stack.shape for stack in stacks] != declared or sum(k * d * d for k, d in self.shapes) != order:
            raise ValueError(
                f"catalog dimension check failed: stacks {[stack.shape for stack in stacks]}, "
                f"declared {declared}, sum of k d^2 must be the order {order}"
            )
        for stack in stacks:
            stack.flags.writeable = False
        return tuple(stacks)

    @cached_property
    def reps(self) -> tuple[UnitaryRepresentation, ...]:
        rows = (mats for stack in self.stacks for mats in stack)
        return tuple(
            UnitaryRepresentation(self.group, mats, label, is_trivial=(i == self.trivial_index))
            for i, (mats, label) in enumerate(zip(rows, self.labels, strict=True))
        )

    def coefficients(self, f: GroupFunction) -> list[np.ndarray]:
        """Every Fourier coefficient sum_g f(g) rho(g) in catalog order, as one
        ``(k, d, d)`` array per stack, by FFTs over the group's cyclic factors."""
        if f.group != self.group:
            raise GroupMismatch(f"function on {f.group.name}, catalog of {self.group.name}")
        return self._transform(f.values.astype(np.complex128))

    def norms(self, f: GroupFunction) -> np.ndarray:
        """Operator norm of every Fourier coefficient of f, in catalog order."""
        return np.concatenate([operator_norms(block) for block in self.coefficients(f)])

    def __len__(self) -> int:
        return sum(k for k, _ in self.shapes)

    def __iter__(self):
        return iter(self.reps)

    def __getitem__(self, i: int) -> UnitaryRepresentation:
        return self.reps[i]

    @property
    def trivial(self) -> UnitaryRepresentation:
        return self.reps[self.trivial_index]

    def nontrivial(self) -> list[UnitaryRepresentation]:
        return [r for i, r in enumerate(self.reps) if i != self.trivial_index]

    @property
    def d_min(self) -> int:
        if len(self) == 1:
            raise NotCataloged("trivial group has no nontrivial representation")
        dims = [d for k, d in self.shapes for _ in range(k)]
        del dims[self.trivial_index]
        return min(dims)

    def report(self) -> list[dict]:
        rows = []
        for i, rep in enumerate(self.reps):
            res = rep.validation_residuals()
            rows.append(
                {
                    "index": i,
                    "label": rep.label,
                    "dim": rep.dim,
                    "is_trivial": rep.is_trivial,
                    **{f"residual_{k}": v for k, v in res.items()},
                }
            )
        return rows


class _AbelianCatalog(IrrepCatalog):
    """Characters chi_r(x) = exp(2 pi i sum_j r_j x_j / n_j) of a cyclic group
    (one factor) or an abelian product, in C-order of the frequency digits r."""

    def __init__(self, group: AbelianProductGroup):
        super().__init__(group, [(group.order, 1)])
        self.factor_orders = group.factor_orders

    @cached_property
    def labels(self) -> tuple[str, ...]:
        digits = self.group.decode(np.arange(self.group.order))
        return tuple("chi" + "_".join(map(str, row)) for row in zip(*(d.tolist() for d in digits)))

    def _transform(self, values: np.ndarray) -> list[np.ndarray]:
        # ifftn without the 1/n factor is sum_x f(x) e^{+2 pi i <r, x>}, the catalog's sign
        batch = values.shape[1:]
        axes = tuple(range(len(self.factor_orders)))
        coeffs = np.fft.ifftn(values.reshape(self.factor_orders + batch), axes=axes, norm="forward")
        return [coeffs.reshape(-1, *batch, 1, 1)]

    def _inverse(self, coeffs: np.ndarray) -> np.ndarray:
        """f from its ``(|G|,)`` coefficients: f(x) = (1/|G|) sum_r fhat(r) e^{-2 pi i <r, x>},
        one ``fftn`` with the 1/n factor, the opposite sign of ``_transform``."""
        return np.fft.fftn(coeffs.reshape(self.factor_orders), norm="forward").reshape(-1)


class _DihedralCatalog(IrrepCatalog):
    """Sign reps, then plane rep h sending s^t r^i to swap^t @ diag(omega^h, omega^-h)^i
    for 1 <= h < n/2, where omega = exp(2 pi i / n) and element t n + i is s^t r^i."""

    def __init__(self, group: DihedralGroup):
        n = group.n
        self.harmonics = range(1, (n + 1) // 2)
        super().__init__(group, [(2 if n % 2 else 4, 1), (len(self.harmonics), 2)])

    @cached_property
    def labels(self) -> tuple[str, ...]:
        signs = ("triv", "reflection_sign") + (("rotation_sign", "mixed_sign") if self.group.n % 2 == 0 else ())
        return signs + tuple(f"plane{h}" for h in self.harmonics)

    def _transform(self, values: np.ndarray) -> list[np.ndarray]:
        n = self.group.n
        batch = values.shape[1:]
        rows = values.reshape(2, n, *batch)  # f(s^t r^i) at [t, i]
        plus = np.fft.ifft(rows, axis=1, norm="forward")  # sum_i f(s^t r^i) omega^(h i)
        minus = np.fft.fft(rows, axis=1)  # sum_i f(s^t r^i) omega^(-h i)
        lines = [plus[0, 0] + plus[1, 0], plus[0, 0] - plus[1, 0]]
        if n % 2 == 0:
            lines += [plus[0, n // 2] + plus[1, n // 2], plus[0, n // 2] - plus[1, n // 2]]
        h = slice(1, (n + 1) // 2)  # the harmonics, sliced as views
        planes = np.stack([plus[0, h], minus[1, h], plus[1, h], minus[0, h]], axis=-1)
        return [np.array(lines).reshape(-1, *batch, 1, 1), planes.reshape(-1, *batch, 2, 2)]


@lru_cache(maxsize=None)
def irrep_catalog(group: FiniteGroup) -> IrrepCatalog:
    """Full irrep catalog for cataloged families; NotCataloged otherwise."""
    if isinstance(group, AbelianProductGroup):
        return _AbelianCatalog(group)
    if isinstance(group, DihedralGroup):
        return _DihedralCatalog(group)
    raise NotCataloged(f"no representation catalog for {group.name}")


class FourierCoefficient(NamedTuple):
    """Matrix Fourier coefficient of a function at one representation."""

    rep: UnitaryRepresentation
    matrix: np.ndarray

    @property
    def hs_norm(self) -> float:
        return float(np.sqrt((np.abs(self.matrix) ** 2).sum()))

    @property
    def op_norm(self) -> float:
        return float(operator_norms(self.matrix[None])[0])


def fourier_transform(f: GroupFunction, rep: UnitaryRepresentation) -> FourierCoefficient:
    """Matrix coefficient sum_g f(g) rho(g)."""
    if f.group != rep.group:
        raise GroupMismatch(f"function on {f.group.name}, rep on {rep.group.name}")
    matrix = np.tensordot(f.values.astype(np.complex128), rep.matrices, axes=(0, 0))
    return FourierCoefficient(rep, matrix)


def fourier_all(f: GroupFunction) -> list[FourierCoefficient]:
    catalog = irrep_catalog(f.group)
    matrices = [matrix for stack in catalog.coefficients(f) for matrix in stack]
    return [FourierCoefficient(rep, matrix) for rep, matrix in zip(catalog, matrices)]


def inverse_fourier(coeffs: list[FourierCoefficient]) -> GroupFunction:
    """Reconstruct f(g) = (1/|G|) sum_rho d_rho tr(fhat(rho) rho(g)) from all coefficients."""
    if not coeffs:
        raise IncompleteCatalog("no coefficients supplied")
    group = coeffs[0].rep.group
    supplied = {id(c.rep) for c in coeffs}
    if {id(r) for r in irrep_catalog(group).reps} != supplied:
        raise IncompleteCatalog("coefficients must cover the full catalog exactly")
    values = np.zeros(group.order, dtype=np.complex128)
    for coeff in coeffs:
        # tr(fhat rho(g^-1)) with rho(g^-1) = rho(g)^* by unitarity
        values += coeff.rep.dim * np.einsum(
            "ij,gij->g", coeff.matrix, coeff.rep.matrices.conj()
        )
    return GroupFunction(group, values / group.order)


def set_norm(s: GroupSubset, catalog: IrrepCatalog | None = None) -> float:
    """Largest operator norm of the set's Fourier coefficient over nontrivial irreps.

    This is the quantity whose square gives the singular gap via
    lambda1* = 1 - ||S||^2 / |S|^2; it is 0 for the full group and |S| <= bound.
    Without an explicit catalog a nonempty set reads the memoized spectral
    summary (one coefficient pass by FFT); an explicit catalog is looped over.
    """
    if catalog is None and s.size:
        from .spectra import spectral_summary  # spectra builds on this module

        norm = spectral_summary(s).norm
        if norm is None:
            raise NotCataloged(f"no representation catalog for {s.group.name}")
        return norm
    catalog = catalog or irrep_catalog(s.group)
    f = s.indicator()
    norms = [fourier_transform(f, rep).op_norm for rep in catalog.nontrivial()]
    return max(norms) if norms else 0.0


def d_min(group: FiniteGroup) -> int:
    """Minimal dimension of a nontrivial irreducible representation."""
    return irrep_catalog(group).d_min
