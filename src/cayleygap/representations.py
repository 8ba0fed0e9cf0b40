"""Irreducible unitary representations for cataloged group families and the
matrix Fourier transform.

Catalogs exist for cyclic groups, abelian products, and dihedral groups.
Generic groups deliberately get no numerically synthesized irreps; operations
that need the catalog raise NotCataloged.  The spectral engine
(``spectra.spectral_summary``) never builds the catalog of an abelian group,
whose nontrivial coefficients come from one FFT; it loops over the nontrivial
blocks of the other cataloged groups and diagonalizes the dense operator only
where ``irrep_catalog`` raises NotCataloged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GroupMismatch, IncompleteCatalog, NotCataloged
from .groups import (
    AbelianProductGroup,
    CyclicGroup,
    DihedralGroup,
    FiniteGroup,
    GroupFunction,
    GroupSubset,
)

UNITARITY_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-8


def operator_norm(matrix: np.ndarray) -> float:
    """Largest singular value; plain |z| for 1x1 blocks."""
    if matrix.shape == (1, 1):
        return float(abs(matrix[0, 0]))
    return float(np.linalg.svd(matrix, compute_uv=False)[0])


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
            diff = self.matrices - np.eye(self.dim)
            if self.dim == 1:
                cached = np.abs(diff[:, 0, 0])
            else:
                cached = np.linalg.svd(diff, compute_uv=False)[:, 0]
            cached.flags.writeable = False
            self._identity_distances = cached
        return cached

    def validation_residuals(self) -> dict:
        """Max deviations from the homomorphism, unitarity and orthogonality laws."""
        mats = self.matrices
        group = self.group
        eye = np.eye(self.dim)
        unitarity = float(
            np.abs(np.einsum("gij,gkj->gik", mats, mats.conj()) - eye).max()
        )
        identity_err = float(np.abs(mats[group.identity] - eye).max())
        table = group.mul_table
        n = group.order
        if n <= 256:
            products = np.einsum("aij,bjk->abik", mats, mats)
            homomorphism = float(np.abs(products - mats[table]).max())
        else:
            rng = np.random.default_rng(0)
            a = rng.integers(0, n, 4096)
            b = rng.integers(0, n, 4096)
            products = np.einsum("gij,gjk->gik", mats[a], mats[b])
            homomorphism = float(np.abs(products - mats[table[a, b]]).max())
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
        if res["identity"] > UNITARITY_TOL:
            raise ValueError(f"rep {self.label}: rho(e) != I ({res['identity']:.2e})")
        if res["unitarity"] > UNITARITY_TOL:
            raise ValueError(f"rep {self.label}: not unitary ({res['unitarity']:.2e})")
        if res["homomorphism"] > UNITARITY_TOL:
            raise ValueError(f"rep {self.label}: not a homomorphism ({res['homomorphism']:.2e})")
        if res["trace_orthogonality"] > ORTHOGONALITY_TOL:
            raise ValueError(
                f"rep {self.label}: trace orthogonality off by {res['trace_orthogonality']:.2e}"
            )


class IrrepCatalog:
    """Complete list of irreducible unitary representations of a group."""

    def __init__(self, group: FiniteGroup, reps: list[UnitaryRepresentation]):
        trivial = [r for r in reps if r.is_trivial]
        if len(trivial) != 1:
            raise ValueError(f"catalog needs exactly one trivial rep, got {len(trivial)}")
        if sum(r.dim**2 for r in reps) != group.order:
            raise ValueError("catalog dimension check failed: sum of d^2 != order")
        self.group = group
        self.reps = tuple(reps)
        self.trivial_index = reps.index(trivial[0])

    def __len__(self) -> int:
        return len(self.reps)

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
        return min(r.dim for r in self.nontrivial())

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


def _cyclic_catalog(group: CyclicGroup) -> IrrepCatalog:
    n = group.order
    x = np.arange(n)
    reps = []
    for r in range(n):
        values = np.exp(2j * np.pi * r * x / n)
        reps.append(
            UnitaryRepresentation(
                group, values.reshape(n, 1, 1), label=f"chi{r}", is_trivial=(r == 0)
            )
        )
    return IrrepCatalog(group, reps)


def _abelian_product_catalog(group: AbelianProductGroup) -> IrrepCatalog:
    digits = group.digit_matrix()  # (order, k)
    orders = np.array(group.factor_orders, dtype=np.float64)
    reps = []
    for label_idx in range(group.order):
        freq = np.array(group.decode(label_idx), dtype=np.float64)
        phases = (digits * (freq / orders)).sum(axis=1)
        values = np.exp(2j * np.pi * phases)
        reps.append(
            UnitaryRepresentation(
                group,
                values.reshape(group.order, 1, 1),
                label="chi" + "_".join(str(d) for d in group.decode(label_idx)),
                is_trivial=(label_idx == 0),
            )
        )
    return IrrepCatalog(group, reps)


def _dihedral_catalog(group: DihedralGroup) -> IrrepCatalog:
    n = group.n
    order = group.order
    t, i = np.divmod(np.arange(order), n)
    reps = [
        UnitaryRepresentation(
            group, np.ones((order, 1, 1), dtype=np.complex128), label="triv", is_trivial=True
        ),
        UnitaryRepresentation(
            group, ((-1.0) ** t).reshape(order, 1, 1).astype(np.complex128), label="reflection_sign"
        ),
    ]
    if n % 2 == 0:
        reps.append(
            UnitaryRepresentation(
                group, ((-1.0) ** i).reshape(order, 1, 1).astype(np.complex128), label="rotation_sign"
            )
        )
        reps.append(
            UnitaryRepresentation(
                group,
                ((-1.0) ** (t + i)).reshape(order, 1, 1).astype(np.complex128),
                label="mixed_sign",
            )
        )
    omega = np.exp(2j * np.pi / n)
    # plane rep h sends s^t r^i to swap^t @ diag(omega^h, omega^-h)^i
    for h in range(1, (n - 1) // 2 + 1 if n % 2 else n // 2):
        mats = np.zeros((order, 2, 2), dtype=np.complex128)
        rot = omega ** (h * i)
        mats[t == 0, 0, 0] = rot[t == 0]
        mats[t == 0, 1, 1] = rot[t == 0].conj()
        mats[t == 1, 0, 1] = rot[t == 1].conj()
        mats[t == 1, 1, 0] = rot[t == 1]
        reps.append(UnitaryRepresentation(group, mats, label=f"plane{h}"))
    return IrrepCatalog(group, reps)


@lru_cache(maxsize=None)
def irrep_catalog(group: FiniteGroup) -> IrrepCatalog:
    """Full irrep catalog for cataloged families; NotCataloged otherwise."""
    if isinstance(group, CyclicGroup):
        return _cyclic_catalog(group)
    if isinstance(group, AbelianProductGroup):
        return _abelian_product_catalog(group)
    if isinstance(group, DihedralGroup):
        return _dihedral_catalog(group)
    raise NotCataloged(f"no representation catalog for {group.name}")


@dataclass(frozen=True)
class FourierCoefficient:
    """Matrix Fourier coefficient of a function at one representation."""

    rep: UnitaryRepresentation
    matrix: np.ndarray

    @property
    def hs_norm(self) -> float:
        return float(np.sqrt((np.abs(self.matrix) ** 2).sum()))

    @property
    def op_norm(self) -> float:
        return operator_norm(self.matrix)


def fourier_transform(f: GroupFunction, rep: UnitaryRepresentation) -> FourierCoefficient:
    """Matrix coefficient sum_g f(g) rho(g)."""
    if f.group != rep.group:
        raise GroupMismatch(f"function on {f.group.name}, rep on {rep.group.name}")
    matrix = np.tensordot(f.values.astype(np.complex128), rep.matrices, axes=(0, 0))
    return FourierCoefficient(rep, matrix)


def fourier_all(f: GroupFunction) -> list[FourierCoefficient]:
    return [fourier_transform(f, rep) for rep in irrep_catalog(f.group)]


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
    summary (one FFT on abelian groups); an explicit catalog is looped over.
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
    catalog = irrep_catalog(group)
    if len(catalog) == 1:
        raise NotCataloged("trivial group has no nontrivial representation")
    return catalog.d_min
