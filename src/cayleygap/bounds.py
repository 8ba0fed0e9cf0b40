"""Spectral-gap lower bounds for Cayley graphs and regular graphs.

Every bound is checked as a BoundReport: the formula side is exact rational
whenever the inputs are integers, the verifier reads the measured side itself
(set gaps and norms from ``spectra.spectral_summary``, weighted-operator and
graph gaps from a dense eigensolve), and the report records the slack and a
pass / vacuous-pass / fail verdict.  Each verifier alone certifies its
hypotheses (counts at least g off the exceptional set, path counts in graphs)
before the measured side is computed, raising HypothesisFail otherwise.
Representation counts are convolved once per (factors, d) and shared.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import EmptySet, HypothesisFail, NotRegular, RangeViolation
from .groups import (
    GroupFunction,
    GroupSubset,
    convolve,
    convolution_power,
    inverse_set,
    require_same_group,
)
from .representations import set_norm
from .spectra import _laplacian, lambda1, lambda1_of_function, lambda1_star, variational_lambda1

SLACK_TOL = 1e-9


class _BoundFields(NamedTuple):
    bound_name: str
    bound_value: float
    measured: float
    sense: str = ">="
    vacuous: bool = False
    parameters: Mapping = MappingProxyType({})  # read-only: no instance shares a dict
    bound_exact: Fraction | None = None


class BoundReport(_BoundFields):
    """One verified inequality instance.

    ``sense`` is the asserted relation between measured and bound value
    (">=" for gap lower bounds, "<=" for norm/deviation upper bounds); slack
    is the signed margin in the direction of the claim, so the invariant
    holds == (slack >= -1e-9) is uniform across senses.
    """

    __slots__ = ()  # no instance __dict__: the fields stay the only attributes

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.sense not in (">=", "<="):
            raise ValueError(f"sense must be '>=' or '<=', got {self.sense!r}")
        return self

    @property
    def slack(self) -> float:
        if self.sense == ">=":
            return self.measured - self.bound_value
        return self.bound_value - self.measured

    @property
    def holds(self) -> bool:
        return self.slack >= -SLACK_TOL

    @property
    def verdict(self) -> str:
        if not self.holds:
            return "fail"
        return "vacuous-pass" if self.vacuous else "pass"


def _exact(x) -> Fraction | None:
    """Fraction when the input is integral (int, integral float) or rational.
    Integers come first: numpy registers ``np.integer`` as ``Rational``, and a
    Fraction of an ``np.int64`` keeps that type and wraps in its arithmetic."""
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, (float, np.floating)) and float(x).is_integer():
        return Fraction(int(x))
    return None


def _rational(formula, g) -> tuple[float, Fraction | None]:
    """``formula`` of g as (float, exact): evaluated on Fraction(g) when ``_exact``
    gives one, so the float is that Fraction's, else on g itself with no exact side."""
    exact = _exact(g)
    if exact is None:
        return float(formula(g)), None
    exact = formula(exact)
    return float(exact), exact


# -- representation counts and exceptional sets -----------------------------


@lru_cache(maxsize=128)
def _count(factors: tuple[GroupSubset, ...], d: int) -> GroupFunction:
    """(1_F1 * ... * 1_Fm)^(d), convolved once per (factors, d); the result is read-only."""
    return convolution_power([f.indicator() for f in factors], d)


def rep_count(b: GroupSubset, d: int) -> GroupFunction:
    """B^(d): number of ways to write each element as a product of d elements of B."""
    if b.size == 0:
        raise EmptySet("rep_count of the empty set")
    return _count((b,), d)


def pair_rep_count(b1: GroupSubset, b2: GroupSubset, d: int) -> GroupFunction:
    """(B1 * B2)^(d) as a function; drives the convolution-pair hypotheses."""
    require_same_group(b1, b2)
    if b1.size == 0 or b2.size == 0:
        raise EmptySet("pair_rep_count with an empty factor")
    return _count((b1, b2), d)


def symmetrized_rep_count(b: GroupSubset, d: int) -> GroupFunction:
    """(B * B^-1)^(d), the standard hypothesis function for the norm bounds."""
    return pair_rep_count(b, inverse_set(b), d)


def exceptional_set(b: GroupSubset, d: int, g: float) -> GroupSubset:
    """Minimal exceptional set {x : B^(d)(x) < g} for threshold g."""
    counts = rep_count(b, d).values.real
    return GroupSubset(b.group, (counts < g).astype(np.int8))


# -- diameter and basis bounds ----------------------------------------------


def diameter_bound_value(set_size: int, d: int) -> Fraction:
    """Gap lower bound 1 / (2 d^2 |S|) from the diameter."""
    return Fraction(1, 2 * d * d * set_size)


def basis_bound_value(order: int, set_size: int, d: int) -> Fraction:
    """Gap lower bound |G| / (d |S|^d) for a basis of order d."""
    return Fraction(order, d * set_size**d)


def _gap_report(name: str, s: GroupSubset, d: int, formula) -> BoundReport:
    """Shared body of the plain gap bounds: S nonempty on a group of order > 1,
    then ``formula()`` against lambda1(S)."""
    if s.size == 0:
        raise EmptySet(f"{name} of the empty set")
    if s.group.order == 1:
        raise HypothesisFail(f"{name}: a one-point space has no nontrivial eigenvalue")
    exact = formula()
    return BoundReport(
        bound_name=name,
        bound_value=float(exact),
        bound_exact=exact,
        measured=lambda1(s),
        parameters={"group_order": s.group.order, "set_size": s.size, "d": d},
    )


def verify_diameter_bound(s: GroupSubset, d: int) -> BoundReport:
    return _gap_report("gap_vs_diameter", s, d, lambda: diameter_bound_value(s.size, d))


def verify_basis_bound(s: GroupSubset, d: int) -> BoundReport:
    return _gap_report("gap_vs_basis", s, d, lambda: basis_bound_value(s.group.order, s.size, d))


# -- basis bounds with an exceptional set ------------------------------------


def exceptional_bound_value(order: int, mass: int, d: int, g, omega_size: int) -> tuple[float, Fraction | None]:
    """g|G| / (d (mass + g|O|)^d) - g|O| / mass, where mass is |B| (or |B1||B2|)."""
    return _rational(lambda g: g * order / (d * (mass + g * omega_size) ** d) - g * omega_size / mass, g)


def _exceptional_report(
    name: str, what: str, counts: GroupFunction, d: int, g, omega, set_size: int, formula, measure
) -> BoundReport:
    """Shared body of the count-hypothesis bounds: certify counts >= g off omega,
    evaluate ``formula(omega_size)`` -> (bound, exact Fraction or None, extra
    parameters), which may raise HypothesisFail itself, and only then call
    ``measure`` for the gap; a one-point space has no gap to bound."""
    if counts.group.order == 1:
        raise HypothesisFail(f"{what}: a one-point space has no nontrivial eigenvalue")
    values = counts.values.real
    outside = values if omega is None else values[omega.membership == 0]
    if outside.size and outside.min() < g:
        raise HypothesisFail(
            f"{what}: representation count {outside.min()} below g={g} outside the exceptional set"
        )
    omega_size = 0 if omega is None else omega.size
    value, exact, extra = formula(omega_size)
    return BoundReport(
        bound_name=name,
        bound_value=value,
        bound_exact=exact,
        measured=measure(),
        vacuous=value <= 0,
        parameters={
            "group_order": counts.group.order, "set_size": set_size, "d": d, "g": g,
            "omega_size": omega_size, **extra,
        },
    )


def _exceptional_formula(order: int, mass: int, d: int, g):
    """``exceptional_bound_value`` for ``mass`` as a formula of |O|."""
    return lambda omega_size: (*exceptional_bound_value(order, mass, d, g, omega_size), {})


def verify_exceptional_bound(b: GroupSubset, d: int, g, omega: GroupSubset | None = None) -> BoundReport:
    """lambda1(Cay(B)) against the d-fold representation bound with exceptions."""
    return _exceptional_report(
        "gap_vs_basis_exceptional", "exceptional basis bound", rep_count(b, d), d, g, omega,
        b.size, _exceptional_formula(b.group.order, b.size, d, g), measure=lambda: lambda1(b),
    )


def verify_exceptional_bound_pair(
    b1: GroupSubset, b2: GroupSubset, d: int, g, omega: GroupSubset | None = None
) -> BoundReport:
    """Gap of the weighted Cayley operator of B1 * B2 with exceptions allowed."""
    mass = b1.size * b2.size
    return _exceptional_report(
        "gap_vs_basis_pair", "pair basis bound", pair_rep_count(b1, b2, d), d, g, omega,
        mass, _exceptional_formula(b1.group.order, mass, d, g),
        measure=lambda: lambda1_of_function(convolve(b1.indicator(), b2.indicator())),
    )


def verify_exceptional_bound_star(
    b: GroupSubset, d: int, g, omega: GroupSubset | None = None
) -> BoundReport:
    """Singular gap lambda1*(Cay(B)) against the B * B^-1 bound with exceptions."""
    return _exceptional_report(
        "star_gap_vs_basis_exceptional", "star basis bound", symmetrized_rep_count(b, d), d, g,
        omega, b.size, _exceptional_formula(b.group.order, b.size * b.size, d, g),
        measure=lambda: lambda1_star(b),
    )


# -- Fourier norm bound and uniform distribution -----------------------------


def fourier_norm_bound_value(order: int, set_size: int, d: int, g) -> float:
    """|B| (1 - g|G| / (d |B|^(2d)))^(1/2), an upper bound for nontrivial norms."""
    inner = 1.0 - float(g) * order / (d * float(set_size) ** (2 * d))
    if inner < 0:
        raise HypothesisFail("norm bound undefined: g|G| exceeds d |B|^(2d)")
    return set_size * float(np.sqrt(inner))


def verify_fourier_norm_bound(b: GroupSubset, d: int, g) -> BoundReport:
    """max nontrivial ||Bhat(rho)|| against the covering upper bound (sense <=)."""
    counts = symmetrized_rep_count(b, d).values.real
    if counts.min() < g:
        raise HypothesisFail(f"norm bound: (B*B^-1)^({d}) has minimum {counts.min()} < g={g}")
    value = fourier_norm_bound_value(b.group.order, b.size, d, g)
    return BoundReport(
        bound_name="fourier_norm_vs_covering",
        bound_value=value,
        measured=set_norm(b),
        sense="<=",
        vacuous=value >= b.size,
        parameters={"group_order": b.group.order, "set_size": b.size, "d": d, "g": g},
    )


def uniformity_error_bound(order: int, set_size: int, d: int, k: int) -> float:
    """(1 - |G| / (d |B|^(2d)))^(k/2) |B|^(k+1): deviation cap for B^(k+2)."""
    inner = 1.0 - order / (d * float(set_size) ** (2 * d))
    if inner < 0:
        raise HypothesisFail("uniformity bound undefined: |G| exceeds d |B|^(2d)")
    return float(inner ** (k / 2) * float(set_size) ** (k + 1))


def verify_uniformity(b: GroupSubset, d: int, k: int) -> BoundReport:
    """max_x |B^(k+2)(x) - |B|^(k+2)/|G|| against the explicit error bound."""
    counts = symmetrized_rep_count(b, d).values.real
    if counts.min() < 1:
        raise HypothesisFail(f"uniformity: (B*B^-1)^({d}) is not >= 1 everywhere")
    order = b.group.order
    values = rep_count(b, k + 2).values.astype(np.float64)
    deviation = float(np.abs(values - float(b.size) ** (k + 2) / order).max())
    bound = uniformity_error_bound(order, b.size, d, k)
    return BoundReport(
        bound_name="uniform_distribution_deviation",
        bound_value=bound,
        measured=deviation,
        sense="<=",
        parameters={"group_order": order, "set_size": b.size, "d": d, "k": k},
    )


# -- general regular graphs ---------------------------------------------------


class RegularGraph:
    """Finite graph with 0/1 adjacency and constant valency (loops allowed)."""

    def __init__(self, adjacency):
        adj = np.asarray(adjacency)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise NotRegular(f"adjacency must be square, got {adj.shape}")
        if not np.isin(adj, (0, 1)).all():
            raise NotRegular("adjacency entries must be 0 or 1")
        adj = adj.astype(np.int64)
        row = adj.sum(axis=1)
        col = adj.sum(axis=0)
        if row.min() != row.max() or col.min() != col.max() or row[0] != col[0]:
            raise NotRegular("graph is not regular: row/column sums differ")
        if row[0] == 0:
            raise NotRegular("valency must be positive")
        adj.flags.writeable = False
        self.adjacency = adj
        self.valency = int(row[0])

    @property
    def vertex_count(self) -> int:
        return self.adjacency.shape[0]


def graph_paths(graph: RegularGraph, d: int) -> np.ndarray:
    """M^d: entry (x, y) counts paths of length d from x to y.  No entry of any power
    up to the d-th exceeds valency^d, so the int64 product is exact below 2^63."""
    if d < 1:
        raise ValueError(f"path length must be >= 1, got {d}")
    if graph.valency ** min(d, 63) >= 2**63:  # a valency >= 2 reaches 2^63 by d = 63
        raise RangeViolation(f"path counts up to {graph.valency}^{d} overflow int64")
    return np.linalg.matrix_power(graph.adjacency, d)


def graph_lambda1(graph: RegularGraph) -> float:
    """Variational gap of I - M/valency on the mean-zero subspace."""
    return variational_lambda1(_laplacian(graph.adjacency, graph.valency))


def graph_bound_value(vertex_count: int, valency: int, d: int, g) -> tuple[float, Fraction | None]:
    """g|V| / (d * valency^d)."""
    return _rational(lambda g: g * vertex_count / (d * valency**d), g)


def verify_graph_bound(graph: RegularGraph, d: int, g) -> BoundReport:
    """lambda1(G) against g|V|/(d V^d) under the g-paths-of-length-d hypothesis,
    on at least two vertices."""
    if graph.vertex_count == 1:
        raise HypothesisFail("graph bound: a one-vertex graph has no nontrivial eigenvalue")
    paths = graph_paths(graph, d)
    if paths.min() < g:
        raise HypothesisFail(
            f"graph bound: minimum path count {paths.min()} below g={g} at length {d}"
        )
    value, exact = graph_bound_value(graph.vertex_count, graph.valency, d, g)
    return BoundReport(
        bound_name="graph_gap_vs_paths",
        bound_value=value,
        bound_exact=exact,
        measured=graph_lambda1(graph),
        vacuous=value <= 0,
        parameters={
            "vertex_count": graph.vertex_count,
            "valency": graph.valency,
            "d": d,
            "g": g,
        },
    )
