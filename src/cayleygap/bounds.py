"""Spectral-gap lower bounds for Cayley graphs and regular graphs.

Every bound is checked as a BoundReport: the formula side is exact rational
whenever the inputs are integers, the verifier reads the measured side itself
(set gaps and norms from ``spectra.spectral_summary``, weighted-operator and
graph gaps from a dense eigensolve), and the report records the slack and a
pass / vacuous-pass / fail verdict.  Each verifier alone certifies its
hypotheses (counts at least g off the exceptional set, path counts in graphs)
before the measured side is computed, raising HypothesisFail otherwise.
Representation counts are computed once per (factors, d) and shared: by FFT on
abelian groups where an a-priori rounding bound admits it, else by the gather.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import EmptySet, HypothesisFail, NotRegular, RangeViolation
from .groups import (
    AbelianProductGroup,
    GroupFunction,
    GroupSubset,
    _smallest_prime_factor,
    convolve,
    convolution_power,
    inverse_set,
    require_same_group,
)
from .representations import irrep_catalog, set_norm
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


_U = 2.0**-53  # unit roundoff of float64
_CMUL = math.sqrt(5) * _U  # relative error of one complex product (Brent, Percival, Zimmermann 2007)
_ROOT = 16 * _U  # |computed - exact| of a tabulated root of unity
_SCALE = 2 * _U / (1 - 2 * _U)  # gamma_2: the 1/n factor, rounded, and its product


def _pass_error(p: int) -> float:
    """eta_p: relative 2-norm error of one radix-p Cooley-Tukey pass, the butterfly
    sqrt(2p) ((1 + mu)(1 + u)^(2p) - 1) and the twiddle product (1 + mu)(1 + sqrt5 u)."""
    butterfly = math.sqrt(2 * p) * math.expm1(math.log1p(_ROOT) + 2 * p * math.log1p(_U))
    return (1 + butterfly) * (1 + _ROOT) * (1 + _CMUL) - 1


@lru_cache(maxsize=None)
def _fft_error(n: int) -> float:
    """E(n) = max(E_CT(n), E_B(n)): relative 2-norm error of a length-n transform,
    by mixed-radix Cooley-Tukey or by Bluestein, whichever pocketfft takes."""
    passes, rest = math.log1p(_SCALE), n
    while rest > 1:  # one pass per prime factor
        p = _smallest_prime_factor(rest)
        passes += math.log1p(_pass_error(p))
        rest //= p
    cooley_tukey = math.expm1(passes)
    # the padded length M' in [2n - 1, 4n) has only factors 2..11: bound per bit of M'
    per_bit = max(math.log1p(_pass_error(p)) / math.log2(p) for p in (2, 3, 5, 7, 11))
    padded = math.expm1(per_bit * math.log2(4 * n))
    chirp = (1 + _ROOT) * (1 + _CMUL) - 1
    kernel = (1 + _CMUL) * (1 + math.sqrt(2) * ((1 + padded) * (1 + _SCALE) * (1 + _ROOT) - 1)) - 1
    stages = (1 + chirp) ** 2 * (1 + padded) ** 2 * (1 + kernel) * (1 + _SCALE) - 1
    return max(cooley_tukey, (2 * n - 1) / math.sqrt(n) * stages)


def _count_error(factor_orders: tuple[int, ...], m: int, d: int, mass: int) -> float:
    """The a-priori bound of ``_count`` on max |computed - exact| of the FFT path."""
    if mass >= 2**64:  # refused, as the bound exceeds 2u mass, before mass can overflow a float
        return math.inf
    n = math.prod(factor_orders)
    eps = math.expm1(sum(math.log1p(_fft_error(k)) for k in factor_orders))
    k = m * d
    product = math.expm1((k - 1) * math.log1p(_CMUL))
    coefficients = math.expm1(k * math.log1p(eps * math.sqrt(n))) / math.sqrt(n)
    return mass * math.expm1(math.log1p(eps) + math.log1p(product) + math.log1p(coefficients))


@lru_cache(maxsize=128)
def _count(factors: tuple[GroupSubset, ...], d: int) -> GroupFunction:
    """(1_F1 * ... * 1_Fm)^(d) as int64 counts, computed once per (factors, d); the result is read-only.

    On a cyclic group or an abelian product the counts come from the catalog: one
    ``coefficients`` FFT per factor, the product of the k = m d coefficient vectors
    (k - 1 complex products), one ``_AbelianCatalog._inverse`` and ``np.rint``.  That
    path runs only when the a-priori bound below on the largest absolute error of the
    float counts is under 1/2, so rounding returns the exact integers; otherwise, and
    on every other group, the gather ``convolution_power`` runs.

    Bound.  With u = 2^-53, N = |G| = n_1 ... n_r (the factor orders), mass
    T = prod |F_i|^d and eps the relative 2-norm error of one catalog transform,
        max_x |computed(x) - count(x)|
            <= T [(1 + eps)(1 + sqrt5 u)^(k-1)(1 + ((1 + eps sqrt N)^k - 1) / sqrt N) - 1],
    with eps = prod_a (1 + E(n_a)) - 1 over the axes, E(n) = max(E_CT(n), E_B(n)), mu = 16u
    (tabulated roots of unity) and gamma_2 = 2u/(1 - 2u) (the 1/n scaling):
      - mixed-radix Cooley-Tukey, pocketfft's passes of radix 2, 3, 4, 5, 7, 8, 11 and
        its generic radix: E_CT(n) = (1 + gamma_2) prod_p (1 + eta_p) - 1 over the prime
        factors p of n with multiplicity (a radix-4 or radix-8 pass is its radix-2
        passes), eta_p = (1 + sqrt(2p)((1 + mu)(1 + u)^(2p) - 1))(1 + mu)(1 + sqrt5 u) - 1,
        modelling each butterfly output as a sum of p inputs along at most 2p roundings
        whose path coefficients have moduli summing to at most sqrt 2;
      - Bluestein, pocketfft's path for a length n >= 50 with a large prime factor (the
        primes 1009 and 1511 among them): a chirp product, a cyclic convolution of padded
        length M' in [2n - 1, 4n) (two Cooley-Tukey transforms of radices 2..11 and the
        product with the precomputed kernel spectrum, itself one such transform), a chirp
        product.  The stage norms multiply to 2n - 1 against ||F_n|| = sqrt n, so
        E_B(n) = ((2n - 1)/sqrt n)[(1 + w)^2 (1 + E_M)^2 (1 + e_K)(1 + gamma_2) - 1], with
        w = (1 + mu)(1 + sqrt5 u) - 1, E_M = exp(h log2(4n)) - 1 for h the largest
        log(1 + eta_p)/log2 p over p = 2..11, and
        e_K = (1 + sqrt5 u)(1 + sqrt2 ((1 + E_M)(1 + gamma_2)(1 + mu) - 1)) - 1.
    Each transform is a product of stages A_j evaluated in turn with error at most
    eta_j ||A_j|| ||v||, so its error is at most (prod (1 + eta_j) - 1) prod ||A_j|| ||x||:
    the argument of Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Thm 24.2, which Percival, Math. Comp. 72 (2003) 387-395, Thm 5.1, applies to an FFT
    convolution.  A complex product errs by at most sqrt5 u relative (Brent, Percival and
    Zimmermann, Math. Comp. 76 (2007) 1469-1481).  The exact coefficients a_j have
    ||a_j||_inf <= |F_j| and errors ||e_j||_2 <= eps sqrt(N |F_j|); telescoping the
    product bounds its 2-norm error by T sqrt N [(1 + sqrt5 u)^(k-1)(1 + R) - 1], with R the
    last term above; Parseval gives ||P||_2 = sqrt N ||count||_2 <= sqrt N T; the inverse
    adds eps times its input's norm over sqrt N, and max_x <= the 2-norm.  Underflow is
    left out: its absolute error, 2^-1074 per operation, is far below 1/2.
    """
    group = factors[0].group
    if d >= 1 and isinstance(group, AbelianProductGroup):
        catalog = irrep_catalog(group)
        mass = math.prod(f.size for f in factors) ** d
        if _count_error(catalog.factor_orders, len(factors), d, mass) < 0.5:
            return GroupFunction(group, np.rint(_fft_counts(catalog, factors, d).real).astype(np.int64))
    return convolution_power([f.indicator() for f in factors], d)


def _fft_counts(catalog, factors: tuple[GroupSubset, ...], d: int) -> np.ndarray:
    """The unrounded counts of ``_count`` on an abelian catalog, as complex floats."""
    chain = [catalog.coefficients(f.indicator())[0].reshape(-1) for f in factors] * d
    product = chain[0].copy()
    for coefficients in chain[1:]:
        product *= coefficients
    return catalog._inverse(product)


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


def _covering_deficit(b: GroupSubset, d: int, g, what: str) -> float:
    """1 - g|G| / (d |B|^(2d)) once (B*B^-1)^(d) >= g is certified; the
    nontrivial Fourier norms are at most |B| times its square root."""
    counts = symmetrized_rep_count(b, d).values.real
    if counts.min() < g:
        raise HypothesisFail(f"{what}: (B*B^-1)^({d}) has minimum {counts.min()} < g={g}")
    inner = 1.0 - float(g) * b.group.order / (d * float(b.size) ** (2 * d))
    if inner < 0:
        raise HypothesisFail(f"{what} undefined: g|G| exceeds d |B|^(2d)")
    return inner


def verify_fourier_norm_bound(b: GroupSubset, d: int, g) -> BoundReport:
    """max nontrivial ||Bhat(rho)|| against |B| (1 - g|G| / (d |B|^(2d)))^(1/2) (sense <=)."""
    value = b.size * float(np.sqrt(_covering_deficit(b, d, g, "norm bound")))
    return BoundReport(
        bound_name="fourier_norm_vs_covering",
        bound_value=value,
        measured=set_norm(b),
        sense="<=",
        vacuous=value >= b.size,
        parameters={"group_order": b.group.order, "set_size": b.size, "d": d, "g": g},
    )


def verify_uniformity(b: GroupSubset, d: int, k: int) -> BoundReport:
    """max_x |B^(k+2)(x) - |B|^(k+2)/|G|| against (1 - |G| / (d |B|^(2d)))^(k/2) |B|^(k+1)."""
    inner = _covering_deficit(b, d, 1, "uniformity bound")
    order = b.group.order
    values = rep_count(b, k + 2).values.astype(np.float64)
    deviation = float(np.abs(values - float(b.size) ** (k + 2) / order).max())
    return BoundReport(
        bound_name="uniform_distribution_deviation",
        bound_value=float(inner ** (k / 2) * float(b.size) ** (k + 1)),
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
