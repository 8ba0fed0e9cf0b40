"""Bohr sets, large spectra, and the combinatorial characterizations of the gap.

Covers: Bohr set enumeration and calculus (sum rule, doubling, Ruzsa covering,
multi-frequency lower bound, regularity), the normalized convolution-mass
functional, the guaranteed interval search on Z/N, the progression and
Bohr-set characterizations of the gap in both directions, tail and size
bounds with normal-subgroup certification, and the basis bounds they imply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bounds import BoundReport, _exceptional_report, rep_count, symmetrized_rep_count
from .errors import (
    DeltaOutOfRange,
    EmptyRepList,
    EmptySet,
    GroupTooLarge,
    HypothesisFail,
    KZero,
    NegativeValues,
    NoneFound,
    NotAbelian,
    NotRegular,
    RangeViolation,
    SearchExhausted,
    TrivialRep,
    ZeroMass,
)
from .groups import (
    CyclicGroup,
    FiniteGroup,
    GroupFunction,
    GroupSubset,
    inverse_set,
    iterated_convolution,
    product_set,
    require_same_group,
)
from .representations import (
    UnitaryRepresentation,
    fourier_transform,
    irrep_catalog,
)
from .spectra import lambda1, lambda1_star

LOG32_2 = math.log(2.0, 1.5)  # exponent in the eps-size radius
LOG32_3 = math.log(3.0, 1.5)  # exponent in the certified nonabelian basis bound

_EXHAUSTIVE_SCAN_LIMIT = 300
_SCAN_SAMPLES = 100_000
NORMAL_SUBGROUP_CAP = 200

#: membership slack so radii sitting exactly on a distance value (norm 1.0 at
#: delta = 1, say) are not dropped by 1e-16 rounding in the norm computation
_MEMBERSHIP_TOL = 1e-12


def _require_form(form: str, *forms: str) -> None:
    """Reject a ``form`` argument outside the listed paper / certified forms."""
    if form not in forms:
        raise ValueError(f"unknown form {form!r}; choose from {', '.join(forms)}")


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and _smallest_prime_factor(n) == n


def _require_prime_cyclic(group: FiniteGroup, what: str) -> None:
    """Reject every group but Z/N with N prime; ``what`` names the caller."""
    if not isinstance(group, CyclicGroup) or not is_prime(group.order):
        raise HypothesisFail(f"{what} Z/N with N prime")


def _require_gap_window(d: int, delta: float) -> None:
    """The d >= 1, 0 < delta < 1 hypotheses of the gap characterizations."""
    if d < 1:
        raise KZero(f"need d >= 1, got {d}")
    if not (0 < delta < 1):
        raise HypothesisFail(f"delta must lie in (0,1), got {delta}")


# -- Bohr sets ----------------------------------------------------------------


@dataclass(frozen=True)
class BohrSet:
    """Elements g with ||rho(g) - I|| <= delta for every listed representation."""

    group: FiniteGroup
    reps: tuple[UnitaryRepresentation, ...]
    delta: float
    members: GroupSubset

    @property
    def size(self) -> int:
        return self.members.size


def bohr_set(reps, delta: float) -> BohrSet:
    """Enumerate the Bohr set of a representation list at radius delta."""
    if isinstance(reps, UnitaryRepresentation):
        reps = [reps]
    reps = tuple(reps)
    if not reps:
        raise EmptyRepList("Bohr set needs at least one representation")
    if delta <= 0:
        raise DeltaOutOfRange(f"Bohr radius must be positive, got {delta}")
    group = reps[0].group
    for rep in reps[1:]:
        if rep.group != group:
            raise EmptyRepList("all representations must live on one group")
    member = np.ones(group.order, dtype=bool)
    for rep in reps:
        member &= rep.identity_distances() <= delta + _MEMBERSHIP_TOL
    return BohrSet(group, reps, float(delta), GroupSubset(group, member.astype(np.int8)))


# -- normalized convolution mass in a set -------------------------------------


def convolution_share(p: GroupSubset, f: GroupFunction, d: int) -> float:
    """Share of the d-fold convolution mass of a nonnegative f landing in P."""
    require_same_group(p, f)
    if d < 1:
        raise KZero(f"convolution share needs d >= 1, got {d}")
    if not f.is_nonnegative():
        raise NegativeValues("convolution share needs a nonnegative function")
    mass = f.values.real.sum()
    if mass <= 0:
        raise ZeroMass("convolution share needs positive total mass")
    fd = iterated_convolution(f, d).values.real
    inside = float(fd[p.membership == 1].sum())
    return inside / float(mass) ** d


# -- guaranteed interval search on Z/N ----------------------------------------


@dataclass(frozen=True)
class Progression:
    """Arithmetic progression {start + j*step mod modulus : 0 <= j < length}."""

    modulus: int
    start: int
    step: int
    length: int

    def __post_init__(self):
        if not (1 <= self.length <= self.modulus):
            raise ValueError(f"progression length {self.length} out of range")

    def index_array(self) -> np.ndarray:
        return (self.start + self.step * np.arange(self.length)) % self.modulus

    def subset(self, group: CyclicGroup) -> GroupSubset:
        if group.order != self.modulus:
            raise ValueError("progression modulus does not match the group order")
        return GroupSubset.from_indices(group, self.index_array())

    def label(self) -> str:
        return f"AP(start={self.start},step={self.step},len={self.length})"


def _max_length_below(bound: float, cap: int) -> int:
    """Largest integer strictly below ``bound``, clipped to [0, cap]."""
    l = math.floor(bound)
    if l >= bound:
        l -= 1
    return max(0, min(l, cap))


def _max_length_at_most(bound: float, cap: int) -> int:
    """Largest integer at most ``bound``, clipped to [0, cap]."""
    return max(0, min(math.floor(bound + 1e-12), cap))


def find_covering_interval(a: GroupSubset, eps: float, delta: float) -> Progression:
    """Interval [x, x+l] with l < delta*N missing fewer than eps*|A| elements of A.

    Exhaustive over starts and lengths; existence is guaranteed under the
    Fourier hypothesis |Ahat(1)| >= (1 - 2 eps (1 - cos pi delta)) |A|, so
    SearchExhausted here is a genuine failure, never swallowed.
    """
    group = a.group
    _require_prime_cyclic(group, "interval search requires")
    if not (0 < eps < 1) or not (0 < delta < 0.5):
        raise HypothesisFail(f"need eps in (0,1) and delta in (0,1/2), got {eps}, {delta}")
    if a.size == 0:
        raise EmptySet("interval search on the empty set")
    n = group.order
    size = a.size
    coeff = abs(np.exp(2j * np.pi * np.arange(n) / n)[a.indices].sum())
    threshold = (1.0 - 2.0 * eps * (1.0 - math.cos(math.pi * delta))) * size
    if coeff < threshold - 1e-9:
        raise HypothesisFail(
            f"|Ahat(1)| = {coeff:.6g} below the required {threshold:.6g}"
        )
    member = a.membership.astype(np.int64)
    l_max = _max_length_below(delta * n, n - 1)
    doubled = np.concatenate([member, member])
    prefix = np.concatenate([[0], np.cumsum(doubled)])
    need = eps * size  # exceptions must be strictly below this
    for l in range(l_max + 1):
        inside = prefix[l + 1 : l + 1 + n] - prefix[:n]
        missing = size - inside
        starts = np.flatnonzero(missing < need - 1e-12)
        if starts.size:
            return Progression(modulus=n, start=int(starts[0]), step=1, length=l + 1)
    raise SearchExhausted(
        f"no interval with l <= {l_max} misses fewer than {need} elements"
    )


# -- progression scans ---------------------------------------------------------


def _max_cyclic_window(values: np.ndarray, length: int) -> tuple[float, int]:
    doubled = np.concatenate([values, values[: length - 1]]) if length > 1 else values
    prefix = np.concatenate([[0.0], np.cumsum(doubled)])
    sums = prefix[length:] - prefix[: values.size]
    t = int(np.argmax(sums))
    return float(sums[t]), t


def max_progression_mass(
    values: np.ndarray,
    max_terms: int,
    exhaustive: bool,
    seed: int = 0,
    samples: int = _SCAN_SAMPLES,
) -> tuple[float, Progression | None, str]:
    """Max mass of a nonnegative sequence over progressions with at most
    ``max_terms`` terms, exhaustively or by seeded sampling.

    Window sums of a nonnegative sequence grow with the term count, so the
    exhaustive maximum over all lengths up to L is attained at length L; only
    full-length windows are scanned per step.
    """
    n = values.size
    length = max(0, min(max_terms, n))
    if length == 0:
        return 0.0, None, "exhaustive" if exhaustive else "sampled"
    if n == 1:  # no step in 1..n-1 to scan or draw: the one term is the maximum
        return float(values[0]), Progression(1, 0, 1, 1), "exhaustive" if exhaustive else "sampled"
    if exhaustive:
        best = -1.0
        witness = None
        idx = np.arange(n)
        for q in range(1, n):
            permuted = values[(q * idx) % n]
            total, t = _max_cyclic_window(permuted, length)
            if total > best:
                best = total
                witness = Progression(modulus=n, start=int((q * t) % n), step=q, length=length)
        return best, witness, "exhaustive"
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, n, samples)
    steps = rng.integers(1, n, samples)
    offsets = np.arange(length)
    best = -1.0
    witness = None
    chunk = max(1, 10_000_000 // max(length, 1))
    for lo in range(0, samples, chunk):
        a = starts[lo : lo + chunk, None]
        q = steps[lo : lo + chunk, None]
        sums = values[(a + q * offsets) % n].sum(axis=1)
        j = int(np.argmax(sums))
        if sums[j] > best:
            best = float(sums[j])
            witness = Progression(
                modulus=n, start=int(starts[lo + j]), step=int(steps[lo + j]), length=length
            )
    return best, witness, "sampled"


def progression_scan(
    b: GroupSubset,
    d: int,
    delta: float,
    exhaustive: bool | None = None,
    seed: int = 0,
    endpoint_offset: bool = False,
) -> tuple[float, Progression | None, str]:
    """Worst mass share of B^(d) over short progressions.

    The progression family is |P| <= delta*N terms by default; with
    ``endpoint_offset`` it is the slightly larger family of intervals-of-sums
    [a, a+l] with offset l <= delta*N (one extra term when delta*N is not
    attained by a cardinality), which is the family the forward-direction
    argument actually produces when it splits off d-fold sums of a short
    interval.
    """
    group = b.group
    _require_prime_cyclic(group, "progression scans require")
    if b.size == 0:
        raise EmptySet("progression scan of the empty set")
    if exhaustive is None:
        exhaustive = group.order <= _EXHAUSTIVE_SCAN_LIMIT
    counts = rep_count(b, d).values.astype(np.float64)
    max_terms = _max_length_at_most(delta * group.order, group.order - 1)
    if endpoint_offset:
        max_terms = min(max_terms + 1, group.order)
    mass, witness, mode = max_progression_mass(counts, max_terms, exhaustive, seed)
    share = mass / float(b.size) ** d
    return share, witness, mode


def _share_parameters(b: GroupSubset, d: int, delta: float, alpha: float, extra: dict) -> dict:
    return {
        "group_order": b.group.order, "set_size": b.size, "d": d, "delta": delta,
        "alpha": alpha, **extra,
    }


def _forward_report(name, b, d, delta, alpha, share_max, where, bound, **extra) -> BoundReport:
    """Shared body of the forward directions: a worst mass share ``share_max``
    (attained ``where``) at most 1 - alpha forces lambda1 >= ``bound(alpha)``.

    Called after the scan: a supplied alpha that ``share_max`` refutes raises
    HypothesisFail before lambda1 is computed; without one, alpha is 1 - share_max."""
    if alpha is None:
        alpha = 1.0 - share_max
    elif share_max > 1.0 - alpha + 1e-12:
        raise HypothesisFail(
            f"mass share reaches {share_max:.6g} > 1 - alpha = {1 - alpha:.6g} at {where}"
        )
    value = bound(alpha)
    return BoundReport(
        bound_name=name,
        bound_value=value,
        measured=lambda1(b),
        vacuous=value <= 0,
        parameters=_share_parameters(b, d, delta, alpha, {"share_max": share_max, **extra}),
    )


def _reverse_report(name, b, d, delta, alpha, share_max, **extra) -> BoundReport:
    """Shared body of the reverse directions: the gap-derived alpha caps the
    worst mass share at 1 - alpha."""
    return BoundReport(
        bound_name=name,
        bound_value=1.0 - alpha,
        measured=share_max,
        sense="<=",
        vacuous=alpha <= 0,
        parameters=_share_parameters(b, d, delta, alpha, extra),
    )


def gap_from_progressions(
    b: GroupSubset,
    d: int,
    delta: float,
    alpha: float | None = None,
    exhaustive: bool | None = None,
    seed: int = 0,
) -> BoundReport:
    """Forward direction: a mass share <= 1 - alpha over short progressions forces
    lambda1 >= (2 alpha / d)(1 - cos(pi delta / d))."""
    _require_gap_window(d, delta)
    if delta >= d / 2:
        raise HypothesisFail(f"need delta < d/2, got delta={delta}, d={d}")
    share_max, witness, mode = progression_scan(b, d, delta, exhaustive, seed, endpoint_offset=True)
    label = witness.label() if witness else ""
    return _forward_report(
        "gap_vs_progression_mass", b, d, delta, alpha, share_max, label or "n/a",
        lambda a: (2.0 * a / d) * (1.0 - math.cos(math.pi * delta / d)),
        witness=label, scan=mode,
    )


def _progressions_from_gap(b, d, delta, scan, certified: bool) -> BoundReport:
    """Shared gap side of the reverse progression forms: alpha = (1 - decay - pi delta)/2,
    where decay is (1 - lambda1)^d, or (1 - lambda1*)^(d/2) when ``certified``."""
    _require_gap_window(d, delta)
    if certified:
        name, gap_key, gap = "progression_mass_vs_gap_certified", "lambda1_star", lambda1_star(b)
        decay = (1.0 - gap) ** (d / 2.0)
    else:
        name, gap_key, gap = "progression_mass_vs_gap", "lambda1", lambda1(b)
        decay = (1.0 - gap) ** d
    share_max, witness, mode = scan or progression_scan(b, d, delta)
    return _reverse_report(
        name, b, d, delta, (1.0 - decay - math.pi * delta) / 2.0, share_max,
        **{gap_key: gap}, witness=witness.label() if witness else "", scan=mode,
    )


def progressions_from_gap(
    b: GroupSubset,
    d: int,
    delta: float,
    scan: tuple[float, Progression | None, str] | None = None,
) -> BoundReport:
    """Reverse direction: alpha = (1 - (1-lambda1)^d - pi delta)/2 caps the
    convolution-mass share of every short progression at 1 - alpha.

    ``scan`` reuses a ``progression_scan(b, d, delta, ...)`` result, which
    both reverse forms share."""
    return _progressions_from_gap(b, d, delta, scan, certified=False)


def progressions_from_gap_certified(
    b: GroupSubset,
    d: int,
    delta: float,
    scan: tuple[float, Progression | None, str] | None = None,
) -> BoundReport:
    """Certified reverse direction through the singular gap.

    The linear form routes through (1 - lambda1)^d, which only controls the
    signed extreme of the character sums; a two-element progression-shaped
    set can put all of its d-fold mass inside a short progression while the
    Hermitian gap stays large, falsifying that cap.  The modulus of every
    nontrivial coefficient is exactly sqrt(1 - lambda1*) |B|, so
    alpha = (1 - (1 - lambda1*)^(d/2) - pi delta)/2 always works.
    """
    return _progressions_from_gap(b, d, delta, scan, certified=True)


# -- Bohr-set characterization (general groups) --------------------------------


def _bohr_share_scan(b: GroupSubset, d: int, delta: float) -> tuple[float, str]:
    """Worst mass share of (B*B^-1)^(d) on a one-frequency Bohr set of radius
    delta, and the label of its representation."""
    reps = irrep_catalog(b.group).nontrivial()
    if b.size == 0:
        raise EmptySet("Bohr scan of the empty set")
    fd = symmetrized_rep_count(b, d).values.real.astype(np.float64)
    total = float(b.size) ** (2 * d)
    shares = [float(fd[bohr_set(rep, delta).members.membership == 1].sum()) / total for rep in reps]
    if not shares:
        return 0.0, ""
    top = int(np.argmax(shares))
    return shares[top], reps[top].label


def gap_from_bohr_sets(
    b: GroupSubset,
    d: int,
    delta: float,
    alpha: float | None = None,
) -> BoundReport:
    """Forward direction: mass share of B*B^-1 at most 1 - alpha on every one-frequency
    Bohr set forces lambda1 >= alpha delta / (2 d^2)."""
    _require_gap_window(d, delta)
    share_max, worst = _bohr_share_scan(b, d, delta)
    return _forward_report(
        "gap_vs_bohr_mass", b, d, delta, alpha, share_max, f"Bohr({worst})",
        lambda a: a * delta / (2.0 * d * d), witness=worst,
    )


def bohr_sets_from_gap(b: GroupSubset, d: int, delta: float) -> BoundReport:
    """Reverse direction: alpha = (1 - (1-lambda1*)^d - delta)/2 caps the
    mass share of B*B^-1 on every one-frequency Bohr set."""
    _require_gap_window(d, delta)
    lam_star = lambda1_star(b)
    share_max, worst = _bohr_share_scan(b, d, delta)
    return _reverse_report(
        "bohr_mass_vs_gap", b, d, delta, (1.0 - (1.0 - lam_star) ** d - delta) / 2.0, share_max,
        lambda1_star=lam_star, witness=worst,
    )


# -- tail and size bounds -------------------------------------------------------


def bohr_tail_check(
    a: GroupSubset,
    rep: UnitaryRepresentation,
    eps: float,
    delta: float,
    form: str = "linear",
) -> BoundReport:
    """Mass of A*A^-1 outside Bohr(rho, delta), under the hypothesis
    ||Ahat(rho)|| >= (1 - eps)|A|, against the cap of ``form``.

    ``"linear"`` is the claimed (2 eps / delta) |A|^2.  It is not a theorem:
    an interval of length 6 in Z/37 at delta = 1/2 already overshoots it.
    ``"hermitian"`` is the certified (2/delta^2)(d - (1-eps)^2) |A|^2, the
    constant the Hermitian-part argument actually yields: outside the Bohr set
    only the squared distance ||rho(g) - I||^2 > delta^2 controls the real
    part 1 - cos(theta) > delta^2/2, and for dim > 1 the top singular
    direction of Ahat can be fixed by rho(g) even at distance 2, so only the
    trace of the Hermitian part is controlled.
    """
    _require_form(form, "linear", "hermitian")
    if a.size == 0:
        raise EmptySet("tail check of the empty set")
    if not (0 <= eps <= 1) or not (0 < delta <= 2):
        raise HypothesisFail(f"need eps in [0,1] and delta in (0,2], got {eps}, {delta}")
    norm = fourier_transform(a.indicator(), rep).op_norm
    if norm < (1.0 - eps) * a.size - 1e-9:
        raise HypothesisFail(
            f"||Ahat|| = {norm:.6g} below (1-eps)|A| = {(1 - eps) * a.size:.6g}"
        )
    conv = symmetrized_rep_count(a, 1).values.real
    outside = bohr_set(rep, delta).members.complement()
    tail = float(conv[outside.membership == 1].sum())
    if form == "linear":
        name, bound = "bohr_tail_mass", 2.0 * eps / delta * a.size**2
    else:
        name = "bohr_tail_mass_hermitian"
        bound = 2.0 / delta**2 * (rep.dim - (1.0 - eps) ** 2) * a.size**2
    return BoundReport(
        bound_name=name,
        bound_value=bound,
        measured=tail,
        sense="<=",
        parameters={
            "group_order": a.group.order,
            "set_size": a.size,
            "rep": rep.label,
            "eps": eps,
            "delta": delta,
        },
    )


@dataclass(frozen=True)
class BohrSizeThresholds:
    """Radii guaranteeing |Bohr| <= |G|/2, and <= eps|G| under certification."""

    dim: int
    half_radius: float

    def eps_radius(self, eps: float) -> float:
        scale = math.sqrt(3.0) if self.dim == 1 else math.sqrt(2.0 - 2.0 / self.dim)
        return scale * eps**LOG32_2


def bohr_size_thresholds(rep: UnitaryRepresentation) -> BohrSizeThresholds:
    if rep.is_trivial:
        raise TrivialRep("size thresholds need a nontrivial representation")
    if rep.dim == 1:
        half = math.sqrt(3.0) / 2.0
    else:
        half = math.sqrt(0.5) * math.sqrt(1.0 - 1.0 / rep.dim)
    return BohrSizeThresholds(dim=rep.dim, half_radius=half)


def check_bohr_half_size(rep: UnitaryRepresentation) -> BoundReport:
    thresholds = bohr_size_thresholds(rep)
    members = bohr_set(rep, thresholds.half_radius).size
    return BoundReport(
        bound_name="bohr_half_size",
        bound_value=rep.group.order / 2.0,
        measured=float(members),
        sense="<=",
        parameters={
            "group_order": rep.group.order,
            "rep": rep.label,
            "delta": thresholds.half_radius,
        },
    )


def check_bohr_eps_size(rep: UnitaryRepresentation, eps: float) -> BoundReport:
    """|Bohr(rho, delta_eps)| <= eps |G|, requiring the certified absence of
    normal proper subgroups of index at most 1/eps."""
    if not (0 < eps <= 0.5):
        raise HypothesisFail(f"eps must lie in (0, 1/2], got {eps}")
    cap = math.floor(1.0 / eps)
    witness = normal_subgroup_min_index(rep.group, cap)
    if witness is not None:
        raise HypothesisFail(
            f"{rep.group.name} has a normal proper subgroup of index {witness} <= 1/eps"
        )
    thresholds = bohr_size_thresholds(rep)
    radius = thresholds.eps_radius(eps)
    members = bohr_set(rep, radius).size if radius > 0 else 0
    return BoundReport(
        bound_name="bohr_eps_size",
        bound_value=eps * rep.group.order,
        measured=float(members),
        sense="<=",
        parameters={
            "group_order": rep.group.order,
            "rep": rep.label,
            "eps": eps,
            "delta": radius,
        },
    )


# -- normal subgroup enumeration ------------------------------------------------


def _subgroup_closure(group: FiniteGroup, seed_indices: frozenset[int]) -> frozenset[int]:
    # a finite subset of a group containing e and closed under products is a subgroup
    idx = np.unique(np.fromiter(seed_indices | {group.identity}, dtype=np.int64))
    while True:
        products = np.unique(group.mul(idx[:, None], idx[None, :]))
        if products.size == idx.size:
            return frozenset(int(x) for x in idx)
        idx = products


def normal_subgroup_min_index(group: FiniteGroup, cap: int) -> int | None:
    """Minimal index of a proper normal subgroup if it is at most cap, else None.

    Nonabelian groups are enumerated through the lattice of conjugacy-class
    closures; abelian groups always attain the smallest prime factor of the
    order, so that value is returned directly.
    """
    if group.order > NORMAL_SUBGROUP_CAP:
        raise GroupTooLarge(
            f"normal subgroup enumeration capped at order {NORMAL_SUBGROUP_CAP}"
        )
    if group.order == 1:
        return None
    if group.is_abelian:
        index = _smallest_prime_factor(group.order)
        return index if index <= cap else None
    classes = group.conjugacy_classes()
    trivial = frozenset({group.identity})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        current = frontier.pop()
        for cls in classes:
            if int(cls[0]) in current:
                continue
            grown = _subgroup_closure(group, current | frozenset(int(x) for x in cls))
            if grown not in found:
                found.add(grown)
                frontier.append(grown)
    proper = [len(sub) for sub in found if len(sub) < group.order]
    best = min(group.order // size for size in proper)
    return best if best <= cap else None


# -- large spectrum ---------------------------------------------------------------


@dataclass(frozen=True)
class LargeSpectrum:
    """Representations whose Fourier coefficient norm reaches eps |A|."""

    set_size: int
    eps: float
    indices: tuple[int, ...]
    labels: tuple[str, ...]
    norms: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.indices)


def large_spectrum(a: GroupSubset, eps: float) -> LargeSpectrum:
    catalog = irrep_catalog(a.group)
    norms = catalog.norms(a.indicator()).tolist()
    threshold = eps * a.size
    members = [i for i, v in enumerate(norms) if v >= threshold - 1e-12]
    return LargeSpectrum(
        set_size=a.size,
        eps=eps,
        indices=tuple(members),
        labels=tuple(catalog[i].label for i in members),
        norms=tuple(norms[i] for i in members),
    )


@dataclass(frozen=True)
class InclusionReport:
    """Outcome of an exhaustive inclusion check."""

    name: str
    checked: int
    failures: int
    vacuous: bool = False
    parameters: dict = field(default_factory=dict)
    pairs: tuple[tuple[int, int, int], ...] = ()  # failing (i, j, k) label triples

    @property
    def holds(self) -> bool:
        return self.failures == 0

    @property
    def verdict(self) -> str:
        if not self.holds:
            return "fail"
        return "vacuous-pass" if self.vacuous else "pass"


def large_spectrum_product_check(
    a: GroupSubset, eps1: float, eps2: float, form: str = "linear"
) -> InclusionReport:
    """Every product chi_i chi_j of a (1-eps1)-large and a (1-eps2)-large
    character stays large at the level of ``form``; misses are named as
    catalog index triples (i, j, k) with chi_k = chi_i chi_j.

    ``"linear"`` is the claimed level 1 - eps1 - eps2.  It is not a theorem:
    phase deviations of the two factors add like sqrt(eps), so two-element
    sets whose large characters sit near the +-1 directions break the
    inclusion already at small thresholds.  ``"cosine"`` is the certified
    level: for abelian groups |A|^2 - |Ahat(chi)|^2 equals the
    autocorrelation-weighted cosine deficit of chi, and 1 - cos(s + t) is at
    most 2(1 - cos s) + 2(1 - cos t), so products of large characters land in
    Spec_t with t = sqrt(max(0, 1 - 2(2 eps1 - eps1^2) - 2(2 eps2 - eps2^2))).
    """
    _require_form(form, "linear", "cosine")
    if form == "linear":
        name, target_level = "large_spectrum_product", 1.0 - eps1 - eps2
        vacuous = target_level <= 0
    else:
        name = "large_spectrum_product_cosine"
        radicand = 1.0 - 2.0 * (2 * eps1 - eps1**2) - 2.0 * (2 * eps2 - eps2**2)
        target_level = math.sqrt(radicand) if radicand > 0 else 0.0
        vacuous = radicand <= 0
    group = a.group
    if not group.is_abelian:
        raise NotAbelian("character products are defined for abelian groups here")
    norms = irrep_catalog(group).norms(a.indicator())
    size = a.size
    left = np.flatnonzero(norms >= (1.0 - eps1) * size - 1e-12)
    right = np.flatnonzero(norms >= (1.0 - eps2) * size - 1e-12)
    # abelian catalogs list characters in frequency order, so the index of
    # chi_i chi_j is the group product of the frequencies i and j
    product = group.mul(left[:, None], right[None, :])
    misses = np.argwhere(norms[product] < target_level * size - 1e-9)
    pairs = [(int(left[r]), int(right[c]), int(product[r, c])) for r, c in misses]
    return InclusionReport(
        name=name,
        checked=len(left) * len(right),
        failures=len(pairs),
        vacuous=vacuous,
        parameters={"eps1": eps1, "eps2": eps2, "left": len(left), "right": len(right)},
        pairs=tuple(pairs),
    )


# -- Bohr calculus -----------------------------------------------------------------


def bohr_sum_rule_check(reps, delta1: float, delta2: float) -> InclusionReport:
    """Bohr(d1) Bohr(d2) lands inside Bohr(d1 + d2)."""
    b1 = bohr_set(reps, delta1)
    b2 = bohr_set(reps, delta2)
    target = bohr_set(b1.reps, delta1 + delta2)
    produced = product_set(b1.members, b2.members)
    outside = produced.difference(target.members)
    return InclusionReport(
        name="bohr_sum_rule",
        checked=produced.size,
        failures=outside.size,
        vacuous=target.size == target.group.order,
        parameters={"delta1": delta1, "delta2": delta2},
    )


def bohr_symmetry_normality_check(reps, delta: float) -> InclusionReport:
    """Identity membership, closure under inverse, and conjugation invariance.

    B is conjugation invariant exactly when every conjugacy class lies wholly
    inside or wholly outside it; a violation counts once.
    """
    b = bohr_set(reps, delta)
    group = b.group
    failures = 0
    if group.identity not in b.members:
        failures += 1
    if b.members != inverse_set(b.members):
        failures += 1
    labels = group.class_labels()
    inside = np.bincount(labels, weights=b.members.membership)
    if np.any((inside > 0) & (inside < np.bincount(labels))):
        failures += 1
    return InclusionReport(
        name="bohr_symmetry_normality",
        checked=group.order + 2,
        failures=failures,
        parameters={"delta": delta, "size": b.size},
    )


def bohr_doubling_check(rep: UnitaryRepresentation, delta: float) -> BoundReport:
    """|Bohr * Bohr| / |Bohr| against 2^(21 d^2 / 2), for delta <= 2/5."""
    if not (0 < delta <= 0.4):
        raise DeltaOutOfRange(f"doubling bound needs delta in (0, 2/5], got {delta}")
    b = bohr_set(rep, delta).members
    doubled = product_set(b, b)
    ratio = doubled.size / b.size
    bound = 2.0 ** (21.0 * rep.dim**2 / 2.0)
    return BoundReport(
        bound_name="bohr_doubling_ratio",
        bound_value=bound,
        measured=ratio,
        sense="<=",
        parameters={
            "group_order": rep.group.order,
            "rep": rep.label,
            "delta": delta,
            "bohr_size": b.size,
        },
    )


@dataclass(frozen=True)
class CoveringReport:
    """Greedy Ruzsa covering of Bohr(delta) by translates of Bohr(delta/2)."""

    rep_label: str
    delta: float
    left_cover: tuple[int, ...]  # X with Bohr(delta) inside Bohr(delta/2) X
    right_cover: tuple[int, ...]  # Y with Bohr(delta) inside Y Bohr(delta/2)
    size_bound: float
    left_contained: bool
    right_contained: bool

    @property
    def holds(self) -> bool:
        return (
            self.left_contained
            and self.right_contained
            and len(self.left_cover) < self.size_bound
            and len(self.right_cover) < self.size_bound
        )


def ruzsa_covering(rep: UnitaryRepresentation, delta: float) -> CoveringReport:
    """Greedy covering witnesses: points whose quarter-radius translates are disjoint."""
    group = rep.group
    b = bohr_set(rep, delta).members
    quarter = bohr_set(rep, delta / 4.0).members
    half = bohr_set(rep, delta / 2.0).members
    b_idx = b.indices
    q_idx = quarter.indices

    def greedy(translates: np.ndarray) -> list[int]:
        # row i holds the cells of the quarter-radius translate at b_idx[i]
        occupied = np.zeros(group.order, dtype=bool)
        chosen: list[int] = []
        for x, cells in zip(b_idx, translates):
            if not occupied[cells].any():
                chosen.append(int(x))
                occupied[cells] = True
        return chosen

    x_cover = greedy(group.mul(q_idx[None, :], b_idx[:, None]))
    y_cover = greedy(group.mul(b_idx[:, None], q_idx[None, :]))
    x_set = GroupSubset.from_indices(group, x_cover)
    y_set = GroupSubset.from_indices(group, y_cover)
    left_ok = b.difference(product_set(half, x_set)).size == 0
    right_ok = b.difference(product_set(y_set, half)).size == 0
    return CoveringReport(
        rep_label=rep.label,
        delta=delta,
        left_cover=tuple(x_cover),
        right_cover=tuple(y_cover),
        size_bound=2.0 ** (25.0 * rep.dim**2),
        left_contained=left_ok,
        right_contained=right_ok,
    )


def multi_bohr_lower_bound_check(pairs) -> BoundReport:
    """|Bohr({rho_j}, delta_k)| >= prod |Bohr(rho_j, delta_j/2)| / |G|
    for radii sorted ascending."""
    pairs = list(pairs)
    if not pairs:
        raise EmptyRepList("need at least one (rep, delta) pair")
    deltas = [delta for _, delta in pairs]
    if any(d2 < d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ValueError("radii must be sorted ascending")
    reps = [rep for rep, _ in pairs]
    group = reps[0].group
    joint = bohr_set(reps, deltas[-1]).size
    product = 1.0
    for rep, delta in pairs:
        product *= bohr_set(rep, delta / 2.0).size
    bound = product / group.order
    return BoundReport(
        bound_name="multi_bohr_lower_bound",
        bound_value=bound,
        measured=float(joint),
        parameters={
            "group_order": group.order,
            "reps": ",".join(r.label for r in reps),
            "deltas": ",".join(f"{d:g}" for d in deltas),
        },
    )


# -- regular Bohr sets ---------------------------------------------------------------


def _distance_profile(rep: UnitaryRepresentation) -> np.ndarray:
    return np.sort(rep.identity_distances())


def _size_at(sorted_norms: np.ndarray, t: float) -> int:
    return int(np.searchsorted(sorted_norms, t, side="right"))


def _size_below(sorted_norms: np.ndarray, t: float) -> int:
    return int(np.searchsorted(sorted_norms, t, side="left"))


def is_regular(rep: UnitaryRepresentation, delta: float) -> bool:
    """Size varies at most by 100 d^2 |kappa| |Bohr| on the kappa window.

    The size of Bohr(rho, t) is a step function jumping exactly at the
    distinct values of ||rho(g) - I||, so the condition over the whole window
    reduces to finitely many checks at those jump radii.
    """
    if delta <= 0:
        raise DeltaOutOfRange(f"radius must be positive, got {delta}")
    norms = _distance_profile(rep)
    dim2 = rep.dim**2
    kappa_max = 1.0 / (100.0 * dim2)
    base = _size_at(norms, delta)
    if base == 0:
        return False
    allowance = 100.0 * dim2 * base
    # expanding side: jumps at norms v in (delta, (1+kappa_max) delta]
    lo = _size_at(norms, delta)
    hi = _size_at(norms, (1.0 + kappa_max) * delta)
    for v in np.unique(norms[lo:hi]):
        kappa = v / delta - 1.0
        if _size_at(norms, v) - base > allowance * kappa + 1e-9:
            return False
    # shrinking side: pieces just below each jump v in ((1-kappa_max) delta, delta]
    lo = _size_below(norms, (1.0 - kappa_max) * delta)
    hi = _size_at(norms, delta)
    for v in np.unique(norms[lo:hi]):
        if v <= (1.0 - kappa_max) * delta:
            continue
        kappa = 1.0 - v / delta
        if base - _size_below(norms, v) > allowance * kappa + 1e-9:
            return False
    # window endpoint on the shrinking side
    if base - _size_at(norms, (1.0 - kappa_max) * delta) > allowance * kappa_max + 1e-9:
        return False
    return True


#: uniform fallback radii tried by find_regular besides the jump midpoints
_REGULAR_GRID = 1024


def find_regular(rep: UnitaryRepresentation, delta: float) -> float:
    """First regular radius in [delta, 2 delta]; one exists for delta <= 1/2.

    Candidate radii are the midpoints of the jump-free intervals between
    consecutive distance values (sizes jump exactly at distance values, so a
    radius placed on a jump is never regular), plus a uniform fallback grid.
    """
    if not (0 < delta <= 0.5):
        raise DeltaOutOfRange(f"regular search needs delta in (0, 1/2], got {delta}")
    norms = _distance_profile(rep)
    inside = np.unique(norms[(norms > delta) & (norms < 2.0 * delta)])
    boundaries = np.concatenate(([delta], inside, [2.0 * delta]))
    candidates = list((boundaries[:-1] + boundaries[1:]) / 2.0)
    candidates = [delta] + candidates + [2.0 * delta]
    fallback = np.linspace(delta, 2.0 * delta, _REGULAR_GRID)
    for radius in sorted(set(candidates) | set(fallback.tolist())):
        if is_regular(rep, radius):
            return float(radius)
    raise NoneFound(f"no regular radius in [{delta}, {2 * delta}] for {rep.label}")


def regular_spectrum_check(
    rep: UnitaryRepresentation,
    delta: float,
    delta_prime: float,
    kappa: float,
    eps: float,
) -> InclusionReport:
    """Spec_eps(Bohr(rho, delta)) stays (1 - 2 kappa / eps)-large on the
    shrunken Bohr set, for regular delta and delta' <= kappa delta / (100 d^2)."""
    if not (0 < kappa < 1):
        raise RangeViolation(f"kappa must lie in (0,1), got {kappa}")
    if not (0 < eps <= 1):
        raise RangeViolation(f"eps must lie in (0,1], got {eps}")
    if delta_prime > kappa * delta / (100.0 * rep.dim**2) + 1e-15:
        raise RangeViolation(
            f"delta' = {delta_prime:.6g} exceeds kappa delta / (100 d^2)"
        )
    if not is_regular(rep, delta):
        raise NotRegular(f"Bohr({rep.label}, {delta:g}) is not regular")
    catalog = irrep_catalog(rep.group)
    b = bohr_set(rep, delta).members
    b_prime = bohr_set(rep, delta_prime).members
    target_level = 1.0 - 2.0 * kappa / eps
    vacuous = target_level <= 0
    large = catalog.norms(b.indicator()) >= eps * b.size - 1e-12
    shrunk = catalog.norms(b_prime.indicator()) < target_level * b_prime.size - 1e-9
    return InclusionReport(
        name="regular_bohr_spectrum",
        checked=int(large.sum()),
        failures=int((large & shrunk).sum()),
        vacuous=vacuous,
        parameters={
            "rep": rep.label,
            "delta": delta,
            "delta_prime": delta_prime,
            "kappa": kappa,
            "eps": eps,
        },
    )


# -- basis corollaries in progression / Bohr form ------------------------------------


def _basis_report(name: str, what: str, count, b, d, g, omega, formula) -> BoundReport:
    """Shared body of the basis corollaries: d >= 2, then the count hypothesis on
    ``count(b, d)`` off omega and ``formula`` against lambda1(B)."""
    if d < 2:
        raise HypothesisFail(f"need d >= 2, got {d}")
    return _exceptional_report(
        name, what, count(b, d), d, g, omega, b.size, formula, measure=lambda: lambda1(b)
    )


def verify_progression_basis_bound(
    b: GroupSubset,
    d: int,
    g,
    omega: GroupSubset | None = None,
    form: str = "omega",
) -> BoundReport:
    """Abelian basis bound on Z/N, N prime, in the form ``form``.

    ``"omega"``: g(N - 2|O|)(1 - cos(pi/2d)) / (d|B|^d).
    ``"eps"``: writing |O| = (1-eps)N, eps g N (1 - cos(eps pi / 2d)) / (d|B|^d).
    """
    _require_form(form, "omega", "eps")
    _require_prime_cyclic(b.group, "progression basis bound requires")
    n = b.group.order

    def formula(omega_size):
        if form == "omega":
            factor = 1.0 - math.cos(math.pi / (2 * d))
            return float(g) * (n - 2 * omega_size) * factor / (d * float(b.size) ** d), None, {}
        eps = Fraction(n - omega_size, n)
        factor = 1.0 - math.cos(float(eps) * math.pi / (2 * d))
        return float(eps) * float(g) * n * factor / (d * float(b.size) ** d), None, {"eps": float(eps)}

    name = "gap_vs_progression_basis" + ("_eps" if form == "eps" else "")
    what = "progression basis bound" + (" (eps form)" if form == "eps" else "")
    return _basis_report(name, what, rep_count, b, d, g, omega, formula)


def verify_bohr_basis_bound(b: GroupSubset, d: int, g, omega: GroupSubset | None = None) -> BoundReport:
    """Nonabelian basis bound g(|G| - 2|O|) / (8 d^2 |B|^(2d)) from B*B^-1 counts,
    exact as a Fraction when g is integral."""
    order = b.group.order

    def formula(omega_size):
        if float(g).is_integer():
            exact = Fraction(Fraction(g) * (order - 2 * omega_size), 8 * d * d * b.size ** (2 * d))
            return float(exact), exact, {}
        return float(g) * (order - 2 * omega_size) / (8 * d * d * float(b.size) ** (2 * d)), None, {}

    return _basis_report(
        "gap_vs_bohr_basis", "Bohr basis bound", symmetrized_rep_count, b, d, g, omega, formula
    )


def verify_bohr_basis_bound_certified(b: GroupSubset, d: int, g, omega: GroupSubset) -> BoundReport:
    """Certified form: no normal proper subgroup of index <= 2/eps lifts the
    bound to eps^(log_{3/2} 3) g |G| / (16 d^2 |B|^(2d))."""
    order = b.group.order

    def formula(omega_size):
        eps = Fraction(order - omega_size, order)
        if eps <= 0:
            raise HypothesisFail("exceptional set covers the whole group")
        witness = normal_subgroup_min_index(b.group, math.floor(2.0 / float(eps)))
        if witness is not None:
            raise HypothesisFail(
                f"{b.group.name} has a normal proper subgroup of index {witness} <= 2/eps"
            )
        value = float(eps) ** LOG32_3 * float(g) * order / (16 * d * d * float(b.size) ** (2 * d))
        return value, None, {"eps": float(eps)}

    return _basis_report(
        "gap_vs_bohr_basis_certified", "certified Bohr basis bound", symmetrized_rep_count,
        b, d, g, omega, formula,
    )
