"""Bohr sets, large spectra, and the combinatorial characterizations of the gap.

Covers: Bohr set enumeration and calculus (sum rule, doubling, Ruzsa covering,
multi-frequency lower bound, regularity), the normalized convolution-mass
functional, the guaranteed interval search on Z/N, the progression and
Bohr-set characterizations of the gap in both directions, tail and size
bounds with normal-subgroup certification, and the basis bounds they imply.
Every check reports a ``bounds.BoundReport``: an inclusion as its failure
count against 0, the Ruzsa covering as its cover size against a strict bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

import numpy as np

from .bounds import BoundReport, _exceptional_report, _rational, rep_count, symmetrized_rep_count
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
    _int_dtype,
    _smallest_prime_factor,
    generated_subgroup,
    iterated_convolution,
    require_same_group,
)
from .representations import (
    UnitaryRepresentation,
    fourier_transform,
    irrep_catalog,
)
from .sampling import SeededStream
from .spectra import lambda1, lambda1_star

LOG32_2 = math.log(2.0, 1.5)  # exponent in the eps-size radius
LOG32_3 = math.log(3.0, 1.5)  # exponent in the certified nonabelian basis bound

_EXHAUSTIVE_SCAN_LIMIT = 300
_SCAN_SAMPLES = 100_000
_SCAN_BLOCK_CELLS = 2**15  # gathered cells of one block of steps in a progression scan
NORMAL_SUBGROUP_CAP = 200

#: membership slack so radii sitting exactly on a distance value (norm 1.0 at
#: delta = 1, say) are not dropped by 1e-16 rounding in the norm computation
_MEMBERSHIP_TOL = 1e-12


def _require_form(form: str, *forms: str) -> None:
    """Reject a ``form`` argument outside the listed paper / certified forms."""
    if form not in forms:
        raise ValueError(f"unknown form {form!r}; choose from {', '.join(forms)}")


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
#
# Every Bohr check runs as a row kernel over a (k, |G|) matrix of distances
# ||rho(g) - I||, one row per item: a representation, or a list of them whose
# row is the elementwise max, so that its Bohr sets are the joint ones. The
# public one-item checks are their kernel applied to one row.

#: pairs formed per gather when the row kernels build product sets: a run's
#: temporaries take about 40 bytes a pair on a dihedral group, so a run holds
#: about 0.65 MiB; halving it slows a 4.7e7-pair product set by about 15%
_PAIR_CHUNK = 1 << 14


def _require_radius(radius) -> None:
    if radius <= 0:
        raise DeltaOutOfRange(f"Bohr radius must be positive, got {radius}")


def _profiles(items, radius=None) -> tuple[FiniteGroup, np.ndarray]:
    """The group and the distance rows of ``items``, each a representation or
    a list of them; ``radius``, when given, is checked as ``bohr_set`` checks
    it: after the emptiness check and before the group check."""
    items = [(item,) if isinstance(item, UnitaryRepresentation) else tuple(item) for item in items]
    if not items or not all(items):
        raise EmptyRepList("Bohr set needs at least one representation")
    if radius is not None:
        _require_radius(radius)
    group = items[0][0].group
    if any(rep.group != group for item in items for rep in item):
        raise EmptyRepList("all representations must live on one group")
    return group, np.stack([reduce(np.maximum, [rep.identity_distances() for rep in item]) for item in items])


def _members(rows: np.ndarray, radius) -> np.ndarray:
    """Bohr membership masks of the rows at ``radius``: one value, or one per row."""
    return rows <= np.reshape(radius, (-1, 1)) + _MEMBERSHIP_TOL


def _product_rows(group: FiniteGroup, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Row-wise product sets: row r is the mask of {xy : x in left[r], y in right[r]}.

    One ragged gather over all (row, x, y) triples, cut into runs of whole
    left entries of at most ``_PAIR_CHUNK`` pairs (or one entry, if larger).
    Elements and cells are int32 below 2^31 cells; pair numbers are int64."""
    k, n = left.shape
    dtype = _int_dtype(k * n)
    x_row, x = (index.astype(dtype) for index in np.nonzero(left))
    width = np.count_nonzero(right, axis=1).astype(dtype)
    y = np.nonzero(right)[1].astype(dtype)
    pairs = width[x_row]
    ends = np.cumsum(pairs, dtype=np.int64)
    # pairs are numbered across the entries, entry j's from ends[j] - pairs[j]; its pair p
    # takes y[p + skew[j]], so its pairs walk its row's members of ``right`` from the first
    skew = (np.cumsum(width, dtype=np.int64) - width)[x_row] - (ends - pairs)
    produced = np.zeros(k * n, dtype=bool)
    lo = 0
    while lo < x.size:
        start = ends[lo] - pairs[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, start + _PAIR_CHUNK, side="right")))
        count = pairs[lo:hi]
        ys = y[np.repeat(skew[lo:hi], count) + np.arange(start, ends[hi - 1])]
        product = group.mul(np.repeat(x[lo:hi], count), ys)
        product += np.repeat(x_row[lo:hi] * n, count)
        produced[product] = True
        lo = hi
    return produced.reshape(k, n)


def bohr_set(reps, delta: float) -> GroupSubset:
    """The elements g with ||rho(g) - I|| <= delta for every listed representation."""
    group, rows = _profiles([reps], delta)
    return GroupSubset(group, _members(rows, delta)[0].astype(np.int8))


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


class _ProgressionFields(NamedTuple):
    modulus: int
    start: int
    step: int
    length: int


class Progression(_ProgressionFields):
    """Arithmetic progression {start + j*step mod modulus : 0 <= j < length}."""

    __slots__ = ()  # no instance __dict__: the fields stay the only attributes

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (1 <= self.length <= self.modulus):
            raise ValueError(f"progression length {self.length} out of range")
        return self

    def index_array(self) -> np.ndarray:
        return (self.start + self.step * np.arange(self.length)) % self.modulus

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
    strict Fourier hypothesis |Ahat(1)| > (1 - 2 eps (1 - cos pi delta)) |A|, so
    SearchExhausted here is a genuine failure, never swallowed.  At equality
    the bound allows exactly eps|A| misses, not fewer: A = {0, 1, 2} on Z/5 at
    eps = 1/3, delta = 0.4 has no such interval, so equality fails the hypothesis.
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
    if not coeff > threshold + 1e-9:
        raise HypothesisFail(
            f"|Ahat(1)| = {coeff:.6g} not above the required {threshold:.6g}"
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


def max_progression_mass(
    values: np.ndarray,
    max_terms: int,
    exhaustive: bool,
    seed: int = 0,
    samples: int = _SCAN_SAMPLES,
) -> tuple[float, Progression | None, str]:
    """Max mass of a nonnegative sequence on Z/n (n prime, or 1) over
    progressions with at most ``max_terms`` terms, exhaustively or over
    ``samples`` seeded (start, step) draws.

    Window sums of a nonnegative sequence grow with the term count, so the
    maximum over all lengths up to L is attained at length L; only
    full-length windows are summed, and a negative or non-finite entry is
    refused.  Step n - q is step q read backwards (its window from start s is
    step q's window from s - (L-1) q), so only the n//2 steps q <= n/2 are
    scanned: blocks of about 2^15 cells gather ``values[(q * t) % n]`` for a
    run of steps, and each row's n cyclic windows are read from one prefix
    sum of its n terms (a window that wraps adds the row's total).  The
    smallest maximizing step is <= n/2, so the exhaustive witness (first
    step, then first window) is that of the full scan.  A sampled draw
    (s, k) is kept as drawn and read in the block of its folded step
    q = min(k, n - k): its window index is s q^-1 mod n, less L - 1 when
    k = n - q.  Each block keeps only its first maximizing draw (in the
    order drawn), and the witness is that draw's own (start, step).  Both
    modes take Theta(n^2) time and O(block + samples) memory.  Window sums
    equal directly gathered sums when ``values`` are integers held in
    float64 with total below 2^53 (as ``rep_count`` counts are).
    """
    n = values.size
    mode = "exhaustive" if exhaustive else "sampled"
    if not np.isfinite(values).all():
        raise RangeViolation("progression scans need finite values")
    if (values < 0).any():
        raise NegativeValues("progression scans need nonnegative values")
    if not exhaustive and samples < 1:
        raise ValueError(f"a sampled progression scan needs samples >= 1, got {samples}")
    if n > 1 and not is_prime(n):  # a non-unit step would miss whole cosets of starts
        raise HypothesisFail(f"progression scans need a prime modulus, got {n}")
    length = max(0, min(max_terms, n))
    if length == 0:
        return 0.0, None, mode
    if n == 1:  # no step in 1..n-1 to scan or draw: the one term is the maximum
        return float(values[0]), Progression(1, 0, 1, 1), mode
    half = n // 2
    best, witness = -1.0, None
    if not exhaustive:
        rng = SeededStream(seed)
        start = rng.integers(0, n, samples).astype(np.int32)  # with step: 6 bytes a draw below n = 2^15
        step = rng.integers(1, n, samples).astype(np.int16 if n < 2**15 else np.int32)
        folded = np.minimum(step, n - step)
        order = np.argsort(folded, kind="stable").astype(np.int32)
        # once sorted, the draws of folded step q are those in edges[q] : edges[q + 1]
        edges = np.concatenate([[0], np.cumsum(np.bincount(folded, minlength=half + 1))])
        del folded
        start, step = start[order], step[order]  # each block then reads one run of draws
        inverse = np.array([0] + [pow(q, -1, n) for q in range(1, half + 1)], dtype=np.int64)
    rows = min(half, max(1, _SCAN_BLOCK_CELLS // (n + 1)))
    terms = np.arange(n)
    padded = np.append(values, 0.0)
    # column 0 reads padded[n] = 0, so each prefix row starts empty
    at = np.full((rows, n + 1), n, dtype=np.intp)
    quotient = np.empty((rows, n), dtype=np.intp)
    prefix = np.empty((rows, n + 1))
    windows = np.empty((rows, n))
    cut = n - length + 1  # the windows from t >= cut wrap past the row's end
    for q0 in range(1, half + 1, rows):
        k = min(rows, half + 1 - q0)
        qt = at[:k, 1:]
        np.multiply(np.arange(q0, q0 + k)[:, None], terms, out=qt)
        # q t mod n as q t - n (q t // n), about twice as fast as %:
        # numpy floor-divides by a scalar with a precomputed multiplier
        np.floor_divide(qt, n, out=quotient[:k])
        np.multiply(quotient[:k], n, out=quotient[:k])
        np.subtract(qt, quotient[:k], out=qt)  # window t of step q starts at qt[q - q0, t]
        block = np.take(padded, at[:k], out=prefix[:k], mode="clip")
        np.cumsum(block, axis=1, out=block)  # block[:, j]: the sum of the row's first j terms
        w = windows[:k]
        np.subtract(block[:, length:], block[:, :cut], out=w[:, :cut])
        np.subtract(block[:, n:], block[:, cut:n], out=w[:, cut:])
        np.add(w[:, cut:], block[:, 1:length], out=w[:, cut:])
        if exhaustive:
            tops = w.max(axis=1)
            r = int(np.argmax(tops))  # the first step of the block that attains its maximum
            if tops[r] > best:
                best = float(tops[r])
                top = int(np.argmax(w[r]))
                witness = Progression(modulus=n, start=int(qt[r, top]), step=q0 + r, length=length)
        else:
            drawn = slice(edges[q0], edges[q0 + k])
            drawn_step = step[drawn]
            q = np.minimum(drawn_step, n - drawn_step)
            t = inverse[q]  # int64, as s q^-1 outgrows int32 above n = 46341
            t *= start[drawn]
            t -= (length - 1) * (drawn_step > half)  # step n - q from s: step q's window L - 1 earlier
            t %= n
            sums = w[q - q0, t]
            if sums.size and sums.max() >= best:
                peak = sums.max()
                tied = drawn.start + np.flatnonzero(sums == peak)
                j = tied[np.argmin(order[tied])]  # the block's first maximizing draw, in the order drawn
                if peak > best or order[j] < first:
                    best, first = float(peak), order[j]
                    witness = Progression(modulus=n, start=int(start[j]), step=int(step[j]), length=length)
    return best, witness, mode


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
    HypothesisFail before lambda1 is computed; without one, alpha is 1 - share_max.
    A one-point space has no gap to bound."""
    if b.group.order == 1:
        raise HypothesisFail(f"{name}: a one-point space has no nontrivial eigenvalue")
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
    if not reps:
        return 0.0, ""
    fd = symmetrized_rep_count(b, d).values.real.astype(np.float64)
    _, rows = _profiles(reps, delta)
    shares = _members(rows, delta) @ fd / float(b.size) ** (2 * d)  # integer sums, exact below 2^53
    top = int(np.argmax(shares))
    return float(shares[top]), reps[top].label


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
    outside = bohr_set(rep, delta).complement()
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


class BohrSizeThresholds(NamedTuple):
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


def bohr_half_size_rows(reps) -> list[BoundReport]:
    """Per representation: |Bohr(rho, half radius)| <= |G|/2."""
    radii = [bohr_size_thresholds(rep).half_radius for rep in reps]
    group, rows = _profiles(reps)
    return [
        BoundReport(
            bound_name="bohr_half_size",
            bound_value=group.order / 2.0,
            measured=float(members),
            sense="<=",
            parameters={"group_order": group.order, "rep": rep.label, "delta": radius},
        )
        for rep, radius, members in zip(reps, radii, np.count_nonzero(_members(rows, radii), axis=1))
    ]


def check_bohr_half_size(rep: UnitaryRepresentation) -> BoundReport:
    return bohr_half_size_rows([rep])[0]


def require_eps(eps: float) -> None:
    """Raise RangeViolation for an eps outside (0, 1/2], where the eps-size lemma holds."""
    if not (0 < eps <= 0.5):
        raise RangeViolation(f"eps must lie in (0, 1/2], got {eps}")


def bohr_eps_size_rows(reps, eps: float) -> list[BoundReport]:
    """Per representation: |Bohr(rho, delta_eps)| <= eps |G|, requiring the
    certified absence of normal proper subgroups of index at most 1/eps."""
    require_eps(eps)
    group, rows = _profiles(reps)
    witness = normal_subgroup_min_index(group, math.floor(1.0 / eps))
    if witness is not None:
        raise HypothesisFail(
            f"{group.name} has a normal proper subgroup of index {witness} <= 1/eps"
        )
    radii = np.array([bohr_size_thresholds(rep).eps_radius(eps) for rep in reps])
    members = np.where(radii > 0, np.count_nonzero(_members(rows, radii), axis=1), 0)
    return [
        BoundReport(
            bound_name="bohr_eps_size",
            bound_value=eps * group.order,
            measured=float(count),
            sense="<=",
            parameters={"group_order": group.order, "rep": rep.label, "eps": eps, "delta": float(radius)},
        )
        for rep, radius, count in zip(reps, radii, members)
    ]


def check_bohr_eps_size(rep: UnitaryRepresentation, eps: float) -> BoundReport:
    """|Bohr(rho, delta_eps)| <= eps |G|, requiring the certified absence of
    normal proper subgroups of index at most 1/eps."""
    return bohr_eps_size_rows([rep], eps)[0]


# -- normal subgroup enumeration ------------------------------------------------


def normal_subgroup_min_index(group: FiniteGroup, cap: int) -> int | None:
    """Minimal index of a proper normal subgroup if it is at most cap, else None.

    Nonabelian groups enumerate the normal subgroups that unions of conjugacy
    classes generate (``generated_subgroup``), up to order NORMAL_SUBGROUP_CAP;
    abelian groups of any order attain the smallest prime factor of the order,
    so that value is returned directly.
    """
    if group.order == 1:
        return None
    if group.is_abelian:
        index = _smallest_prime_factor(group.order)
        return index if index <= cap else None
    if group.order > NORMAL_SUBGROUP_CAP:
        raise GroupTooLarge(
            f"normal subgroup enumeration capped at order {NORMAL_SUBGROUP_CAP}"
        )
    classes = group.conjugacy_classes()
    trivial = frozenset({group.identity})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        current = frontier.pop()
        for cls in classes:
            if int(cls[0]) in current:
                continue
            grown = frozenset(np.flatnonzero(generated_subgroup(group, [*current, *cls])).tolist())
            if grown not in found:
                found.add(grown)
                frontier.append(grown)
    proper = [len(sub) for sub in found if len(sub) < group.order]
    best = min(group.order // size for size in proper)
    return best if best <= cap else None


# -- large spectrum ---------------------------------------------------------------


class LargeSpectrum(NamedTuple):
    """Representations whose Fourier coefficient norm reaches eps |A|."""

    set_size: int
    eps: float
    indices: tuple[int, ...]
    labels: tuple[str, ...]
    norms: tuple[float, ...]


def large_spectrum(a: GroupSubset, eps: float) -> LargeSpectrum:
    catalog = irrep_catalog(a.group)
    norms = catalog.norms(a.indicator()).tolist()
    threshold = eps * a.size
    members = [i for i, v in enumerate(norms) if v >= threshold - 1e-12]
    return LargeSpectrum(
        set_size=a.size,
        eps=eps,
        indices=tuple(members),
        labels=tuple(catalog.labels[i] for i in members),
        norms=tuple(norms[i] for i in members),
    )


def _inclusion(name: str, checked: int, failures: int, vacuous=False, **parameters) -> BoundReport:
    """An exhaustive inclusion check as a bound: its ``failures`` among ``checked`` cases, at most 0."""
    return BoundReport(
        bound_name=name,
        bound_value=0,
        measured=failures,
        sense="<=",
        vacuous=vacuous,
        parameters={"checked": checked, **parameters},
    )


def large_spectrum_product_check(
    a: GroupSubset, eps1: float, eps2: float, form: str = "linear"
) -> BoundReport:
    """Every product chi_i chi_j of a (1-eps1)-large and a (1-eps2)-large
    character stays large at the level of ``form``; misses are named in
    ``parameters["pairs"]`` as catalog index triples (i, j, k) with
    chi_k = chi_i chi_j.

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
    return _inclusion(
        name, len(left) * len(right), len(pairs), vacuous,
        eps1=eps1, eps2=eps2, left=len(left), right=len(right), pairs=tuple(pairs),
    )


# -- Bohr calculus -----------------------------------------------------------------


def bohr_sum_rule_rows(items, delta1: float, delta2: float) -> list[BoundReport]:
    """Per item: Bohr(d1) Bohr(d2) lands inside Bohr(d1 + d2)."""
    group, rows = _profiles(items, delta1)
    _require_radius(delta2)
    _require_radius(delta1 + delta2)
    produced = _product_rows(group, _members(rows, delta1), _members(rows, delta2))
    target = _members(rows, delta1 + delta2)
    outside = np.count_nonzero(produced & ~target, axis=1)
    return [
        _inclusion("bohr_sum_rule", int(checked), int(failures), bool(vacuous), delta1=delta1, delta2=delta2)
        for checked, failures, vacuous in zip(np.count_nonzero(produced, axis=1), outside, target.all(axis=1))
    ]


def bohr_sum_rule_check(reps, delta1: float, delta2: float) -> BoundReport:
    """Bohr(d1) Bohr(d2) lands inside Bohr(d1 + d2)."""
    return bohr_sum_rule_rows([reps], delta1, delta2)[0]


def _conjugates(group: FiniteGroup) -> np.ndarray:
    """(generators, |G|) array of s^-1 x s for every generator s and element x."""
    gens = group.generators[:, None]
    return group.mul(group.mul(group.inv(gens), np.arange(group.order)[None, :]), gens)


def bohr_symmetry_normality_rows(items, delta: float) -> list[BoundReport]:
    """Per item: identity membership, closure under inverse, and conjugation
    invariance of its Bohr set.

    B is conjugation invariant exactly when s^-1 x s lies in B just when x does,
    for every x and every generator s; a violation counts once.
    """
    group, rows = _profiles(items, delta)
    member = _members(rows, delta)
    failures = np.count_nonzero([
        ~member[:, group.identity],
        (member != member[:, group.inv(np.arange(group.order))]).any(axis=1),
        (member[:, _conjugates(group)] != member[:, None, :]).any(axis=(1, 2)),
    ], axis=0)
    return [
        _inclusion("bohr_symmetry_normality", group.order + 2, int(count), delta=delta, size=int(size))
        for count, size in zip(failures, np.count_nonzero(member, axis=1))
    ]


def bohr_symmetry_normality_check(reps, delta: float) -> BoundReport:
    """Identity membership, closure under inverse, and conjugation invariance."""
    return bohr_symmetry_normality_rows([reps], delta)[0]


def bohr_doubling_rows(reps, delta: float) -> list[BoundReport]:
    """Per representation: |Bohr * Bohr| / |Bohr| against 2^(21 d^2 / 2), for delta <= 2/5."""
    if not (0 < delta <= 0.4):
        raise DeltaOutOfRange(f"doubling bound needs delta in (0, 2/5], got {delta}")
    group, rows = _profiles(reps, delta)
    member = _members(rows, delta)
    doubled = np.count_nonzero(_product_rows(group, member, member), axis=1)
    return [
        BoundReport(
            bound_name="bohr_doubling_ratio",
            bound_value=2.0 ** (21.0 * rep.dim**2 / 2.0),
            measured=int(size2) / int(size),
            sense="<=",
            parameters={"group_order": group.order, "rep": rep.label, "delta": delta, "bohr_size": int(size)},
        )
        for rep, size, size2 in zip(reps, np.count_nonzero(member, axis=1), doubled)
    ]


def bohr_doubling_check(rep: UnitaryRepresentation, delta: float) -> BoundReport:
    """|Bohr * Bohr| / |Bohr| against 2^(21 d^2 / 2), for delta <= 2/5."""
    return bohr_doubling_rows([rep], delta)[0]


def _greedy_rows(group: FiniteGroup, member: np.ndarray, quarter: np.ndarray, left: bool) -> np.ndarray:
    """Mask of the points the covering greedy keeps in each row: every row
    visits its members x in ascending order and keeps x when the translate of
    its quarter set (Q x when ``left``, else x Q) misses those kept before.

    The rows run in lockstep, one member each per step, sorted by member
    count so that the rows whose members have not run out are a prefix."""
    k, n = member.shape
    sizes = np.count_nonzero(member, axis=1)
    by_size = np.argsort(-sizes, kind="stable")
    member, quarter, sizes = member[by_size], quarter[by_size], sizes[by_size]
    x_all = np.nonzero(member)[1]
    x_start = np.cumsum(sizes) - sizes
    q_row, q = np.nonzero(quarter)
    q_end = np.cumsum(np.count_nonzero(quarter, axis=1))  # rows 0..r hold q[:q_end[r]]
    occupied = np.zeros(k * n, dtype=bool)
    kept = np.zeros((k, n), dtype=bool)
    running = k
    for step in range(sizes[0]):
        while sizes[running - 1] <= step:
            running -= 1
        x = x_all[x_start[:running] + step]
        rows, cells = q_row[: q_end[running - 1]], q[: q_end[running - 1]]
        cells = rows * n + (group.mul(cells, x[rows]) if left else group.mul(x[rows], cells))
        free = np.ones(running, dtype=bool)
        free[rows[occupied[cells]]] = False
        kept[np.flatnonzero(free), x[free]] = True
        occupied[cells[free[rows]]] = True
    kept[by_size] = kept.copy()
    return kept


def ruzsa_covering_rows(reps, delta: float) -> list[BoundReport]:
    """Per representation: greedy covering witnesses, points whose
    quarter-radius translates are disjoint, and the larger of the two cover
    sizes strictly below 2^(25 d^2).

    ``parameters`` holds the covers, X with Bohr(delta) inside Bohr(delta/2) X
    and Y with Bohr(delta) inside Y Bohr(delta/2), and whether each contains
    Bohr(delta); a side that does not is measured as an infinite cover."""
    group, rows = _profiles(reps, delta)
    member = _members(rows, delta)
    quarter = _members(rows, delta / 4.0)
    half = _members(rows, delta / 2.0)
    x_kept = _greedy_rows(group, member, quarter, left=True)
    left_ok = ~(member & ~_product_rows(group, half, x_kept)).any(axis=1)
    # a Bohr set of a unitary rep is a union of classes, so Q x = x Q keeps the left
    # greedy's points on the right and Y half = half X; only rows whose quarter or
    # half set fails the exact check (a float tie could) run the right side
    conjugates = _conjugates(group)
    own = ~((quarter[:, conjugates] >= quarter[:, None, :]) & (half[:, conjugates] >= half[:, None, :])).all(axis=(1, 2))
    y_kept, right_ok = x_kept.copy(), left_ok.copy()
    if own.any():
        y_kept[own] = _greedy_rows(group, member[own], quarter[own], left=False)
        right_ok[own] = ~(member[own] & ~_product_rows(group, y_kept[own], half[own])).any(axis=1)
    return [_covering(rep, delta, *sides) for rep, *sides in zip(reps, x_kept, y_kept, left_ok, right_ok)]


def _covering(rep, delta, xs, ys, left_ok, right_ok) -> BoundReport:
    left, right = tuple(np.flatnonzero(xs).tolist()), tuple(np.flatnonzero(ys).tolist())
    return BoundReport(
        bound_name="ruzsa_covering",
        bound_value=2.0 ** (25.0 * rep.dim**2),
        measured=max(len(left) if left_ok else math.inf, len(right) if right_ok else math.inf),
        sense="<",
        parameters={
            "rep": rep.label,
            "delta": delta,
            "left_cover": left,
            "right_cover": right,
            "left_contained": bool(left_ok),
            "right_contained": bool(right_ok),
        },
    )


def ruzsa_covering(rep: UnitaryRepresentation, delta: float) -> BoundReport:
    """Greedy covering witnesses: points whose quarter-radius translates are disjoint."""
    return ruzsa_covering_rows([rep], delta)[0]


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


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array, without the import of
    ``numpy.ma`` that numpy's unique makes on its first call."""
    return ascending[np.diff(ascending, prepend=-np.inf) > 0]


def _regular(norms: np.ndarray, dim: int, delta: float) -> bool:
    """Regularity of Bohr(rho, delta) read off the ascending profile ``norms``
    of ||rho(g) - I||.

    The size of Bohr(rho, t) is the count of norms <= t, a step function that
    jumps exactly at the norm values, so the condition over the whole kappa
    window reduces to checks at the jumps inside it: at each jump v above
    delta, and just below each jump v above the window's lower end. The lower
    end itself needs no check: there the allowance 100 d^2 kappa_max |Bohr| is
    all of |Bohr|, which no shrink exceeds.
    """
    kappa_max = 1.0 / (100.0 * dim**2)
    base, top, floor = norms.searchsorted(
        [delta, (1.0 + kappa_max) * delta, (1.0 - kappa_max) * delta], side="right"
    )
    if base == 0:
        return False
    allowance = 100.0 * dim**2 * base
    up = norms[base:top]  # jumps in (delta, (1 + kappa_max) delta]
    down = norms[floor:base]  # jumps in ((1 - kappa_max) delta, delta]
    grows = norms.searchsorted(up, side="right") - base > allowance * (up / delta - 1.0) + 1e-9
    shrinks = base - norms.searchsorted(down, side="left") > allowance * (1.0 - down / delta) + 1e-9
    return not (grows.any() or shrinks.any())


def is_regular(rep: UnitaryRepresentation, delta: float) -> bool:
    """Size varies at most by 100 d^2 |kappa| |Bohr| on the kappa window
    |kappa| <= 1 / (100 d^2)."""
    if delta <= 0:
        raise DeltaOutOfRange(f"radius must be positive, got {delta}")
    return _regular(np.sort(rep.identity_distances()), rep.dim, delta)


#: uniform fallback radii tried by find_regular besides the jump midpoints
_REGULAR_GRID = 1024


def find_regular(rep: UnitaryRepresentation, delta: float) -> float:
    """First regular radius in [delta, 2 delta]; one exists for delta <= 1/2.

    Candidate radii are the midpoints of the jump-free intervals between
    consecutive distance values (sizes jump exactly at distance values, so a
    radius placed on a jump is never regular), plus a uniform fallback grid.
    delta itself, the smallest candidate, is tried before the others are built.
    """
    if not (0 < delta <= 0.5):
        raise DeltaOutOfRange(f"regular search needs delta in (0, 1/2], got {delta}")
    norms = np.sort(rep.identity_distances())
    if _regular(norms, rep.dim, delta):
        return float(delta)
    inside = _distinct(norms[(norms > delta) & (norms < 2.0 * delta)])
    boundaries = np.concatenate(([delta], inside, [2.0 * delta]))
    midpoints = (boundaries[:-1] + boundaries[1:]) / 2.0
    fallback = np.linspace(delta, 2.0 * delta, _REGULAR_GRID)  # holds delta and 2 delta
    for radius in _distinct(np.sort(np.concatenate((midpoints, fallback)))):
        if _regular(norms, rep.dim, radius):
            return float(radius)
    raise NoneFound(f"no regular radius in [{delta}, {2 * delta}] for {rep.label}")


def regular_spectrum_check(
    rep: UnitaryRepresentation,
    delta: float,
    delta_prime: float,
    kappa: float,
    eps: float,
) -> BoundReport:
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
    b = bohr_set(rep, delta)
    b_prime = bohr_set(rep, delta_prime)
    target_level = 1.0 - 2.0 * kappa / eps
    vacuous = target_level <= 0
    large = catalog.norms(b.indicator()) >= eps * b.size - 1e-12
    shrunk = catalog.norms(b_prime.indicator()) < target_level * b_prime.size - 1e-9
    return _inclusion(
        "regular_bohr_spectrum", int(large.sum()), int((large & shrunk).sum()), vacuous,
        rep=rep.label, delta=delta, delta_prime=delta_prime, kappa=kappa, eps=eps,
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
    exact as a Fraction when g is integral or rational."""
    order = b.group.order

    def formula(omega_size):
        return *_rational(lambda g: g * (order - 2 * omega_size) / (8 * d * d * b.size ** (2 * d)), g), {}

    return _basis_report(
        "gap_vs_bohr_basis", "Bohr basis bound", symmetrized_rep_count, b, d, g, omega, formula
    )


def verify_bohr_basis_bound_certified(b: GroupSubset, d: int, g, omega: GroupSubset) -> BoundReport:
    """Certified form: no normal proper subgroup of index <= 2/eps (uncertifiable
    above NORMAL_SUBGROUP_CAP) lifts the bound to eps^(log_{3/2} 3) g |G| / (16 d^2 |B|^(2d))."""
    order = b.group.order

    def formula(omega_size):
        eps = Fraction(order - omega_size, order)
        if eps <= 0:
            raise HypothesisFail("exceptional set covers the whole group")
        if order > NORMAL_SUBGROUP_CAP:
            raise HypothesisFail(f"normal subgroups uncertified above order {NORMAL_SUBGROUP_CAP}")
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
