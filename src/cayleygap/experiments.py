"""Seeded extremal-set experiments with certified hypotheses and bound reports.

Each experiment builds its set greedily in seeded-random order, certifies the
combinatorial hypothesis it needs (maximality, B_k property, sumset coverage),
and returns its records as a list of flat dicts: construction metadata plus
one row per verified inequality.  Identical (config, seed) pairs produce
identical records.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .bohr import is_prime, verify_progression_basis_bound
from .bounds import BoundReport, exceptional_set, verify_exceptional_bound
from .errors import (
    GroupTooLarge,
    HypothesisFail,
    LambdaResampleFail,
    NotABasis,
    NotBk,
)
from .groups import (
    CyclicGroup,
    FiniteGroup,
    GroupSubset,
    inverse_set,
    kth_roots,
    product_set,
)
from .reports import bound_record
from .representations import set_norm
from .sampling import SeededStream
from .spectra import lambda1

_TRIPLE_FREE_CAP = 500
_BK_CHECK_CAP = 10_000_000


def _indices_text(subset: GroupSubset) -> str:
    return " ".join(str(int(i)) for i in subset.indices)


# -- maximal sets with no identity triple ---------------------------------------


def _identity_in_cube(t: GroupSubset) -> bool:
    """e in T^3 iff T^2 meets T^-1."""
    squared = product_set(t, t)
    return squared.intersection(inverse_set(t)).size > 0


def grow_triple_free(group: FiniteGroup, seed: int) -> GroupSubset:
    """Greedy maximal set A with no solution to abc = e, in seeded order."""
    rng = SeededStream(seed)
    order = rng.permutation(group.order)
    chosen: list[int] = []
    for x in order:
        candidate = GroupSubset.from_indices(group, chosen + [int(x)])
        if not _identity_in_cube(candidate):
            chosen.append(int(x))
    return GroupSubset.from_indices(group, chosen)


def certify_triple_free_maximality(a: GroupSubset) -> bool:
    if _identity_in_cube(a):
        return False
    present = set(int(i) for i in a.indices)
    for x in range(a.group.order):
        if x in present:
            continue
        if not _identity_in_cube(GroupSubset.from_indices(a.group, list(present) + [x])):
            return False
    return True


def run_triple_free(group: FiniteGroup, seed: int) -> list[dict]:
    """Maximal e-free-triple set: gap bounds for Cay(A) and Cay(A u sqrt(A^-1))."""
    if group.order > _TRIPLE_FREE_CAP:
        raise GroupTooLarge(f"triple-free experiment capped at order {_TRIPLE_FREE_CAP}")
    records: list[dict] = []
    a = grow_triple_free(group, seed)
    if a.size == 0:
        raise HypothesisFail("no nonempty triple-free set exists (trivial group)")
    maximal = certify_triple_free_maximality(a)
    if not maximal:
        raise HypothesisFail("greedy set failed the maximality recheck")
    sqrt_ainv = kth_roots(inverse_set(a), 2)
    cube_roots_e = kth_roots(GroupSubset.singleton(group, group.identity), 3)
    q = sqrt_ainv.size
    r = cube_roots_e.size
    n = group.order
    size = a.size

    bound1 = n / (2.0 * (size + q + r) ** 2) - (1.0 + q + r) / size
    report1 = BoundReport(
        bound_name="triple_free_gap",
        bound_value=bound1,
        measured=lambda1(a),
        vacuous=bound1 <= 0,
        parameters={"group_order": n, "set_size": size, "sqrt_ainv": q, "cube_roots_e": r},
    )
    enlarged = a.union(sqrt_ainv)
    bound2 = n / (2.0 * (size + r) ** 2) - (1.0 + r) / size
    report2 = BoundReport(
        bound_name="triple_free_gap_enlarged",
        bound_value=bound2,
        measured=lambda1(enlarged),
        vacuous=bound2 <= 0,
        parameters={"group_order": n, "set_size": enlarged.size, "sqrt_ainv": q, "cube_roots_e": r},
    )
    records.append(
        {
            "instance": "00-construction",
            "check": "maximality",
            "group": group.name,
            "set": _indices_text(a),
            "set_size": size,
            "sqrt_ainv_size": q,
            "cube_roots_size": r,
            "verdict": "pass" if maximal else "fail",
            "asserted": True,
        }
    )
    records.append(bound_record(report1, "01-gap", group.name, asserted=True))
    records.append(bound_record(report2, "02-gap-enlarged", group.name, asserted=True))
    return records


# -- B_k (Sidon-type) sets ---------------------------------------------------------


def is_bk_set(elements: list[int], k: int) -> bool:
    """All k-element multiset sums distinct, checked exhaustively over integers."""
    if len(elements) ** k > _BK_CHECK_CAP:
        raise NotBk(f"exhaustive B_k check capped at |A|^k <= {_BK_CHECK_CAP}")
    seen = set()
    for combo in itertools.combinations_with_replacement(sorted(elements), k):
        total = sum(combo)
        if total in seen:
            return False
        seen.add(total)
    return True


def grow_bk_set(n: int, k: int, seed: int) -> list[int]:
    """Greedy B_k set in {1..N-1}, candidates in seeded-random order."""
    rng = SeededStream(seed)
    chosen: list[int] = []
    sums: set[int] = set()
    for x in rng.permutation(np.arange(1, n)):
        x = int(x)
        new_sums: set[int] = set()
        # the k-multisets holding x are x plus each (k-1)-multiset of chosen + [x]
        for rest in itertools.combinations_with_replacement(chosen + [x], k - 1):
            total = x + sum(rest)
            if total in sums or total in new_sums:
                break
            new_sums.add(total)
        else:
            chosen.append(x)
            sums |= new_sums
    return sorted(chosen)


def run_sidon(n: int, k: int, seed: int, size_constant: float = 1.0) -> list[dict]:
    """B_k set in Z/N: exponential sums stay a constant factor below |A|."""
    if not is_prime(n):
        raise HypothesisFail(f"modulus must be prime, got {n}")
    if k < 2:
        raise HypothesisFail(f"B_k sets need k >= 2, got {k}")
    records: list[dict] = []
    elements = grow_bk_set(n, k, seed)
    if not is_bk_set(elements, k):
        raise NotBk("greedy construction failed the exhaustive k-sum check")
    group = CyclicGroup(n)
    a = GroupSubset.from_indices(group, [x % n for x in elements])
    omega = exceptional_set(a, k, 1)
    coverage = (n - omega.size) / n
    gap = lambda1(a)
    # the exponential-sum constant is measured from the character maximum
    # itself; the gap only controls the signed extreme, which can be smaller
    char_ratio = set_norm(a) / a.size
    c = 1.0 - char_ratio
    size_hypothesis = a.size >= size_constant * n ** (1.0 / k)
    records.append(
        {
            "instance": "00-construction",
            "check": "bk_property",
            "group": group.name,
            "set": _indices_text(a),
            "set_size": a.size,
            "k": k,
            "coverage": coverage,
            "size_hypothesis_met": size_hypothesis,
            "max_char_ratio": char_ratio,
            "expansion_constant": c,
            "gap": gap,
            "verdict": "pass",
            "asserted": True,
        }
    )
    if omega.size < n:
        report = verify_progression_basis_bound(a, k, 1, omega, form="eps")
        records.append(bound_record(report, "01-gap-bound", group.name, asserted=True))
        if c > 1e-12:
            positivity = "pass"
        elif size_hypothesis:
            positivity = "fail"
        else:
            positivity = "vacuous-pass"
        records.append(
            {
                "instance": "02-positivity",
                "check": "expansion_constant_positive",
                "group": group.name,
                "expansion_constant": c,
                "size_hypothesis_met": size_hypothesis,
                "verdict": positivity,
                "asserted": True,
            }
        )
    return records


# -- additive bases of order two ------------------------------------------------------


def grow_additive_basis(n: int, seed: int) -> list[int]:
    """Greedy order-2 basis of {1..N}: every t in {2..N} is a sum of two elements.

    When t is uncovered, a seeded-random existing element a < t supplies the
    new element t - a, so coverage of {2..N} holds by construction.
    """
    rng = SeededStream(seed)
    chosen = [1]
    covered = np.zeros(2 * n + 1, dtype=bool)
    covered[2] = True
    for t in range(2, n + 1):
        if covered[t]:
            continue
        below = [a for a in chosen if a < t]
        a = int(below[rng.integers(0, len(below))])
        x = t - a
        for b in chosen:
            if x + b <= 2 * n:
                covered[x + b] = True
        covered[2 * x] = True
        chosen.append(x)
    return sorted(chosen)


def run_additive_basis(n: int, seed: int) -> list[dict]:
    """Order-2 basis mod N: the gap of Cay(A mod N) is at least ~N/|A|^2."""
    if not is_prime(n):
        raise HypothesisFail(f"modulus must be prime, got {n}")
    records: list[dict] = []
    elements = grow_additive_basis(n, seed)
    group = CyclicGroup(n)
    a = GroupSubset.from_indices(group, [x % n for x in elements])
    omega = exceptional_set(a, 2, 1)
    if omega.size > n / 4:
        raise NotABasis(f"uncovered set has {omega.size} elements, above N/4")
    gap = lambda1(a)
    char_ratio = set_norm(a) / a.size
    k_measured = a.size / math.sqrt(n)
    records.append(
        {
            "instance": "00-construction",
            "check": "coverage",
            "group": group.name,
            "set": _indices_text(a),
            "set_size": a.size,
            "omega_size": omega.size,
            "K": k_measured,
            "max_char_ratio": char_ratio,
            "expansion_constant": 1.0 - char_ratio,
            "exp_sum_bound": char_ratio * a.size,
            "gap": gap,
            "verdict": "pass",
            "asserted": True,
        }
    )
    cor_report = verify_progression_basis_bound(a, 2, 1, omega)
    records.append(bound_record(cor_report, "01-progression-basis", group.name, asserted=True))
    exc_report = verify_exceptional_bound(a, 2, 1, omega)
    records.append(bound_record(exc_report, "02-exceptional-basis", group.name, asserted=True))
    return records


# -- random set plus interval -----------------------------------------------------------


def run_interval_union(n: int, c1: float, big_c: float, seed: int) -> list[dict]:
    """Union of a random 2-basis and an interval: measured gap dominates both
    the rigorous character bound and the progression-basis bound."""
    if not is_prime(n):
        raise HypothesisFail(f"modulus must be prime, got {n}")
    rng = SeededStream(seed)
    group = CyclicGroup(n)
    lam_size = max(1, round(c1 * math.sqrt(n)))
    p_size = min(n, max(0, round(big_c * math.sqrt(n))))
    # a random c1*sqrt(N) set misses ~N exp(-c1^2) double sums, so exact
    # coverage of 2S is resampled only down to an exceptional set of N/4
    for _ in range(100):
        lam_set = GroupSubset.from_indices(group, rng.choice(n, size=min(lam_size, n), replace=False))
        start = int(rng.integers(0, n)) if p_size > 0 else -1  # -1: no interval
        interval = GroupSubset.from_indices(group, (start + np.arange(p_size)) % n)
        s = lam_set.union(interval)
        omega = exceptional_set(s, 2, 1)
        if omega.size <= n / 4:
            break
    else:
        raise LambdaResampleFail(
            f"no sampled size-{lam_size} set kept double-sum misses below N/4 in 100 tries"
        )
    records: list[dict] = []
    gap = lambda1(s)
    records.append(
        {
            "instance": "00-construction",
            "check": "coverage",
            "group": group.name,
            "lambda_set": _indices_text(lam_set),
            "lambda_size": lam_set.size,
            "interval_start": start,
            "interval_size": interval.size,
            "set_size": s.size,
            "omega_size": omega.size,
            "verdict": "pass",
            "asserted": True,
        }
    )
    cor_report = verify_progression_basis_bound(s, 2, 1, omega)
    records.append(bound_record(cor_report, "01-progression-basis", group.name, asserted=True))
    if interval.size > 0:
        p_norm = set_norm(interval)
        rest_norm = set_norm(s.difference(interval))
        heuristic = 1.0 - p_norm / s.size
        adjusted = 1.0 - (p_norm + rest_norm) / s.size
        heuristic_report = BoundReport(
            bound_name="interval_char_heuristic",
            bound_value=heuristic,
            measured=gap,
            parameters={"group_order": n, "set_size": s.size, "interval_norm": p_norm},
        )
        adjusted_report = BoundReport(
            bound_name="interval_char_adjusted",
            bound_value=adjusted,
            measured=gap,
            vacuous=adjusted <= 0,
            parameters={
                "group_order": n,
                "set_size": s.size,
                "interval_norm": p_norm,
                "rest_norm": rest_norm,
            },
        )
        # the unadjusted heuristic drops the random component's character sums,
        # so it is reported but not asserted
        records.append(bound_record(heuristic_report, "02-char-heuristic", group.name, asserted=False))
        records.append(bound_record(adjusted_report, "03-char-adjusted", group.name, asserted=True))
        ratio = cor_report.bound_value / adjusted if adjusted > 0 else float("inf")
        records.append(
            {
                "instance": "04-bound-ratio",
                "check": "bound_comparison",
                "group": group.name,
                "progression_bound": cor_report.bound_value,
                "char_bound": adjusted,
                "ratio": ratio,
                "verdict": "pass",
                "asserted": False,
            }
        )
    return records


EXPERIMENTS = {
    "triple-free": run_triple_free,
    "sidon": run_sidon,
    "additive-basis": run_additive_basis,
    "interval-union": run_interval_union,
}
