"""Finite groups on dense integer indices, subsets, and group-algebra operations.

Elements of a group of order n are the indices 0..n-1.  Every group law is
an array-valued ``mul``/``inv`` pair that accepts ints or broadcast index
arrays.  Closed-form families compute it from integer parameters by a rule that
holds by construction: an abelian product adds mixed-radix digits by stride
arithmetic, ``cyclic(n)`` is its one-factor case under its own name, and a
dihedral group composes rotations and reflections.  Generic groups, permutation
closures included, read it from an integer table that ``TableGroup`` proves a
group once, exactly.  A closed-form group holds no n x n array derived
from its law; a table group holds exactly one, its read-only int32 table.
``DENSE_BYTES_BUDGET`` bounds what one call may allocate in every layer: a
closed-form group whose int64 index vector would exceed it is refused when built.
Subsets are immutable 0/1 indicator vectors and functions are numpy value
vectors, so product sets, k-th roots, convolution and diameter all reduce to
vectorized index arithmetic.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ClosureTooLarge,
    EmptySet,
    GroupMismatch,
    GroupTooLarge,
    InvalidTable,
    KZero,
    NoFiniteDiameter,
)

_DEFAULT_CLOSURE_CAP = 10_000
DENSE_BYTES_BUDGET = 2 * 2**30  # largest dense array set one call may allocate, in bytes


def check_dense_budget(needed: int, what: str) -> None:
    """Raise GroupTooLarge when ``what``, about to be allocated, needs over DENSE_BYTES_BUDGET bytes."""
    if needed > DENSE_BYTES_BUDGET:
        budget = f"the dense budget of {DENSE_BYTES_BUDGET / 2**30:.0f} GiB"
        raise GroupTooLarge(f"{what} need {needed / 2**30:.1f} GiB, over {budget}")


def _as_int(value, what: str) -> int:
    """``value`` as an int: a bool, float, string or None is no group parameter."""
    if not isinstance(value, bool):  # operator.index reads True as 1
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidTable(f"{what} must be an integer, got {value!r}")


def _int_dtype(order: int):
    return np.int32 if order < 2**31 - 1 else np.int64


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


class FiniteGroup:
    """A finite group whose elements are the indices ``0..order-1``.

    Subclasses supply array-valued ``mul``/``inv``: they take ints or index
    arrays and broadcast like numpy operators, and they are the group law.
    ``is_abelian`` and the read-only index array ``generators`` are set when the
    group is built: a law "for all g" holds once it holds on each generator.
    The conjugacy classes are derived from the law and cached.
    """

    order: int
    name: str
    identity: int = 0
    is_abelian: bool
    generators: np.ndarray

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def signature(self) -> tuple:
        """Structural identity used for equality and caching."""
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:
        return f"<{self.name}: order {self.order}>"

    # -- derived numpy machinery (cached per instance) ----------------------

    def _indices(self) -> np.ndarray:
        return np.arange(self.order, dtype=_int_dtype(self.order))

    def power_index(self, k: int) -> np.ndarray:
        """Vector of x**k over all elements, by binary exponentiation on indices."""
        if k < 0:
            return self.inv(self.power_index(-k))
        acc = np.full(self.order, self.identity, dtype=_int_dtype(self.order))
        base = self._indices()
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            k >>= 1
            if k:
                base = self.mul(base, base)
        return acc

    def conjugacy_classes(self) -> list[np.ndarray]:
        """Conjugacy classes as sorted index arrays: the identity's first, then by smallest index."""
        cached = getattr(self, "_classes", None)
        if cached is not None:
            return cached
        idx = self._indices()
        inv = self.inv(idx)
        seen = np.zeros(self.order, dtype=bool)
        classes: list[np.ndarray] = []
        for x in (self.identity, *range(self.order)):
            if seen[x]:
                continue
            in_orbit = np.zeros(self.order, dtype=bool)
            in_orbit[self.mul(self.mul(idx, x), inv)] = True
            seen |= in_orbit
            classes.append(np.flatnonzero(in_orbit))
        self._classes = classes
        return classes


class AbelianProductGroup(FiniteGroup):
    """Direct product of cyclic groups Z/n1 x ... x Z/nk, indices in mixed radix.

    With strides s_i = n_(i+1) ... n_k, digit i of x is x // s_i % n_i and
    ab = sum_i ((a // s_i + b // s_i) % n_i) s_i; the last factor (s = 1) adds mod n.
    Plain operators broadcast and keep the input dtype, where numpy 2.4's
    ``np.unravel_index`` misreads int64 columns of more than 8193 elements.
    """

    is_abelian = True

    def __init__(self, orders: Sequence[int]):
        if np.ndim(orders) != 1:
            raise InvalidTable(f"factor orders must be a list, got {orders!r}")
        orders = tuple(_as_int(n, "factor order") for n in orders)
        if not orders or any(n < 1 for n in orders):
            raise InvalidTable(f"factor orders must be >= 1, got {orders}")
        self.factor_orders = orders
        self.order = math.prod(orders)  # a Python int: np.prod wraps past 2^63
        self.name = "abelian_product(" + "x".join(str(n) for n in orders) + ")"
        check_dense_budget(8 * self.order, f"the int64 indices of a group of order {self.order}")
        strides = [math.prod(orders[i + 1:]) for i in range(len(orders))]
        self._radix = tuple(zip(orders, strides))  # (n_i, s_i), the last factor's s = 1
        # the unit digit vector of factor i is its stride
        self.generators = _read_only(np.array([s for n, s in self._radix if n > 1], dtype=np.int64))

    def decode(self, x) -> tuple:
        """Mixed-radix digits of ``x``, one entry (or array) per factor."""
        return tuple(x // s % n for n, s in self._radix)

    def mul(self, a, b):
        product = (a + b) % self.factor_orders[-1]
        for n, s in self._radix[:-1]:
            product = product + (a // s + b // s) % n * s
        return product

    def inv(self, a):
        inverse = (-a) % self.factor_orders[-1]
        for n, s in self._radix[:-1]:
            inverse = inverse + (-(a // s)) % n * s
        return inverse

    def signature(self) -> tuple:
        return ("abelian_product", self.factor_orders)


class CyclicGroup(AbelianProductGroup):
    """Z/nZ with additive notation: the one-factor abelian product, under its own name."""

    def __init__(self, n: int):
        n = _as_int(n, "cyclic order")
        if n < 1:
            raise InvalidTable(f"cyclic order must be >= 1, got {n}")
        super().__init__([n])
        self.name = f"cyclic({n})"

    def signature(self) -> tuple:
        return ("cyclic", self.order)


class DihedralGroup(FiniteGroup):
    """Dihedral group of order 2n: index t*n + i stands for s^t r^i."""

    is_abelian = False  # n >= 3: r s = s r^-1 != s r

    def __init__(self, n: int):
        n = _as_int(n, "dihedral parameter")
        if n < 3:
            raise InvalidTable(f"dihedral parameter must be >= 3, got {n}")
        self.n = n
        self.order = 2 * self.n
        self.name = f"dihedral({n})"
        check_dense_budget(8 * self.order, f"the int64 indices of a group of order {self.order}")
        self.generators = _read_only(np.array([1, n]))  # r and s

    def mul(self, a, b):
        n = self.n
        t1, i1 = divmod(a, n)
        t2, i2 = divmod(b, n)
        # s^t1 r^i1 * s^t2 r^i2 = s^(t1+t2) r^(i2 + (-1)^t2 i1)
        return (t1 ^ t2) * n + (i2 + (1 - 2 * t2) * i1) % n

    def inv(self, a):
        # reflections are involutions; (r^i)^-1 = r^-i
        t, i = divmod(a, self.n)
        return t * a + (1 - t) * ((-i) % self.n)

    def signature(self) -> tuple:
        return ("dihedral", self.n)


class TableGroup(FiniteGroup):
    """Generic group given by an explicit multiplication table.

    The only law that comes from outside the program, so the constructor proves
    it once: integer entries in range, a two-sided identity, one inverse per row,
    and associativity, exactly, by Light's test (``_check_associative``).
    """

    def __init__(self, table: Sequence[Sequence[int]], name: str = "table_group"):
        arr = np.asarray(table)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidTable(f"table must be square, got shape {arr.shape}")
        if arr.dtype.kind not in "iu":
            raise InvalidTable(f"table entries must be integers, got dtype {arr.dtype}")
        n = arr.shape[0]
        if n == 0 or arr.min() < 0 or arr.max() >= n:
            raise InvalidTable("table entries out of range")
        self.order = n
        self.name = name
        self._mul_table = table32 = _read_only(arr.astype(_int_dtype(n)))
        self.identity = self._find_identity(table32)
        self._inv_table = self._find_inverses(table32, self.identity)
        self.generators = self._check_associative()
        self.is_abelian = bool(np.array_equal(table32, table32.T))

    @staticmethod
    def _find_identity(table: np.ndarray) -> int:
        n = table.shape[0]
        idx = np.arange(n)
        for e in range(n):
            if np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx):
                return e
        raise InvalidTable("table has no two-sided identity")

    @staticmethod
    def _find_inverses(table: np.ndarray, e: int) -> np.ndarray:
        rows, cols = np.nonzero(table == e)  # row-major: rows is 0..n-1 iff each row holds e once
        if not np.array_equal(rows, np.arange(table.shape[0])):
            raise InvalidTable("some element has no unique inverse")
        return _read_only(cols.astype(table.dtype))

    def _check_associative(self) -> np.ndarray:
        """Light's test (Clifford-Preston, *Algebraic Theory of Semigroups* I, 1.2): the a with
        (x a) y = x (a y) for all x, y are closed under products, so a generating set proves
        associativity.  Each generator is the first element not yet reached; in a group it at
        least doubles the reached subgroup, so no group needs more than floor(log2 n) of them.
        Returns the generating set it proved."""
        table = self._mul_table
        gens: list[int] = []
        reached = generated_subgroup(self, gens)
        while not reached.all():
            a = int(np.argmin(reached))
            if len(gens) == self.order.bit_length() - 1:
                raise InvalidTable(f"table needs more than {len(gens)} generators, so it is no group")
            if not np.array_equal(table[table[:, a]], table[:, table[a]]):
                raise InvalidTable(f"associativity fails at a={a}")
            gens.append(a)
            reached = generated_subgroup(self, gens)
        return _read_only(np.array(gens, dtype=np.int64))

    def mul(self, a, b):
        return self._mul_table[a, b]

    def inv(self, a):
        return self._inv_table[a]

    def signature(self) -> tuple:
        return ("table", self._mul_table.shape[0], self._mul_table.tobytes())


def generated_subgroup(group: FiniteGroup, gens) -> np.ndarray:
    """Membership mask of the subgroup generated by ``gens``: the identity closed under
    right multiplication by them (in a finite group inverses are positive powers)."""
    gens = np.asarray(gens, dtype=np.int64).reshape(-1)
    member = np.zeros(group.order, dtype=bool)
    frontier = np.array([group.identity])
    while frontier.size:
        member[frontier] = True
        fresh = np.sort(group.mul(frontier[:, None], gens[None, :]), axis=None)
        fresh = fresh[~member[fresh]]
        frontier = fresh[np.diff(fresh, prepend=-1) > 0]  # sorted, so this drops repeats
    return member


def _parse_cycles(text: str, n_points: int | None) -> tuple[int, ...]:
    """Parse 1-based cycle notation like ``(1 2 3)(4 5)`` into a 0-based image tuple."""
    cycles = re.findall(r"\(([^()]*)\)", text)
    if not cycles or re.sub(r"\([^()]*\)", "", text).strip():
        raise ValueError(f"cannot parse cycle notation: {text!r}")
    points: list[list[int]] = []
    for cyc in cycles:
        entries = [int(tok) for tok in re.split(r"[,\s]+", cyc.strip()) if tok]
        if any(p < 1 for p in entries):
            raise ValueError(f"cycle notation is 1-based, got {text!r}")
        points.append([p - 1 for p in entries])
    flat = [p for cyc in points for p in cyc]
    if len(set(flat)) < len(flat):
        raise ValueError(f"cycles must be disjoint and repeat no point, got {text!r}")
    m = n_points or (max(flat, default=0) + 1)
    if flat and max(flat) >= m:
        raise ValueError(f"cycle point {max(flat) + 1} exceeds n_points={m} in {text!r}")
    image = list(range(m))
    for cyc in points:
        for i, p in enumerate(cyc):
            image[p] = cyc[(i + 1) % len(cyc)]
    return tuple(image)


def _normalize_generator(gen, n_points: int | None) -> tuple[int, ...]:
    if isinstance(gen, str):
        return _parse_cycles(gen, n_points)
    try:
        image = tuple(operator.index(x) for x in gen)
    except TypeError:
        raise ValueError(f"not a permutation image list: {gen!r}") from None
    if sorted(image) != list(range(len(image))) or any(isinstance(x, bool) for x in gen):
        raise ValueError(f"not a permutation image list: {gen!r}")
    return image


def permutation_closure(
    generators: Iterable, n_points: int | None = None, cap: int = _DEFAULT_CLOSURE_CAP
) -> TableGroup:
    """Enumerate the subgroup generated by permutations via breadth-first closure.

    Generators may be 0-based image lists or 1-based cycle-notation strings.
    Elements are indexed in sorted (lexicographic image) order, and the
    product of a and b is the composition p_a o p_b.  Raises ClosureTooLarge
    when the closure exceeds ``cap`` elements.
    """
    gens = [_normalize_generator(g, n_points) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    m = max(n_points or 0, max(len(g) for g in gens))
    if m > 8:
        raise ValueError(f"permutation closure supports at most 8 points, got {m}")
    gens = [g + tuple(range(len(g), m)) for g in gens]
    identity = tuple(range(m))
    seen = {identity}
    queue = [identity]
    while queue:
        p = queue.pop()
        for g in gens:
            q = tuple(p[j] for j in g)
            if q not in seen:
                if len(seen) >= cap:
                    raise ClosureTooLarge(f"closure exceeds cap of {cap} elements")
                seen.add(q)
                queue.append(q)
    perms = np.array(sorted(seen), dtype=np.int32)  # (n, m), row a is p_a
    # base-m codes of the images ascend with the rows, so searchsorted
    # turns the code of each composition p_a o p_b back into its index
    codes = np.zeros(len(perms), dtype=np.int32)
    products = np.zeros((len(perms), len(perms)), dtype=np.int32)
    for k in range(m):
        codes = codes * m + perms[:, k]
        products = products * m + perms[:, perms[:, k]]  # [a, b] -> p_a(p_b(k))
    table = np.searchsorted(codes, products)
    return TableGroup(table, name=f"permutation_closure({len(gens)} gens on {m} points)")


_DESCRIPTOR_RE = re.compile(r"^\s*([a-zA-Z_][a-zA-Z_0-9]*)\s*\((.*)\)\s*$", re.DOTALL)


def make_group(descriptor) -> FiniteGroup:
    """Build a group from a descriptor.

    Accepts a FiniteGroup (returned as is) or a string descriptor:
    ``cyclic(N)``, ``abelian_product([n1, ...])``, ``dihedral(n)``,
    ``permutation_closure([gen, ...])`` with image lists or cycle strings,
    ``multiplication_table([[...], ...])``.  Closed-form families hold their
    laws by construction; a table (given or closed from permutations) is
    checked by the ``TableGroup`` constructor.
    """
    if isinstance(descriptor, FiniteGroup):
        return descriptor
    if not isinstance(descriptor, str):
        raise ValueError(f"unsupported group descriptor: {descriptor!r}")
    match = _DESCRIPTOR_RE.match(descriptor)
    if not match:
        raise ValueError(f"cannot parse group descriptor: {descriptor!r}")
    kind, arg_text = match.group(1), match.group(2).strip()
    try:
        args = ast.literal_eval(arg_text) if arg_text else None
    except (ValueError, SyntaxError) as exc:
        raise ValueError(f"cannot parse arguments in {descriptor!r}") from exc
    if kind == "cyclic":
        group: FiniteGroup = CyclicGroup(args)
    elif kind == "abelian_product":
        group = AbelianProductGroup(args)
    elif kind == "dihedral":
        group = DihedralGroup(args)
    elif kind == "permutation_closure":
        gens = args if isinstance(args, (list, tuple)) else [args]
        group = permutation_closure(gens)
    elif kind == "multiplication_table":
        group = TableGroup(args)
    else:
        raise ValueError(f"unknown group kind {kind!r}")
    return group


def require_same_group(*objects) -> FiniteGroup:
    group = objects[0].group
    for obj in objects[1:]:
        if obj.group != group:
            raise GroupMismatch(f"operands on {obj.group.name} vs {group.name}")
    return group


class GroupSubset:
    """Immutable subset of a group, stored as a 0/1 indicator vector."""

    __slots__ = ("group", "membership")

    def __init__(self, group: FiniteGroup, membership):
        arr = np.asarray(membership)
        if arr.shape != (group.order,):
            raise ValueError(f"membership length {arr.shape} != order {group.order}")
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("membership values must be 0 or 1")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "membership", _read_only(arr.astype(np.int8)))

    def __setattr__(self, name, value):
        raise AttributeError("GroupSubset is immutable")

    @classmethod
    def from_indices(cls, group: FiniteGroup, indices: Iterable[int]) -> "GroupSubset":
        member = np.zeros(group.order, dtype=np.int8)
        idx = np.asarray(list(indices))
        if idx.size == 0:
            return cls(group, member)
        if idx.dtype.kind not in "iu":
            raise ValueError(f"subset indices must be integers, got dtype {idx.dtype}")
        if idx.min() < 0 or idx.max() >= group.order:
            raise ValueError("subset index out of range")
        member[idx] = 1
        return cls(group, member)

    @classmethod
    def full(cls, group: FiniteGroup) -> "GroupSubset":
        return cls(group, np.ones(group.order, dtype=np.int8))

    @classmethod
    def empty(cls, group: FiniteGroup) -> "GroupSubset":
        return cls(group, np.zeros(group.order, dtype=np.int8))

    @classmethod
    def singleton(cls, group: FiniteGroup, x: int) -> "GroupSubset":
        return cls.from_indices(group, [x])

    @property
    def size(self) -> int:
        return int(self.membership.sum())

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.membership)

    def __contains__(self, x: int) -> bool:
        return bool(self.membership[x])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupSubset)
            and self.group == other.group
            and np.array_equal(self.membership, other.membership)
        )

    def __hash__(self) -> int:
        return hash((self.group, self.membership.tobytes()))

    def __repr__(self) -> str:
        shown = ", ".join(str(i) for i in self.indices[:8])
        more = ", ..." if self.size > 8 else ""
        return f"<subset of {self.group.name}: {{{shown}{more}}} size {self.size}>"

    @property
    def is_symmetric(self) -> bool:
        return self == inverse_set(self)

    def complement(self) -> "GroupSubset":
        return GroupSubset(self.group, 1 - self.membership)

    def union(self, other: "GroupSubset") -> "GroupSubset":
        require_same_group(self, other)
        return GroupSubset(self.group, np.maximum(self.membership, other.membership))

    def intersection(self, other: "GroupSubset") -> "GroupSubset":
        require_same_group(self, other)
        return GroupSubset(self.group, self.membership * other.membership)

    def difference(self, other: "GroupSubset") -> "GroupSubset":
        require_same_group(self, other)
        return GroupSubset(self.group, self.membership * (1 - other.membership))

    def indicator(self) -> "GroupFunction":
        return GroupFunction(self.group, self.membership.astype(np.int64))


class GroupFunction:
    """A complex- or integer-valued function on group elements."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteGroup, values):
        arr = np.asarray(values)
        if arr.shape != (group.order,):
            raise ValueError(f"values length {arr.shape} != order {group.order}")
        if arr.dtype.kind not in "ifc":
            arr = arr.astype(np.complex128)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "values", _read_only(arr.copy()))

    def __setattr__(self, name, value):
        raise AttributeError("GroupFunction is immutable")

    @classmethod
    def delta(cls, group: FiniteGroup, x: int | None = None) -> "GroupFunction":
        values = np.zeros(group.order, dtype=np.int64)
        values[group.identity if x is None else x] = 1
        return cls(group, values)

    @property
    def total(self):
        """Sum of all values  (written <f> below)."""
        return self.values.sum()

    @property
    def l1_norm(self) -> float:
        return float(np.abs(self.values).sum())

    def is_nonnegative(self) -> bool:
        vals = self.values
        if vals.dtype.kind == "c":
            if np.abs(vals.imag).max(initial=0.0) > 0:
                return False
            vals = vals.real
        return bool(vals.min(initial=0) >= 0)

    def __repr__(self) -> str:
        return f"<function on {self.group.name}, total {self.total}>"


def product_set(a: GroupSubset, b: GroupSubset) -> GroupSubset:
    """Product set {xy : x in A, y in B}."""
    group = require_same_group(a, b)
    ai, bi = a.indices, b.indices
    if ai.size == 0 or bi.size == 0:
        return GroupSubset.empty(group)
    products = group.mul(ai[:, None], bi[None, :])
    member = np.zeros(group.order, dtype=np.int8)
    member[products.ravel()] = 1
    return GroupSubset(group, member)


def power_set(s: GroupSubset, d: int) -> GroupSubset:
    """Iterated product set S^d."""
    if d < 1:
        raise KZero(f"power_set needs d >= 1, got {d}")
    result = s
    for _ in range(d - 1):
        result = product_set(result, s)
    return result


def inverse_set(a: GroupSubset) -> GroupSubset:
    """Elementwise inverse {x^-1 : x in A}."""
    member = np.zeros(a.group.order, dtype=np.int8)
    member[a.group.inv(a.indices)] = 1
    return GroupSubset(a.group, member)


def kth_roots(a: GroupSubset, k: int) -> GroupSubset:
    """The set {x : x^k in A}; may be empty."""
    if k < 1:
        raise KZero(f"kth_roots needs k >= 1, got {k}")
    powers = a.group.power_index(k)
    return GroupSubset(a.group, a.membership[powers])


# integer convolution switches to float64 above this mass product to avoid overflow
_INT_CONV_MASS_LIMIT = 2**62


def _convolve_values(group: FiniteGroup, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    # every value and partial sum is at most |f|_1 |g|_1; as int64 the float sums keep 2x headroom below 2^63
    mass = float(np.abs(f, dtype=np.float64).sum()) * float(np.abs(g, dtype=np.float64).sum())
    if mass == float("inf"):
        raise OverflowError("convolution values would exceed the float64 range")
    if f.dtype.kind == "i" and g.dtype.kind == "i":
        dtype = np.float64 if mass >= _INT_CONV_MASS_LIMIT else np.int64
        f, g = f.astype(dtype), g.astype(dtype)
    idx = group._indices()
    ys = idx[f != 0]  # row r of the gather is g(ys[r]^-1 x) over all x
    return f[ys] @ g[group.mul(group.inv(ys)[:, None], idx[None, :])]


def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """Group convolution (f*g)(x) = sum_y f(y) g(y^-1 x).

    Reads only the rows y in supp(f), so it costs O(|supp f| |G|) time and
    memory: callers put the sparser factor first.  Past float64 it raises OverflowError.
    """
    group = require_same_group(f, g)
    return GroupFunction(group, _convolve_values(group, f.values, g.values))


def convolution_power(factors: Sequence[GroupFunction], k: int) -> GroupFunction:
    """(f1 * ... * fm)^(k) as one right fold over the factors repeated k times:
    every left operand of ``convolve`` is an input, so sparse factors keep each
    step O(|supp fi| |G|), and associativity keeps integer results exact."""
    if k < 1:
        raise KZero(f"convolution power needs k >= 1, got {k}")
    chain = list(factors) * k
    result = chain[-1]
    for f in reversed(chain[:-1]):
        result = convolve(f, result)
    return result


def iterated_convolution(f: GroupFunction, k: int) -> GroupFunction:
    """k-fold self-convolution f^(k), with f^(1) = f."""
    return convolution_power([f], k)


def diameter(s: GroupSubset) -> int:
    """Minimal d >= 1 with S^d equal to the whole group.

    Iterates product sets for at most |group| steps; raises NoFiniteDiameter
    if the powers stabilize or cycle without covering.
    """
    if s.size == 0:
        raise EmptySet("diameter of the empty set")
    group = s.group
    current = s
    for d in range(1, group.order + 1):
        if current.size == group.order:
            return d
        nxt = product_set(current, s)
        if nxt == current:
            raise NoFiniteDiameter(f"powers of the set stabilize at size {current.size}")
        current = nxt
    raise NoFiniteDiameter(f"no covering power within {group.order} steps")
