"""Group construction, set combinatorics, convolution, and diameter."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from cayleygap import (
    GroupFunction,
    GroupSubset,
    convolve,
    diameter,
    inverse_set,
    iterated_convolution,
    kth_roots,
    make_group,
    markov_matrix,
    permutation_closure,
    power_set,
    product_set,
)
from cayleygap.errors import (
    ClosureTooLarge,
    EmptySet,
    GroupMismatch,
    GroupTooLarge,
    InvalidTable,
    KZero,
    NoFiniteDiameter,
)
from cayleygap.groups import DENSE_BYTES_BUDGET, TableGroup, generated_subgroup


def brute_product_set(a, b):
    """Nested-loop oracle for {xy : x in A, y in B}."""
    group = a.group
    out = set()
    for x in a.indices:
        for y in b.indices:
            out.add(group.mul(int(x), int(y)))
    return sorted(out)


def brute_convolve(f, g):
    """Double-loop oracle for (f*g)(x) = sum_y f(y) g(y^-1 x)."""
    group = f.group
    n = group.order
    out = np.zeros(n, dtype=complex)
    for x in range(n):
        for y in range(n):
            out[x] += f.values[y] * g.values[group.mul(group.inv(y), x)]
    return out


def brute_power_covering(s, d):
    """S^d by repeated brute products (exact-length words)."""
    current = sorted(int(i) for i in s.indices)
    for _ in range(d - 1):
        current = brute_product_set(
            GroupSubset.from_indices(s.group, current), s
        )
    return current


def _law_from_elements(elements, compose):
    """Reference (mul, inv, identity) of a group listed as hashable elements,
    in list order, with products computed by ``compose``."""
    index = {x: i for i, x in enumerate(elements)}
    mul = [[index[compose(x, y)] for y in elements] for x in elements]
    identity = next(i for i, row in enumerate(mul) if row == list(range(len(elements))))
    inv = [row.index(identity) for row in mul]
    return mul, inv, identity


def reference_cyclic(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)], [(-a) % n for a in range(n)], 0


def reference_dihedral(n):
    # index t*n + i is s^t r^i acting on the n-gon's vertices as
    # v -> (-1)^t (v + i), r the rotation v -> v + 1 and s the reflection
    # v -> -v; an element is fixed by the images of vertices 0 and 1
    actions = [[(-1) ** t * (v + i) % n for v in range(n)] for t in (0, 1) for i in range(n)]
    keys = [tuple(f[:2]) for f in actions]
    by_key = {k: f for k, f in zip(keys, actions)}

    def compose(x, y):
        f, g = by_key[x], by_key[y]
        return (f[g[0]], f[g[1]])

    return _law_from_elements(keys, compose)


def reference_abelian(orders):
    digits = list(itertools.product(*(range(n) for n in orders)))
    return _law_from_elements(
        digits, lambda x, y: tuple((a + b) % n for a, b, n in zip(x, y, orders))
    )


def reference_permutations(elements):
    return _law_from_elements(sorted(elements), lambda p, q: tuple(p[j] for j in q))


def _even(p):
    return sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p))) % 2 == 0


TABLE_CASES = (
    [(f"cyclic({n})", lambda n=n: reference_cyclic(n)) for n in range(1, 65)]
    + [(f"dihedral({n})", lambda n=n: reference_dihedral(n)) for n in range(3, 65)]
    + [
        (f"abelian_product({orders})", lambda orders=orders: reference_abelian(orders))
        for orders in ([1], [2, 2], [3, 3], [2, 2, 2, 2], [4, 6], [2, 3, 4], [12, 15], [3, 5, 7])
    ]
    + [
        ('permutation_closure(["(1 2 3 4 5)", "(1 2 3)"])',
         lambda: reference_permutations(filter(_even, itertools.permutations(range(5))))),
        ('permutation_closure(["(1 2 3 4 5)", "(1 2)"])',
         lambda: reference_permutations(itertools.permutations(range(5)))),
        ('permutation_closure(["(1 2 3 4 5 6)", "(1 2)"])',
         lambda: reference_permutations(itertools.permutations(range(6)))),
        ("permutation_closure([[1, 2, 3, 4, 0]])",
         lambda: reference_permutations(tuple((v + k) % 5 for v in range(5)) for k in range(5))),
        ('permutation_closure(["(1 2 3 4)", "(1 2)"])',
         lambda: reference_permutations(itertools.permutations(range(4)))),
    ]
)


@pytest.mark.parametrize("descriptor,reference", TABLE_CASES, ids=[d for d, _ in TABLE_CASES])
def test_tables_match_independent_reference(descriptor, reference):
    """The array-valued laws against pure-Python laws that never call
    ``group.mul``/``inv``: this proves the closed-form families, which
    ``make_group`` does not check at run time."""
    group = make_group(descriptor)
    mul, inv, identity = reference()
    idx = np.arange(group.order)
    assert group.mul(idx[:, None], idx[None, :]).tolist() == mul
    assert group.inv(idx).tolist() == inv
    assert group.identity == identity
    assert group.is_abelian == all(mul[a][b] == mul[b][a] for a in idx for b in idx)
    rng = np.random.default_rng(group.order)
    pairs = rng.integers(0, group.order, size=(50, 2))
    for a, b in pairs.tolist():
        assert group.mul(a, b) == mul[a][b]
        assert group.inv(a) == inv[a]
    # convolution over supp(f) and the Cayley index, against sums over the reference law
    k = min(4, group.order)
    f = np.zeros(group.order, dtype=np.int64)
    f[rng.choice(group.order, size=k, replace=False)] = rng.choice([-3, -1, 2, 5], size=k)
    g = rng.integers(-5, 6, group.order)
    expected = [sum(int(f[y]) * int(g[mul[inv[y]][x]]) for y in idx if f[y]) for x in idx]
    got = convolve(GroupFunction(group, f), GroupFunction(group, g)).values
    assert got.dtype == np.int64 and got.tolist() == expected
    s = GroupSubset(group, rng.integers(0, 2, group.order)).union(GroupSubset.singleton(group, int(pairs[0, 0])))
    assert markov_matrix(s).tolist() == [[float(s.membership[mul[inv[a]][b]]) for b in idx] for a in idx]


class TestMakeGroup:
    def test_trivial_group(self):
        g = make_group("cyclic(1)")
        assert g.order == 1
        assert g.identity == 0

    def test_dihedral_4_order(self):
        assert make_group("dihedral(4)").order == 8

    def test_permutation_closure_a5(self, a5):
        assert a5.order == 60
        assert not a5.is_abelian

    def test_closure_accepts_image_lists(self):
        g = permutation_closure([[1, 2, 3, 4, 0]])
        assert g.order == 5

    @pytest.mark.parametrize(
        ("cycles", "n_points", "message"),
        [
            ("(1 1 2)", None, "disjoint"),
            ("(1 2)(2 3)", None, "disjoint"),
            ("(1 2 9)", 3, "exceeds n_points=3"),
            ("(1 2 3)(4 5", None, "cannot parse"),
            ("(1 2) x", None, "cannot parse"),
        ],
    )
    def test_malformed_cycles_rejected(self, cycles, n_points, message):
        with pytest.raises(ValueError, match=message):
            permutation_closure([cycles], n_points=n_points)

    @pytest.mark.parametrize(
        "descriptor",
        ['cyclic("a")', "cyclic(None)", "cyclic(2.5)", "dihedral(3.7)", "abelian_product([2.5, 3])",
         "abelian_product(5)", "multiplication_table([[0, 1.5], [1, 0]])"],
    )
    def test_parameters_and_entries_must_be_integers(self, descriptor):
        with pytest.raises(InvalidTable, match="integer|must be a list"):
            make_group(descriptor)

    def test_closure_cap(self):
        with pytest.raises(ClosureTooLarge):
            permutation_closure(["(1 2 3 4 5)", "(1 2 3)"], cap=30)

    def test_table_group_roundtrip(self, z5):
        idx = np.arange(5)
        table = z5.mul(idx[:, None], idx[None, :]).tolist()
        g = make_group(f"multiplication_table({table})")
        assert g.order == 5
        assert g.mul(2, 4) == 1

    def test_invalid_table_rejected(self):
        with pytest.raises(InvalidTable):
            make_group("multiplication_table([[0, 1], [0, 1]])")
        broken = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]  # not associative
        with pytest.raises(InvalidTable):
            make_group(f"multiplication_table({broken})")

    def test_table_group_proves_associativity(self):
        broken = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]  # identity 0, inverses, not associative
        with pytest.raises(InvalidTable, match="associativity fails at a="):
            TableGroup(broken)

    @pytest.mark.parametrize(
        "descriptor",
        ["cyclic(12)", "abelian_product([2, 3, 4])", "dihedral(7)",
         'permutation_closure(["(1 2 3 4 5)", "(1 2 3)"])'],
    )
    def test_group_laws(self, descriptor):
        g = make_group(descriptor)
        idx = np.arange(g.order)
        TableGroup(g.mul(idx[:, None], idx[None, :]))  # raises InvalidTable on any law violation
        e = g.identity
        for x in range(g.order):
            assert g.mul(e, x) == x == g.mul(x, e)
            assert g.mul(x, g.inv(x)) == e

    def test_order_301_loop_rejected(self):
        # a loop on Z/301: x*0 = 0*x = x, else x*y = 2(x + y); every row holds
        # the identity, but away from 0, (x*y)*z = x*(y*z) only when x = z
        n = 301
        idx = np.arange(n)
        loop = 2 * (idx[:, None] + idx[None, :]) % n
        loop[0, :] = loop[:, 0] = idx
        with pytest.raises(InvalidTable, match="associativity fails at a=1"):
            TableGroup(loop)


class TestOversizedGroups:
    """A closed-form group whose int64 index vector (8 bytes an element) is over
    the dense budget is refused when it is built, before anything is allocated;
    its order is a Python int, which does not wrap past 2^63."""

    @pytest.mark.parametrize(
        "descriptor",
        [f"abelian_product({[2] * 64})", "abelian_product([65536, 65536, 65536, 65536])",  # 2^64: np.prod wraps
         "cyclic(4294967296)", "abelian_product([65536, 65536])", "dihedral(2147483648)"],
        ids=["2^64 by twos", "2^64 by 65536s", "cyclic 2^32", "2^32 by 65536s", "dihedral 2^32"],
    )
    def test_refused_at_construction_without_allocating(self, descriptor):
        tracemalloc.start()
        try:
            with pytest.raises(GroupTooLarge, match="int64 indices of a group of order .* dense budget"):
                make_group(descriptor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_budget_boundary(self):
        largest = DENSE_BYTES_BUDGET // 8
        assert make_group(f"cyclic({largest})").order == largest
        assert make_group(f"dihedral({largest // 2})").order == largest
        with pytest.raises(GroupTooLarge):
            make_group(f"cyclic({largest + 1})")
        with pytest.raises(GroupTooLarge):
            make_group(f"dihedral({largest // 2 + 1})")

    def test_order_and_strides_are_exact(self):
        g = make_group(f"abelian_product({[2] * 27})")
        assert g.order == 2**27 and type(g.order) is int
        assert g.generators.tolist() == [2**i for i in range(26, -1, -1)]


def table_of(group):
    idx = np.arange(group.order)
    return np.asarray(group.mul(idx[:, None], idx[None, :]))


def relabeled_table(group, sigma):
    """The table of ``group`` with every element x renamed sigma[x]."""
    table = np.empty((group.order, group.order), dtype=np.int64)
    table[sigma[:, None], sigma[None, :]] = sigma[table_of(group)]
    return table


S6 = 'permutation_closure(["(1 2 3 4 5 6)", "(1 2)"])'
A5 = 'permutation_closure(["(1 2 3 4 5)", "(1 2 3)"])'


class TestTableGroupProof:
    """``TableGroup`` proves associativity exactly by Light's test."""

    def test_switched_intercalate_rejected(self):
        # a Latin square with identity whose 11468 non-associative triples
        # are about 3e-5 of all 720^3: 10k sampled triples expect 0.3 of them
        table = table_of(make_group(S6))
        rows, cols = np.ix_([1, 3], [2, 3])
        block = table[rows, cols]
        assert block[0, 0] == block[1, 1] and block[0, 1] == block[1, 0]  # an intercalate
        table[rows, cols] = block[:, ::-1]
        with pytest.raises(InvalidTable, match="associativity fails at a="):
            TableGroup(table)

    @pytest.mark.parametrize("descriptor", ["dihedral(7)", A5, S6])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_relabeled_table_accepted(self, descriptor, seed):
        group = make_group(descriptor)
        sigma = np.random.default_rng(seed).permutation(group.order)
        proved = TableGroup(relabeled_table(group, sigma))
        assert proved.identity == sigma[group.identity]
        assert np.array_equal(proved.inv(sigma), sigma[group.inv(np.arange(group.order))])
        assert proved.is_abelian == group.is_abelian

    @pytest.mark.parametrize("descriptor", ["dihedral(7)", A5, S6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_changed_cell_rejected(self, descriptor, seed):
        group = make_group(descriptor)
        rng = np.random.default_rng(seed)
        table = relabeled_table(group, rng.permutation(group.order))
        x, y = rng.integers(0, group.order, 2)
        table[x, y] = (table[x, y] + rng.integers(1, group.order)) % group.order
        with pytest.raises(InvalidTable):
            TableGroup(table)

    def test_every_generator_is_tested(self):
        # Z/2 x L, with L a Latin loop of order 5 that is no group, indexed
        # 2l + i: generator 1 = (1, e) is central and passes, so only the
        # second generator (0, 1) exposes L
        loop = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
        z2 = np.arange(2)
        table = 2 * loop[:, None, :, None] + (z2[None, :, None, None] ^ z2[None, None, None, :])
        with pytest.raises(InvalidTable, match="associativity fails at a=2"):
            TableGroup(table.reshape(10, 10))

    def test_too_many_generators_rejected(self):
        # identity 0 and a unique inverse per row; generator 1 passes Light's
        # test and reaches {0, 1}, half of an order-3 table, so Lagrange
        # forbids a second generator before its test runs
        with pytest.raises(InvalidTable, match="needs more than 1 generators"):
            TableGroup([[0, 1, 2], [1, 0, 2], [2, 2, 0]])

    @pytest.mark.parametrize(
        ("descriptor", "gens", "expected"),
        [
            ("cyclic(12)", [], [0]),
            ("cyclic(12)", [8], [0, 4, 8]),
            ("cyclic(12)", [8, 6], [0, 2, 4, 6, 8, 10]),
            ("dihedral(6)", [2], [0, 2, 4]),  # r^2 in the rotations 0..5
            ("dihedral(6)", [6], [0, 6]),  # one reflection
            ("dihedral(6)", [1, 6], list(range(12))),
        ],
    )
    def test_generated_subgroup(self, descriptor, gens, expected):
        member = generated_subgroup(make_group(descriptor), gens)
        assert np.flatnonzero(member).tolist() == expected

    def test_generated_subgroup_matches_product_closure(self, a5, rng):
        # the subgroup is the smallest set holding e and gens closed under products
        for _ in range(5):
            gens = rng.choice(a5.order, size=rng.integers(1, 3), replace=False)
            member = generated_subgroup(a5, gens)
            sub = GroupSubset(a5, member.astype(np.int8))
            assert all(member[gens]) and product_set(sub, sub) == sub
            closure = GroupSubset.from_indices(a5, [a5.identity, *gens])
            while product_set(closure, closure) != closure:
                closure = product_set(closure, closure)
            assert closure == sub


S5 = 'permutation_closure(["(1 2 3 4 5)", "(1 2)"])'


class TestGenerators:
    """Each family names read-only ``generators`` that generate the whole group."""

    @pytest.mark.parametrize(
        "descriptor",
        [
            "cyclic(1)",
            "cyclic(5)",
            "cyclic(12)",
            "cyclic(30)",
            "abelian_product([2, 3, 4])",
            "abelian_product([2, 1, 4])",
            "abelian_product([1, 1])",
            "abelian_product([12, 15])",
            "dihedral(3)",
            "dihedral(4)",
            "dihedral(6)",
            "dihedral(10)",
            "dihedral(500)",
            S5,
            A5,
            "multiplication_table([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])",
        ],
    )
    def test_generators_generate_the_group(self, descriptor):
        group = make_group(descriptor)
        assert not group.generators.flags.writeable
        assert generated_subgroup(group, group.generators).all()
        # none is the identity, so each one counts toward generating
        assert group.identity not in group.generators.tolist()

    @pytest.mark.parametrize(
        ("descriptor", "expected"),
        [
            ("cyclic(1)", []),
            ("cyclic(12)", [1]),
            ("abelian_product([2, 1, 4])", [4, 1]),  # unit digit vectors of the factors of order > 1
            ("dihedral(6)", [1, 6]),  # r and s
            (S5, [1, 2, 6, 24]),  # Light's greedy set
        ],
    )
    def test_named_sets(self, descriptor, expected):
        assert make_group(descriptor).generators.tolist() == expected

    @pytest.mark.parametrize("seed", [0, 1])
    def test_relabeled_table_gets_a_generating_set(self, seed):
        group = make_group("dihedral(7)")
        sigma = np.random.default_rng(seed).permutation(group.order)
        table = TableGroup(relabeled_table(group, sigma))
        assert generated_subgroup(table, table.generators).all()


TWO_TO_THE_14 = "abelian_product([" + ", ".join(["2"] * 14) + "])"


def digits_of(orders, x):
    """Mixed-radix digits of the int ``x``, the last factor least significant."""
    digits = []
    for n in reversed(orders):
        x, digit = divmod(x, n)
        digits.append(digit)
    return digits[::-1]


def index_of(orders, digits):
    x = 0
    for n, digit in zip(orders, digits):
        x = x * n + digit % n
    return x


class TestMixedRadixLaw:
    """``decode``, ``mul`` and ``inv`` against Python digit arithmetic, on inputs of
    more than 8193 elements whose last axis has length 1: numpy 2.4's
    ``unravel_index`` misreads such int64 columns, which product sets, convolution,
    the homomorphism residual and the dense split all pass."""

    @staticmethod
    def _operands(group, shape):
        rng = np.random.default_rng(0)
        x, y = np.arange(group.order), rng.permutation(group.order)
        if shape == "1-D":
            return x, y
        if shape == "broadcast":  # (k, 1) x (1, m)
            return x[:, None], y[None, :2]
        dtype = np.int64 if shape == "int64 column" else np.int32
        return x.astype(dtype)[:, None], y.astype(dtype)[:, None]

    @pytest.mark.parametrize("shape", ["1-D", "int64 column", "int32 column", "broadcast"])
    @pytest.mark.parametrize(
        "descriptor", ["abelian_product([100, 100])", "abelian_product([100, 90])", TWO_TO_THE_14, "cyclic(9001)"]
    )
    def test_law_matches_digit_arithmetic(self, descriptor, shape):
        group = make_group(descriptor)
        orders = group.factor_orders
        a, b = self._operands(group, shape)
        assert a.size > 8193
        pairs = np.broadcast_arrays(a, b)
        product, inverse = group.mul(a, b), group.inv(a)
        assert product.shape == pairs[0].shape and inverse.shape == a.shape
        expected = [
            index_of(orders, [p + q for p, q in zip(digits_of(orders, x), digits_of(orders, y))])
            for x, y in zip(pairs[0].ravel().tolist(), pairs[1].ravel().tolist())
        ]
        assert product.ravel().tolist() == expected
        xs = a.ravel().tolist()
        assert inverse.ravel().tolist() == [index_of(orders, [-d for d in digits_of(orders, x)]) for x in xs]
        decoded = group.decode(a)
        assert [d.shape for d in decoded] == [a.shape] * len(orders)
        assert np.stack([d.ravel() for d in decoded], axis=1).tolist() == [digits_of(orders, x) for x in xs]

    def test_diameter_matches_brute_force(self):
        # S = {(0, 1), (1, 0), (1, 1)} in Z/100 x Z/100: S^d by shifting a 0/1 grid
        # of digit pairs, which reads no group law
        group = make_group("abelian_product([100, 100])")
        reached = np.zeros((100, 100), dtype=bool)
        reached[0, 0] = True
        brute = 0
        while not reached.all():
            reached = np.roll(reached, 1, axis=0) | np.roll(reached, 1, axis=1) | np.roll(reached, (1, 1), axis=(0, 1))
            brute += 1
        assert brute == diameter(GroupSubset.from_indices(group, [1, 100, 101])) == 198

    def test_full_group_convolves_to_the_set_size(self):
        group = make_group("abelian_product([100, 100])")
        s = GroupSubset.from_indices(group, [1, 100, 101])
        assert convolve(GroupSubset.full(group).indicator(), s.indicator()).values.tolist() == [3] * group.order

    def test_cyclic_is_the_one_factor_product_under_its_own_name(self):
        cyclic, product = make_group("cyclic(12)"), make_group("abelian_product([12])")
        assert cyclic != product and cyclic.signature() == ("cyclic", 12)
        assert (cyclic.name, product.name) == ("cyclic(12)", "abelian_product(12)")
        x = np.arange(12)
        assert np.array_equal(cyclic.mul(x[:, None], x), product.mul(x[:, None], x))
        assert np.array_equal(cyclic.inv(x), product.inv(x))


class TestProductSet:
    def test_identity_factor(self, z7):
        b = GroupSubset.from_indices(z7, [2, 3])
        e = GroupSubset.singleton(z7, 0)
        assert product_set(e, b) == b

    def test_hand_case_z5(self, z5):
        a = GroupSubset.from_indices(z5, [1, 2])
        b = GroupSubset.from_indices(z5, [0, 1])
        got = sorted(int(i) for i in product_set(a, b).indices)
        assert got == [1, 2, 3]
        assert got == brute_product_set(a, b)

    def test_full_group_absorbs(self, d4):
        full = GroupSubset.full(d4)
        b = GroupSubset.from_indices(d4, [3])
        assert product_set(full, b) == full

    def test_associative(self, d6, rng):
        for _ in range(10):
            subsets = [
                GroupSubset.from_indices(d6, rng.choice(12, size=rng.integers(1, 6), replace=False))
                for _ in range(3)
            ]
            a, b, c = subsets
            assert product_set(a, product_set(b, c)) == product_set(product_set(a, b), c)

    def test_inverse_antidistributes(self, d6, rng):
        for _ in range(10):
            a = GroupSubset.from_indices(d6, rng.choice(12, size=3, replace=False))
            b = GroupSubset.from_indices(d6, rng.choice(12, size=4, replace=False))
            assert inverse_set(product_set(a, b)) == product_set(inverse_set(b), inverse_set(a))

    def test_group_mismatch(self, z5, z7):
        with pytest.raises(GroupMismatch):
            product_set(GroupSubset.full(z5), GroupSubset.full(z7))


class TestInverseSet:
    def test_identity(self, d4):
        e = GroupSubset.singleton(d4, 0)
        assert inverse_set(e) == e

    def test_hand_case_z7(self, z7):
        a = GroupSubset.from_indices(z7, [1, 2])
        assert sorted(int(i) for i in inverse_set(a).indices) == [5, 6]

    def test_involution(self, d6, rng):
        for _ in range(10):
            a = GroupSubset.from_indices(d6, rng.choice(12, size=5, replace=False))
            assert inverse_set(inverse_set(a)) == a


class TestKthRoots:
    def test_z5_cube_roots_of_zero(self, z5):
        roots = kth_roots(GroupSubset.singleton(z5, 0), 3)
        assert sorted(int(i) for i in roots.indices) == [0]

    def test_z6_cube_roots_of_zero(self):
        z6 = make_group("cyclic(6)")
        roots = kth_roots(GroupSubset.singleton(z6, 0), 3)
        assert sorted(int(i) for i in roots.indices) == [0, 2, 4]

    def test_dihedral_reflections_are_involutions(self, d6):
        roots = kth_roots(GroupSubset.singleton(d6, 0), 2)
        reflections = set(range(6, 12))
        assert reflections <= set(int(i) for i in roots.indices)

    def test_k_zero_rejected(self, z5):
        with pytest.raises(KZero):
            kth_roots(GroupSubset.full(z5), 0)

    def test_brute_oracle(self, d6, rng):
        a = GroupSubset.from_indices(d6, rng.choice(12, size=4, replace=False))
        for k in (2, 3, 5):
            got = set(int(i) for i in kth_roots(a, k).indices)
            expected = set()
            for x in range(12):
                p = x
                for _ in range(k - 1):
                    p = d6.mul(p, x)
                if p in a:
                    expected.add(x)
            assert got == expected


class TestConvolve:
    def test_delta_is_identity(self, d6, rng):
        g = GroupFunction(d6, rng.normal(size=12) + 1j * rng.normal(size=12))
        out = convolve(GroupFunction.delta(d6), g)
        assert np.abs(out.values - g.values).max() < 1e-12

    def test_hand_case_z4(self):
        z4 = make_group("cyclic(4)")
        f = GroupSubset.from_indices(z4, [0, 1]).indicator()
        got = convolve(f, f).values
        assert got.tolist() == [1, 2, 1, 0]
        assert np.abs(got - brute_convolve(f, f)).max() == 0

    def test_full_group_constant(self, z5):
        f = GroupSubset.full(z5).indicator()
        assert convolve(f, f).values.tolist() == [5] * 5

    def test_mass_identity(self, d6, rng):
        for _ in range(10):
            a = GroupSubset.from_indices(d6, rng.choice(12, size=rng.integers(1, 8), replace=False))
            b = GroupSubset.from_indices(d6, rng.choice(12, size=rng.integers(1, 8), replace=False))
            conv = convolve(a.indicator(), b.indicator())
            assert int(conv.values.sum()) == a.size * b.size

    def test_nonabelian_matches_brute(self, d4, rng):
        f = GroupFunction(d4, rng.normal(size=8))
        g = GroupFunction(d4, rng.normal(size=8))
        assert np.abs(convolve(f, g).values - brute_convolve(f, g)).max() < 1e-12

    def test_signed_integers_switch_to_float_above_mass_limit(self, z5):
        f = GroupFunction(z5, np.array([2**40, -1, 0, 0, 0], dtype=np.int64))
        g = GroupFunction(z5, np.array([2**40, 0, 0, 0, 0], dtype=np.int64))
        values = convolve(f, g).values
        assert values.dtype == np.float64
        assert values[0] == 2.0**80

    def test_float_overflow_is_refused(self, z5):
        # 4^600 ways to write an element: the float64 values would read inf
        f = GroupFunction(z5, np.array([1e200, 1e200, 0, 0, 0]))
        with pytest.raises(OverflowError, match="float64 range"):
            convolve(f, f)
        with pytest.raises(OverflowError):
            iterated_convolution(GroupSubset.from_indices(z5, [0, 1, 2, 3]).indicator(), 600)

    def test_sparse_left_factor_allocates_no_square(self):
        group = make_group("cyclic(4001)")
        f = GroupSubset.from_indices(group, range(0, 4000, 400)).indicator()
        g = GroupFunction(group, np.arange(4001, dtype=np.int64))
        tracemalloc.start()
        try:
            out = convolve(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        # on Z/n, (f*g)(x) = sum over y in supp(f) of g(x - y)
        assert np.array_equal(out.values, sum(np.roll(g.values, y) for y in range(0, 4000, 400)))

    def test_iterated_first_power(self, z5):
        f = GroupSubset.from_indices(z5, [1, 2]).indicator()
        assert np.array_equal(iterated_convolution(f, 1).values, f.values)
        with pytest.raises(KZero):
            iterated_convolution(f, 0)

    def test_group_mismatch(self, z5, z7):
        with pytest.raises(GroupMismatch):
            convolve(GroupFunction.delta(z5), GroupFunction.delta(z7))


class TestDiameter:
    def test_full_set(self, d6):
        assert diameter(GroupSubset.full(d6)) == 1

    def test_z5_interval(self, z5):
        s = GroupSubset.from_indices(z5, [0, 1])
        assert diameter(s) == 4
        assert power_set(s, 3).size < 5
        assert power_set(s, 4).size == 5

    def test_singleton_never_covers(self, z5):
        with pytest.raises(NoFiniteDiameter):
            diameter(GroupSubset.from_indices(z5, [1]))

    def test_empty_set(self, z5):
        with pytest.raises(EmptySet):
            diameter(GroupSubset.empty(z5))

    def test_boundary_property(self, d6, rng):
        found = 0
        for _ in range(20):
            s = GroupSubset.from_indices(
                d6, rng.choice(12, size=rng.integers(2, 7), replace=False)
            )
            try:
                d = diameter(s)
            except NoFiniteDiameter:
                continue
            found += 1
            assert power_set(s, d).size == 12
            if d > 1:
                assert power_set(s, d - 1).size < 12
        assert found >= 5

    def test_brute_oracle(self, d4, rng):
        for _ in range(10):
            s = GroupSubset.from_indices(
                d4, rng.choice(8, size=rng.integers(1, 5), replace=False)
            )
            try:
                d = diameter(s)
            except NoFiniteDiameter:
                continue
            assert brute_power_covering(s, d) == list(range(8))
            if d > 1:
                assert brute_power_covering(s, d - 1) != list(range(8))


class TestSubsetBasics:
    def test_membership_validation(self, z5):
        with pytest.raises(ValueError):
            GroupSubset(z5, [0, 1, 2, 0, 0])
        for bad in (-1, 0.5, np.nan, 1 + 1j, "1"):
            with pytest.raises(ValueError):
                GroupSubset(z5, [0, 1, bad, 0, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # casting 1 + 0j to int8 warns about the imaginary part
            for good in ([True, False, True, False, False], [0.0, 1.0, 1.0, 0.0, 0.0], [1 + 0j, 0, 0, 1, 0]):
                assert GroupSubset(z5, good).indices.tolist() == [i for i, v in enumerate(good) if v]
        with pytest.raises(ValueError):
            GroupSubset.from_indices(z5, [9])

    def test_indices_must_be_integers(self, z5):
        with pytest.raises(ValueError, match="must be integers"):
            GroupSubset.from_indices(z5, [0, 1.5])
        assert GroupSubset.from_indices(z5, []) == GroupSubset.empty(z5)
        assert GroupSubset.from_indices(z5, np.array([4, 1], dtype=np.uint8)).indices.tolist() == [1, 4]

    def test_immutable(self, z5):
        s = GroupSubset.full(z5)
        with pytest.raises(AttributeError):
            s.membership = None
        with pytest.raises(ValueError):
            s.membership[0] = 0

    def test_symmetry_flag(self, z7):
        assert GroupSubset.from_indices(z7, [1, 6]).is_symmetric
        assert not GroupSubset.from_indices(z7, [1, 2]).is_symmetric
