"""The seeded stream equals numpy.random.default_rng(seed) draw for draw."""

import numpy as np
import pytest

from cayleygap import sampling
from cayleygap.errors import RangeViolation
from cayleygap.sampling import SeededStream, _seed_state

SEEDS = list(range(64)) + [2**32, 2**40 + 7, 2**64 - 1, 2**96 + 12345, 2**160 + 3]  # the last four are multi-word

# each call is made on both, in this order, so a wrong word count shifts every later draw
CALLS = [
    ("choice", 1, 1),
    ("choice", 5, 0),
    ("choice", 7, 7),
    ("choice", 1009, 40),
    ("integers", 0, 7, 5),  # odd length: the next scalar reads the buffered half-word
    ("integers", 1, 1009),
    ("integers", 5, 6, 10),  # one value: no draw
    ("permutation", 61),
    ("integers", 0, 3, 1),
    ("permutation", np.arange(1, 400)),
    ("choice", 10000, 200),  # n = 10000: Floyd at every size
    ("choice", 10000, 201),
    ("choice", 10001, 200),  # n // 50 = 200: Floyd
    ("choice", 10001, 201),  # above n // 50: the tail shuffle
    ("integers", 0, 2**31 + 5, 1001),  # about half the draws are rejected
    ("integers", 3, 2**31 + 11),
    ("integers", 0, 1009, 20001),  # vector draws over more than one block
    ("integers", 1, 1009, 20001),
    ("permutation", 1),
    ("integers", 0, 2**31 + 5),
]


def _draw(rng, name, *args):
    if name == "choice":
        return rng.choice(*args, replace=False)
    return getattr(rng, name)(*args)


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_equals_default_rng(seed):
    ref, ours = np.random.default_rng(seed), SeededStream(seed)
    state = ref.bit_generator.state["state"]
    assert _seed_state(seed) == (state["state"], state["inc"])
    for name, *args in CALLS:
        expected, got = _draw(ref, name, *args), _draw(ours, name, *args)
        if np.ndim(expected):
            assert got.dtype == expected.dtype and np.array_equal(got, expected), (name, args)
        else:
            assert type(got) is int and got == expected, (name, args)


# drawn with numpy 2.4.6's default_rng, so the pin holds whatever Generator is installed
FROZEN = {
    0: ([640, 514, 271, 310, 854], [7, 2, 3, 4, 5, 1, 6, 0], [1752032170, 846428921, 1841261667, 72124473, 1033071482], 42, [6372, 653, 6123]),
    7: ([628, 688, 949, 583, 904], [3, 2, 5, 6, 7, 0, 4, 1], [1545052027, 547328272, 2126996173, 955794090, 2137820584], 80, [1340, 6310, 7945]),
    2**40 + 7: ([17, 834, 257, 613, 207], [0, 3, 6, 4, 2, 7, 1, 5], [287088953, 1935358509, 1773865888, 74932991, 510994188], 52, [1741, 8835, 5065]),
}


@pytest.mark.parametrize("seed", sorted(FROZEN))
def test_frozen_draws(seed):
    rng = SeededStream(seed)
    drawn = (
        rng.choice(1009, 5).tolist(),
        rng.permutation(8).tolist(),
        rng.integers(0, 2**31 + 5, 5).tolist(),
        rng.integers(1, 100),
        rng.choice(10001, 201)[:3].tolist(),
    )
    assert drawn == FROZEN[seed]


def test_ranges_of_2_to_the_32_are_refused():
    rng = SeededStream(0)
    with pytest.raises(RangeViolation):
        rng.integers(0, 2**32)
    with pytest.raises(RangeViolation):
        rng.integers(-1, 2**32 - 1, 3)
    with pytest.raises(RangeViolation):
        rng.choice(2**32, 1)
    rng.integers(0, 2**32 - 1)  # the largest range it draws


def test_invalid_calls():
    rng = SeededStream(0)
    with pytest.raises(ValueError):
        rng.integers(3, 3)
    with pytest.raises(ValueError):
        rng.choice(5, 6)
    with pytest.raises(ValueError):
        rng.choice(5, 2, replace=True)
    with pytest.raises(RangeViolation):
        SeededStream(-1)


@pytest.fixture
def fresh_table(monkeypatch):
    """The jump table as a fresh process holds it, j = 1 alone, for one test."""
    monkeypatch.setattr(sampling, "_table", [tuple(v[:1] for v in part) for part in sampling._table])


def _table_length() -> int:
    return sampling._table[0][0].size


def _limbs(value: int) -> tuple[int, int]:
    return value >> 64, value & (2**64 - 1)


def test_table_grown_in_steps_equals_one_doubled_at_once(fresh_table):
    for length in (1, 64, 100, 128, 1000, 4096, sampling._BLOCK, 5):
        before = _table_length()
        stepped = sampling._jump_table(length)
        assert _table_length() == max(before, 2 ** (length - 1).bit_length())  # the first power of two >= length
    sampling._table[:] = [tuple(v[:1] for v in part) for part in sampling._table]
    straight = sampling._jump_table(sampling._BLOCK)
    for got, expected in zip(stepped[0] + stepped[1], straight[0] + straight[1]):
        assert np.array_equal(got, expected)
    # against the definition: a^j and c_j = sum_{i<j} a^i mod 2^128, limb for limb
    a, mod = sampling._PCG_MULT, 2**128
    for j in (1, 2, 63, 64, 65, 4097, sampling._BLOCK):
        power, total = (_limbs(v) for v in (pow(a, j, mod), sum(pow(a, i, mod) for i in range(j)) % mod))
        assert (int(stepped[0][0][j - 1]), int(stepped[0][1][j - 1])) == power
        assert (int(stepped[1][0][j - 1]), int(stepped[1][1][j - 1])) == total


def test_scalar_draws_grow_the_table_to_the_full_block(fresh_table):
    """Scalar blocks of 64, 128, ..., 2^13 outputs, each on a larger table and
    offset, then a vector draw that reads past the last of them."""
    seed, words = 11, 2 * (2 * sampling._BLOCK - 64)
    ref, ours = np.random.default_rng(seed), SeededStream(seed)
    expected = [int(ref.integers(0, 1009)) for _ in range(words + 1)]
    assert [ours.integers(0, 1009) for _ in range(words + 1)] == expected
    assert _table_length() == sampling._BLOCK
    assert np.array_equal(ours.integers(0, 1009, 20001), ref.integers(0, 1009, 20001))
    assert [ours.integers(0, 7) for _ in range(300)] == [int(ref.integers(0, 7)) for _ in range(300)]


def test_vector_draw_builds_the_whole_table(fresh_table):
    """A stream whose first draw is a vector grows the table to 2^13 at once.
    Another stream, whose offset a scalar draw sized on the 64-entry table,
    regrows it when its blocks outgrow 64 on the table the first one grew."""
    ref, ours = np.random.default_rng(12), SeededStream(12)
    other_ref, other = np.random.default_rng(13), SeededStream(13)
    assert other.integers(0, 1009) == other_ref.integers(0, 1009)
    assert _table_length() == 64
    assert np.array_equal(ours.integers(0, 1009, 20001), ref.integers(0, 1009, 20001))
    assert _table_length() == sampling._BLOCK
    assert [other.integers(0, 1009) for _ in range(5000)] == [int(other_ref.integers(0, 1009)) for _ in range(5000)]
    assert [ours.integers(0, 1009) for _ in range(5000)] == [int(ref.integers(0, 1009)) for _ in range(5000)]
    assert np.array_equal(ours.choice(1009, 40), ref.choice(1009, 40, replace=False))


def test_a_few_scalar_draws_leave_the_table_small(fresh_table):
    assert np.array_equal(SeededStream(0).choice(1009, 40), np.random.default_rng(0).choice(1009, 40, replace=False))
    assert _table_length() <= 128
