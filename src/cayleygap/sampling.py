"""Seeded draws, and the instance generators built on them.

``SeededStream(seed)`` returns, draw for draw, what ``numpy.random.default_rng(seed)``
returns for the calls the package makes: ``choice(n, size, replace=False)``,
``permutation`` and ``integers``.  Both are PCG64, the XSL-RR 128-bit LCG (O'Neill,
HMC-CS-2014-0905), seeded through numpy's ``SeedSequence`` mix and read as a stream
of 32-bit words, the low half of each 64-bit output first.  Bounded integers use
Lemire's multiply-shift rejection (ACM TOMACS 29(1), 2019); ``permutation`` uses
masked rejection.  So a set depends only on the config and the seed, not on the
installed numpy's ``Generator``, and no run imports ``numpy.random``.  The state
advances a block of outputs at a time through one jump table per process, which
grows by doubling only as far as the largest block drawn yet: 64 entries after a
few dozen scalar draws, the full 2^13 after the first vector draw.

The generators below take either that stream or a ``numpy.random.Generator``.
"""

from __future__ import annotations

import numpy as np

from .errors import RangeViolation
from .groups import FiniteGroup, GroupFunction, GroupSubset

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_BLOCK = 2**13  # 64-bit outputs in one vector block: the jump table's largest length
_U32, _U58, _U64 = np.uint64(32), np.uint64(58), np.uint64(64)
_UM32, _U63 = np.uint64(_M32), np.uint64(63)


def _seed_state(seed: int) -> tuple[int, int]:
    """(state, increment) of ``PCG64(SeedSequence(seed))``: the entropy's 32-bit
    words are hashed into a pool of four, and four 64-bit words drawn from it
    seed the LCG."""
    if seed < 0:
        raise RangeViolation(f"a seed must be >= 0, got {seed}")
    entropy = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, halves = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        halves.append(value ^ value >> 16)
    w = [halves[2 * i] | halves[2 * i + 1] << 32 for i in range(4)]
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
    state = ((inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc) & _M128
    return state, inc


def _split(hi, lo):
    """A 128-bit limb vector as (hi, lo, low and high 32 bits of lo), all uint64."""
    return hi, lo, lo & _UM32, lo >> _U32


def _mul(v, x: int):
    """(hi, lo) of v * x mod 2^128, for a ``_split`` vector v and a Python int x.
    Each step writes into one of three buffers: a fresh array per step would
    double the time of a block."""
    hi, lo, lo0, lo1 = v
    x_lo = x & _M64
    x0, x1 = np.uint64(x_lo & _M32), np.uint64(x_lo >> 32)
    t, mid, tmp = np.multiply(lo0, x0), np.empty_like(lo), np.empty_like(lo)
    t >>= _U32
    t += np.multiply(lo0, x1, out=tmp)  # below 2^64, as is mid
    np.bitwise_and(t, _UM32, out=mid)
    mid += np.multiply(lo1, x0, out=tmp)
    t >>= _U32
    mid >>= _U32
    t += mid
    t += np.multiply(lo1, x1, out=tmp)  # t is now the high word of lo * x_lo
    t += np.multiply(hi, np.uint64(x_lo), out=tmp)
    t += np.multiply(lo, np.uint64(x >> 64 & _M64), out=tmp)
    return t, np.multiply(lo, np.uint64(x_lo), out=mid)


def _add(a, b):
    """(hi, lo) of a + b mod 2^128, for limb vectors a and b, written into a."""
    hi, lo = a
    lo += b[1]
    hi += b[0]
    hi += lo < b[1]  # the carry out of the low word
    return hi, lo


# a^j and c_j for j = 1, 2, ..., grown in place by _jump_table: one table per process
_table = [
    _split(np.array([_PCG_MULT >> 64], dtype=np.uint64), np.array([_PCG_MULT & _M64], dtype=np.uint64)),
    _split(np.zeros(1, dtype=np.uint64), np.ones(1, dtype=np.uint64)),
]


def _jump_table(length: int):
    """a^j and c_j = sum_{i<j} a^i mod 2^128 for j = 1..L, as ``_split`` vectors, with
    L >= ``length`` a power of two.  The process's one table is doubled from j = 1,
    a^(L+j) = a^j a^L and c_(L+j) = a^j c_L + c_j, only as far as some call asks;
    a prefix does not depend on where the doubling stops."""
    power, total = _table
    while power[0].size < length:
        a_l, c_l = (int(v[0][-1]) << 64 | int(v[1][-1]) for v in (power, total))
        power, total = (
            _split(*map(np.concatenate, zip(power[:2], _mul(power, a_l)))),
            _split(*map(np.concatenate, zip(total[:2], _add(_mul(power, c_l), total)))),
        )
        for v in power + total:
            v.flags.writeable = False  # shared by every stream of the process
        _table[:] = power, total
    return power, total


class SeededStream:
    """The draws of ``numpy.random.default_rng(seed)`` for ``choice(n, size,
    replace=False)``, ``permutation`` and ``integers``, for ranges below 2^32.

    A block advances the state through the jump table: the j-th state after s
    is a^j s + c_j inc.  The stream keeps c_j inc for as many j as the table held
    when a block last outgrew it.  Scalar draws read the block's words in Python
    from blocks of 64 outputs, doubling to _BLOCK; vector draws filter whole
    blocks with numpy.
    """

    def __init__(self, seed: int):
        self._state, self._inc = _seed_state(int(seed))
        self._offset = (np.empty(0, dtype=np.uint64),) * 2  # c_j inc, regrown by _block
        self._words: list[int] = []  # the unread words are _words[_at:], then _rest
        self._at = 0
        self._rest = np.empty(0, dtype=np.uint32)
        self._size = 64  # scalar blocks grow to _BLOCK from here

    def _block(self, count: int) -> np.ndarray:
        """The next 2 * count 32-bit words: each output's low word, then its high word."""
        power, total = _jump_table(count)
        if self._offset[0].size < count:
            self._offset = _mul(total, self._inc)
        hi, lo = _add(_mul([v[:count] for v in power], self._state), [v[:count] for v in self._offset])
        self._state = int(hi[-1]) << 64 | int(lo[-1])
        lo ^= hi  # XSL-RR: hi ^ lo rotated right by the top 6 bits of hi
        hi >>= _U58
        out = lo >> hi
        np.subtract(_U64, hi, out=hi)
        hi &= _U63
        lo <<= hi
        out |= lo
        return out.astype("<u8", copy=False).view("<u4")

    def _word(self) -> int:
        if self._at == len(self._words):
            if not self._rest.size:
                self._rest, self._size = self._block(self._size), min(2 * self._size, _BLOCK)
            self._words, self._at, self._rest = self._rest.tolist(), 0, self._rest[:0]
        self._at += 1
        return self._words[self._at - 1]

    def _lemire(self, top: int) -> int:
        """Uniform in [0, top]: numpy's 32-bit Lemire draw, none when top = 0."""
        r = top + 1
        threshold = (1 << 32) % r
        while top:
            m = self._word() * r
            if m & _M32 >= threshold:
                return m >> 32
        return 0

    def _masked(self, top: int) -> int:
        """Uniform in [0, top]: numpy's masked draw, none when top = 0."""
        mask = (1 << top.bit_length()) - 1
        while top:
            value = self._word() & mask
            if value <= top:
                return value
        return 0

    @staticmethod
    def _check(span: int) -> None:
        if span >= 2**32:
            raise RangeViolation(f"the seeded stream draws from ranges below 2^32, got {span}")

    def integers(self, low: int, high: int, size: int | None = None):
        """Uniform in [low, high): an int, or an int64 array of ``size`` draws."""
        r = int(high) - int(low)
        if r < 1:
            raise ValueError(f"integers needs low < high, got [{low}, {high})")
        self._check(r)
        if size is None:
            return int(low) + self._lemire(r - 1)
        out = np.zeros(size, dtype=np.int64)
        words = np.concatenate([np.array(self._words[self._at :], dtype=np.uint32), self._rest])
        self._words, self._at = [], 0
        threshold, filled = np.uint64((1 << 32) % r), 0
        while filled < size and r > 1:
            if not words.size:
                words = self._block(_BLOCK)
            need = size - filled
            m = np.multiply(words, np.uint64(r), dtype=np.uint64)
            accepted = (m & _UM32) >= threshold
            if accepted.all():  # the common case: rejections are rare unless r is near 2^32
                used = min(need, words.size)
                m = m[:used]
            else:
                kept = np.flatnonzero(accepted)[:need]
                used = kept[-1] + 1 if kept.size == need else words.size
                m = m[kept]
            out[filled : filled + m.size] = m >> _U32
            filled += m.size
            words = words[used:]
        self._rest = words
        out += int(low)
        return out

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        """``size`` distinct draws from range(n), in numpy's order: a tail
        shuffle of range(n) when n > 10000 and size > n // 50, else Floyd's
        algorithm and then a shuffle."""
        if replace:
            raise ValueError("the seeded stream draws without replacement only")
        n, size = int(n), int(size)
        if not 0 <= size <= n:
            raise ValueError(f"cannot draw {size} distinct values from range({n})")
        self._check(n)
        if n > 10000 and size > n // 50:
            idx = list(range(n))
            self._shuffle(idx, max(n - size, 1), self._lemire)
            return np.array(idx[n - size :], dtype=np.int64)
        idx, seen = [], set()
        for j in range(n - size, n):
            val = self._lemire(j)
            if val in seen:
                val = j
            seen.add(val)
            idx.append(val)
        self._shuffle(idx, 1, self._lemire)
        return np.array(idx, dtype=np.int64)

    @staticmethod
    def _shuffle(items: list, first: int, draw) -> None:
        """Swap items[i] with items[draw(i)], for i from the end down to ``first``."""
        for i in range(len(items) - 1, first - 1, -1):
            j = draw(i)
            items[i], items[j] = items[j], items[i]

    def permutation(self, x) -> np.ndarray:
        """A shuffled copy of ``x``, or of ``range(x)`` for an int."""
        items = np.arange(x) if isinstance(x, (int, np.integer)) else np.array(x)
        self._check(items.size)
        values = items.tolist()
        self._shuffle(values, 1, self._masked)
        return np.array(values, dtype=items.dtype)


def random_subset(group: FiniteGroup, size: int, rng: SeededStream | np.random.Generator) -> GroupSubset:
    """Uniform random subset of the prescribed size, in [0, |G|]."""
    idx = rng.choice(group.order, size=size, replace=False)
    return GroupSubset.from_indices(group, idx)


def random_symmetric_subset(
    group: FiniteGroup, size_hint: int, rng: SeededStream | np.random.Generator
) -> GroupSubset:
    """T union T^-1 for a random T of the hinted size, in [1, |G|]; symmetric by construction."""
    t = rng.choice(group.order, size=size_hint, replace=False)
    member = np.zeros(group.order, dtype=np.int8)
    member[t] = 1
    member[group.inv(t)] = 1
    return GroupSubset(group, member)


def random_function(group: FiniteGroup, rng: np.random.Generator) -> GroupFunction:
    """Complex Gaussian test function."""
    values = rng.normal(size=group.order) + 1j * rng.normal(size=group.order)
    return GroupFunction(group, values)


def random_nonempty_subset(
    group: FiniteGroup, rng: np.random.Generator, max_size: int | None = None
) -> GroupSubset:
    cap = max_size or group.order
    size = int(rng.integers(1, max(2, min(cap, group.order) + 1)))
    return random_subset(group, size, rng)
