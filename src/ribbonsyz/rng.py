"""Seeded draws: the stream of numpy's ``default_rng``, without ``numpy.random``.

``SeededStream(seed)`` gives the same numbers as numpy's
``default_rng(seed)`` for the two calls the package makes,
``integers(low, high, size)`` and ``choice(n, size, replace=False)``.
Importing ``numpy.random`` costs several milliseconds and a few MB in a
fresh process, a large share of a small command, so no command imports it.

The seed goes through SeedSequence's hash mixing into PCG64 (O'Neill,
"PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation", 2014): a 128-bit LCG with XSL-RR
output.  Each 64-bit output is handed out as two 32-bit halves, the high
half kept for the next call.  Bounded integers follow Lemire's method
("Fast Random Integer Generation in an Interval", ACM TOMACS 2019) on
those halves, the path numpy takes for every range of at most 2^32 values;
wider ranges are refused, since no modulus here exceeds 2^31.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["SeededStream"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# SeedSequence's hash constants and its pool of four 32-bit words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# choice without replacement shuffles the tail of range(n) above this n
# when more than n // 50 values are drawn; Floyd's algorithm otherwise
_TAIL_SHUFFLE_N = 10000
_TAIL_SHUFFLE_CUTOFF = 50


def _seed_state(seed: int) -> list[int]:
    """The four 64-bit words SeedSequence(seed).generate_state(4, uint64) gives."""
    entropy = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        halves.append(value ^ value >> 16)
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


class SeededStream:
    """The draws of numpy's ``default_rng(seed)``, for ``integers`` and ``choice``."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        s0, s1, i0, i1 = _seed_state(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self._state = (self._inc + (s0 << 64 | s1)) & _MASK128
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._half = None  # the high 32 bits of the last 64-bit output, unread

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        word = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        word = (word >> rot | word << (64 - rot)) & _MASK64
        self._half = word >> 32
        return word & _MASK32

    def _bounded(self, top: int) -> int:
        """Uniform on [0, top], top < 2^32, by Lemire's multiply-and-reject."""
        if top == 0:
            return 0
        if top == _MASK32:
            return self._next32()
        span = top + 1
        m = self._next32() * span
        if m & _MASK32 < span:
            threshold = (_MASK32 - top) % span
            while m & _MASK32 < threshold:
                m = self._next32() * span
        return m >> 32

    def _shuffle(self, data: list, first: int) -> None:
        """Fisher-Yates over positions len(data) - 1 down to first."""
        for i in range(len(data) - 1, first - 1, -1):
            j = self._bounded(i)
            data[i], data[j] = data[j], data[i]

    def integers(self, low: int, high: int, size) -> np.ndarray:
        """An int64 array of the given shape, uniform on [low, high)."""
        low, high = operator.index(low), operator.index(high)
        if high <= low:
            raise ValueError(f"integers needs low < high, got [{low}, {high})")
        top = high - low - 1
        if top > _MASK32:
            raise ValueError(f"range [{low}, {high}) is wider than 2^32 values")
        out = np.empty(size, dtype=np.int64)
        out.flat = [low + self._bounded(top) for _ in range(out.size)]
        return out

    def choice(self, n: int, size, replace: bool = True) -> np.ndarray:
        """``size`` distinct values of range(n), in random order; int64."""
        if replace:
            raise ValueError("only choice without replacement is drawn")
        out = np.empty(size, dtype=np.int64)
        n, k = operator.index(n), out.size
        if k > n:
            raise ValueError(f"cannot choose {k} distinct values of range({n})")
        if n - 1 > _MASK32:
            raise ValueError(f"range({n}) is wider than 2^32 values")
        if n > _TAIL_SHUFFLE_N and k > n // _TAIL_SHUFFLE_CUTOFF:
            values = list(range(n))
            self._shuffle(values, n - k)
            values = values[n - k :]
        else:
            seen: set[int] = set()
            values = []
            for j in range(n - k, n):
                value = self._bounded(j)
                if value in seen:
                    value = j
                seen.add(value)
                values.append(value)
            self._shuffle(values, 1)
        out.flat = values
        return out
