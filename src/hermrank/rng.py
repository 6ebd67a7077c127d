"""Deterministic 64-bit random number generation (SplitMix64).

Every randomized procedure in this package draws from SplitMix64 streams so
that results are reproducible bit-for-bit across platforms and Python
versions.  The generator is the standard one: the state advances by the
golden-ratio increment 0x9E3779B97F4A7C15 and each output is the finalizer

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

applied to the new state, all modulo 2^64.  Independent substreams are
derived by :func:`substream_seed`, which runs the same finalizer on
``master + GOLDEN * (index + 1)``; distinct indices give uncorrelated seeds.

:meth:`SplitMix64.draws` returns the list that ``count`` calls of
:meth:`SplitMix64.below` would, and leaves the same state, in one pass over
all the outputs.  It is exact because SplitMix64 is a counter passed
through a finalizer (Steele, Lea and Flood, "Fast splittable pseudorandom
number generators", OOPSLA 2014): the i-th output (from 1) of a stream at
state s is the finalizer of s + i * GOLDEN alone.  So lane i (from 0) of
one int, bits 128*i .. 128*i + 127, holds s + (i+1) * GOLDEN mod 2^64, and
the finalizer runs on all lanes at once (SWAR, SIMD within a register).
Each step is masked back to 64 bits a lane before the next shift or
product: a right shift then moves only zeros across a lane's low 64 bits,
and a 64 x 64-bit product fits its 128-bit lane, so no bit crosses into
another lane.  The outputs are the low halves of the lanes, read as machine
words.
"""

from __future__ import annotations

import functools
import sys

_MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
# the low 64-bit halves of the lanes among the words of the int's native
# bytes: lane i's low half is word 2i, or word 2*count - 1 - 2i big-endian
_LOW_HALVES = slice(None, None, 2 if sys.byteorder == "little" else -2)


def _mix(z: int, mask: int = _MASK) -> int:
    """The finalizer of z mod 2^64, or, with the mask of _lanes, of every
    128-bit lane of z at once; only a lane's low 64 bits are its output."""
    z &= mask
    z = ((z ^ z >> 30) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ z >> 27) & mask) * 0x94D049BB133111EB & mask
    return z ^ z >> 31


@functools.lru_cache(maxsize=64)
def _lanes(count: int) -> tuple[int, int, int]:
    """(ones, ramp, mask) for count 128-bit lanes: lane i holds 1, (i+1) *
    GOLDEN mod 2^64 and 2^64 - 1 respectively."""
    ones = int.from_bytes((b"\1" + bytes(15)) * count, "little")
    steps = b"".join(((i + 1) * GOLDEN & _MASK).to_bytes(16, "little") for i in range(count))
    return ones, int.from_bytes(steps, "little"), _MASK * ones


def substream_seed(master: int, index: int) -> int:
    """Seed for the index-th substream of a master seed."""
    return _mix((master + GOLDEN * (index + 1)) & _MASK)


class SplitMix64:
    """SplitMix64 stream; deterministic for a given seed."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & _MASK
        return _mix(self._state)

    def below(self, bound: int) -> int:
        """Uniform-ish draw in [0, bound) by reduction; bound must be positive.

        Plain modular reduction is used on purpose: the bias for the tiny
        bounds needed here (q, q^2, small table sizes) is far below 2^-50 and
        the reduction keeps the consumed-stream layout trivially portable.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def draws(self, bound: int, count: int) -> list:
        """[self.below(bound) for _ in range(count)], with the same state
        afterwards, in one pass over 128-bit lanes (module docstring)."""
        if bound <= 0 or count < 0:
            raise ValueError("bound must be positive and count non-negative")
        ones, ramp, mask = _lanes(count)
        z = _mix(self._state * ones + ramp, mask)
        self._state = (self._state + count * GOLDEN) & _MASK
        return [x % bound for x in memoryview(z.to_bytes(16 * count, sys.byteorder)).cast("Q")[_LOW_HALVES]]
