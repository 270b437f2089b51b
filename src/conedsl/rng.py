"""Deterministic random number generation for the example gallery.

A 64-bit splitmix-style generator: every state update adds the golden-ratio
increment and the output is produced by two multiply-xorshift mixing rounds.
The stream for a given seed is identical across platforms and processes,
which keeps example runs reproducible byte-for-byte.

The state is a counter (Steele, Lea and Flood, "Fast splittable pseudorandom
number generators", OOPSLA 2014): the i-th draw after a state s mixes
s + i*gamma mod 2**64. So `uniforms` and `normals` compute a whole block of
draws at once in wrapping uint64 arithmetic, in chunks of `_CHUNK` draws, and
each block is bit for bit what the scalar methods return one at a time; those
remain the definition. The float conversions are exact or correctly rounded
the same way in numpy as in Python: `z >> 11` is below 2**53, so it is a
float64 exactly, scaling by 2**-53 is exact, and `+ 0.5` is one IEEE
addition. Box-Muller's `log` and `cos` go through `math` entry by entry,
as `normal` calls them. numpy's own loops are picked by the CPU's SIMD
features at run time and may differ from libm in the last bit (`np.log`
changes 1,222 of the first 800,000 normals of seed 0 with numpy 2.4 on
x86-64), so with them the data would depend on the machine. `sqrt`, the
products and the scaling by -2 are correctly rounded, so numpy computes
them.
"""
from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Draws per block of `_next_u64s`: bounds the temporary arrays and lists.
_CHUNK = 1 << 16


class SplitMix64:
    """Splittable 64-bit generator with uniform and normal helpers."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """One double in [0, 1) built from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_open(self) -> float:
        """One double in (0, 1); safe to pass to log."""
        return ((self.next_u64() >> 11) + 0.5) * 2.0**-53

    def normal(self) -> float:
        """One standard normal draw (Box-Muller, cosine branch)."""
        u1 = self.uniform_open()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, so no modulo bias."""
        if n <= 0:
            raise ValueError("n must be positive")
        bound = _MASK + 1 - ((_MASK + 1) % n)
        while True:
            z = self.next_u64()
            if z < bound:
                return z % n

    def _next_u64s(self, k: int) -> np.ndarray:
        """The next k outputs of `next_u64`, as one uint64 array."""
        z = np.arange(1, k + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        if k:
            self._state = int(z[-1])
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def uniforms(self, *shape: int) -> np.ndarray:
        """`uniform` draws in this shape (no shape: a 1-element array)."""
        out = np.empty(int(np.prod(shape)) if shape else 1)
        for lo in range(0, out.size, _CHUNK):
            top = self._next_u64s(min(_CHUNK, out.size - lo)) >> np.uint64(11)
            out[lo:lo + top.size] = top.astype(np.float64) * 2.0**-53
        return out.reshape(shape) if shape else out

    def normals(self, *shape: int) -> np.ndarray:
        """`normal` draws in this shape (no shape: a 1-element array).

        Each entry takes two draws, as `normal` does: the even one gives u1
        through `uniform_open`, the odd one u2 through `uniform`.
        """
        out = np.empty(int(np.prod(shape)) if shape else 1)
        for lo in range(0, out.size, _CHUNK // 2):
            k = min(_CHUNK // 2, out.size - lo)
            top = (self._next_u64s(2 * k) >> np.uint64(11)).astype(np.float64)
            u1 = (top[0::2] + 0.5) * 2.0**-53
            u2 = top[1::2] * 2.0**-53
            log_u1 = np.fromiter(map(math.log, u1.tolist()), np.float64, k)
            cos_u2 = np.fromiter(
                map(math.cos, ((2.0 * math.pi) * u2).tolist()), np.float64, k)
            out[lo:lo + k] = np.sqrt(-2.0 * log_u1) * cos_u2
        return out.reshape(shape) if shape else out

    def spawn(self) -> "SplitMix64":
        """Independent child stream seeded from this one."""
        return SplitMix64(self.next_u64())
