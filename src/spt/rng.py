"""Deterministic random numbers with a fixed, documented algorithm.

Everything random in this package (synthetic scenes, parameter init) draws
from SplitMix64 so that integer-seeded runs reproduce bit-identically on
any platform, independent of numpy version or OS math libraries for the
raw stream.  The generator is the standard SplitMix64 mixer:

    state <- state + 0x9E3779B97F4A7C15            (mod 2^64)
    z <- state
    z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9    (mod 2^64)
    z <- (z xor (z >> 27)) * 0x94D049BB133111EB    (mod 2^64)
    output z xor (z >> 31)

Uniform doubles take the top 53 bits of one output word.  Normal draws use
Box-Muller on two uniforms, so they are deterministic per seed but, unlike
the raw stream, inherit the platform's log/cos/sin rounding.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 2.0 ** -53


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a single 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Counter-based SplitMix64 stream over a 64-bit state.

    One state increment per output word; a draw of ``n`` words consumes
    exactly ``n`` increments, so consecutive draws continue one stream.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def _raw_block(self, n: int) -> np.ndarray:
        # Vectorized counter advance; wraparound on uint64 is intended.
        base = np.uint64(self._state)
        steps = (np.arange(1, n + 1, dtype=np.uint64)) * np.uint64(_GAMMA)
        with np.errstate(over="ignore"):
            z = base + steps
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            z = z ^ (z >> np.uint64(31))
        self._state = (self._state + n * _GAMMA) & _MASK64
        return z

    def uniform_array(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        u = (self._raw_block(n) >> np.uint64(11)).astype(np.float64) * _INV53
        return (lo + (hi - lo) * u).reshape(shape)

    def normal_array(self, shape, sigma: float = 1.0) -> np.ndarray:
        """Box-Muller normals: N(0, sigma^2), deterministic per seed."""
        n = int(np.prod(shape)) if shape else 1
        pairs = (n + 1) // 2
        raw = self._raw_block(2 * pairs)
        # u1 in (0, 1] so log never sees zero.
        u1 = ((raw[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV53
        u2 = (raw[pairs:] >> np.uint64(11)).astype(np.float64) * _INV53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return (sigma * out).reshape(shape)


def sample_stream(seed: int, index: int) -> SplitMix64:
    """Per-(seed, index) stream used by the synthetic scene generator."""
    return SplitMix64(mix64(int(seed)) ^ mix64(int(index) + 0x632BE59BD9B4E019))
