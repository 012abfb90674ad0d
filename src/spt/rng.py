"""Deterministic random numbers with a fixed, documented algorithm.

Everything random in this package (synthetic scenes, parameter init) draws
from SplitMix64, so an integer seed fixes every draw.  The raw stream and
its uniforms are integer and exactly rounded arithmetic: the same bits on
any platform, numpy version or math library.  Of what the package computes
from them, config digests, ``decode_heatmaps`` and ``pckh`` are
platform-stable too; what goes through a transcendental function is not
(normal draws, below; synthetic scenes and targets, see ``spt.data``;
parameter init, the forward and training).  The generator is the standard
SplitMix64 mixer:

    state <- state + 0x9E3779B97F4A7C15            (mod 2^64)
    z <- state
    z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9    (mod 2^64)
    z <- (z xor (z >> 27)) * 0x94D049BB133111EB    (mod 2^64)
    output z xor (z >> 31)

Uniform doubles take the top 53 bits of one output word.  Normal draws use
Box-Muller on two uniforms, so they are deterministic per seed but, unlike
the raw stream, inherit the platform's log/cos/sin rounding.

Word k past a state depends only on ``state + k * GAMMA``, so
``normal_array`` draws its stream in chunks of ``CHUNK_PAIRS`` pairs: it
needs one chunk's scratch (a few hundred KiB) beyond the array it returns,
at any size, and gives the same bits as a draw of the whole stream at once.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 2.0 ** -53
CHUNK_PAIRS = 8192  # Box-Muller pairs per chunk of ``normal_array``


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a single 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _words(state: int, start: int, n: int) -> np.ndarray:
    """Words ``start + 1 .. start + n`` of the stream past ``state``.

    Vectorized counter advance; wraparound on uint64 is intended.
    """
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z *= np.uint64(_GAMMA)
        z += np.uint64(state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
    return z


class SplitMix64:
    """Counter-based SplitMix64 stream over a 64-bit state.

    One state increment per output word; a draw of ``n`` words consumes
    exactly ``n`` increments, so consecutive draws continue one stream.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def _advance(self, n: int) -> None:
        self._state = (self._state + n * _GAMMA) & _MASK64

    def _raw_block(self, n: int) -> np.ndarray:
        z = _words(self._state, 0, n)
        self._advance(n)
        return z

    def uniform_array(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        u = (self._raw_block(n) >> np.uint64(11)).astype(np.float64) * _INV53
        return (lo + (hi - lo) * u).reshape(shape)

    def normal_array(self, shape, sigma: float = 1.0) -> np.ndarray:
        """Box-Muller normals: N(0, sigma^2), deterministic per seed.

        For ``pairs = ceil(n / 2)``, words ``1 .. pairs`` give the radii
        and words ``pairs + 1 .. 2 * pairs`` the angles; the cosines fill
        the first ``pairs`` values and the sines the rest, the last sine
        dropped for odd ``n``.  The draw consumes ``2 * pairs`` words.

        The output is allocated once and filled ``CHUNK_PAIRS`` pairs at a
        time, so the scratch beyond it is a few arrays of one chunk's
        length at any size.  Each value is the same product, in the same
        order, as ``sigma * (r * cos(theta))`` over the whole stream at
        once, so the bits do not depend on the chunking.
        """
        n = int(np.prod(shape)) if shape else 1
        pairs = (n + 1) // 2
        out = np.empty(n)
        for lo in range(0, pairs, CHUNK_PAIRS):
            m = min(CHUNK_PAIRS, pairs - lo)
            # u1 in (0, 1] so log never sees zero; r = sqrt(-2 log u1).
            r = (_words(self._state, lo, m) >> np.uint64(11)).astype(np.float64)
            r += 1.0
            r *= _INV53
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            theta = (_words(self._state, pairs + lo, m) >> np.uint64(11)).astype(np.float64)
            theta *= _INV53
            theta *= 2.0 * np.pi
            cos_part = out[lo:lo + m]
            sin_part = out[pairs + lo:pairs + lo + m]
            k = len(sin_part)
            np.cos(theta, out=cos_part)
            cos_part *= r
            cos_part *= sigma
            np.sin(theta[:k], out=sin_part)
            sin_part *= r[:k]
            sin_part *= sigma
        self._advance(2 * pairs)
        return out.reshape(shape)


def sample_stream(seed: int, index: int) -> SplitMix64:
    """Per-(seed, index) stream used by the synthetic scene generator."""
    return SplitMix64(mix64(int(seed)) ^ mix64(int(index) + 0x632BE59BD9B4E019))
