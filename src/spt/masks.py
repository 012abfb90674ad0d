"""Binary attention masks with per-row support bookkeeping."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DegenerateMaskRowError, ShapeError

_NEG_INF_BITS = np.float64(-np.inf).view(np.uint64)


class AttentionMask:
    """An r x c 0/1 matrix gating attention connections.

    Invariants enforced at construction: entries are exactly 0 or 1 and
    every row keeps at least one connection (attention rows must have a
    nonempty softmax support).

    ``bits`` is a read-only array the mask owns (input the caller could
    still write through is copied), so what is derived from it stays
    valid: ``row_support``, ``all_ones``, and the float ``gate`` and
    ``-inf`` ``bias`` that the masked softmax builds once per mask on
    first use.
    """

    __slots__ = ("bits", "row_support", "all_ones", "_gate_bias")

    def __init__(self, bits):
        given = np.asarray(bits)
        if given.ndim != 2:
            raise ShapeError(f"mask must be 2-D, got shape {given.shape}")
        if not ((given == 0) | (given == 1)).all():
            raise ConfigError("mask entries must be 0 or 1")
        arr = np.ascontiguousarray(given, dtype=np.uint8)
        if np.may_share_memory(arr, given):
            arr = arr.copy()
        support = arr.sum(axis=1, dtype=np.int64)
        dead = np.flatnonzero(support == 0)
        if dead.size:
            raise DegenerateMaskRowError(
                f"mask rows {dead.tolist()} have no admissible positions"
            )
        self._set(arr, support)

    @classmethod
    def _trusted(cls, bits: np.ndarray) -> "AttentionMask":
        # Fast path for masks built by code that guarantees the invariants
        # and hands over an array nothing else writes.
        obj = cls.__new__(cls)
        obj._set(bits, bits.sum(axis=1, dtype=np.int64))
        return obj

    def _set(self, bits: np.ndarray, support: np.ndarray) -> None:
        bits.flags.writeable = False
        self.bits = bits
        self.row_support = support
        self.all_ones = bool((support == bits.shape[1]).all())
        self._gate_bias = None

    def gate_bias(self):
        """(gate, bias) float64 arrays: 1/0 and 0/-inf at kept/dropped cells."""
        if self._gate_bias is None:
            # bits - 1 is 0 or all ones, so the mask leaves 0.0 or the bit
            # pattern of -inf; np.where is several times slower on mixed bits.
            pattern = (self.bits.astype(np.uint64) - np.uint64(1)) & _NEG_INF_BITS
            self._gate_bias = (self.bits.astype(np.float64), pattern.view(np.float64))
        return self._gate_bias

    @property
    def rows(self) -> int:
        return self.bits.shape[0]

    @property
    def cols(self) -> int:
        return self.bits.shape[1]

    @classmethod
    def ones(cls, rows: int, cols: int | None = None) -> "AttentionMask":
        cols = rows if cols is None else cols
        return cls(np.ones((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, n: int) -> "AttentionMask":
        return cls(np.eye(n, dtype=np.uint8))

    def copy(self) -> "AttentionMask":
        return AttentionMask(self.bits)

    def density(self) -> float:
        return float(self.bits.sum()) / self.bits.size

    def same_bits(self, other: "AttentionMask") -> bool:
        return np.array_equal(self.bits, other.bits)

    def __repr__(self):
        return f"AttentionMask({self.rows}x{self.cols}, density={self.density():.3f})"
