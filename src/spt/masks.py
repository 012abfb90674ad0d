"""Binary attention masks with per-row support bookkeeping."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMaskRowError, ShapeError


class AttentionMask:
    """An r x c 0/1 matrix gating attention connections.

    Invariants enforced at construction: entries are exactly 0 or 1 and
    every row keeps at least one connection (attention rows must have a
    nonempty softmax support).
    """

    __slots__ = ("bits", "row_support")

    def __init__(self, bits):
        arr = np.ascontiguousarray(bits, dtype=np.uint8)
        if arr.ndim != 2:
            raise ShapeError(f"mask must be 2-D, got shape {arr.shape}")
        if arr.size and arr.max() > 1:
            raise ValueError("mask entries must be 0 or 1")
        support = arr.sum(axis=1, dtype=np.int64)
        dead = np.flatnonzero(support == 0)
        if dead.size:
            raise DegenerateMaskRowError(
                f"mask rows {dead.tolist()} have no admissible positions"
            )
        self.bits = arr
        self.row_support = support

    @classmethod
    def _trusted(cls, bits: np.ndarray) -> "AttentionMask":
        # Fast path for masks built by code that guarantees the invariants.
        obj = cls.__new__(cls)
        obj.bits = bits
        obj.row_support = bits.sum(axis=1, dtype=np.int64)
        return obj

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
        return AttentionMask(self.bits.copy())

    def density(self) -> float:
        return float(self.bits.sum()) / self.bits.size

    def same_bits(self, other: "AttentionMask") -> bool:
        return np.array_equal(self.bits, other.bits)

    def __repr__(self):
        return f"AttentionMask({self.rows}x{self.cols}, density={self.density():.3f})"
