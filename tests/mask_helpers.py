"""Mask constructors and comparisons that only tests need."""

import numpy as np

from spt.masks import AttentionMask


def identity_mask(n: int) -> AttentionMask:
    """The n x n mask in which every token attends to itself alone."""
    return AttentionMask(np.eye(n, dtype=np.uint8))


def same_bits(a: AttentionMask, b: AttentionMask) -> bool:
    return np.array_equal(a.bits, b.bits)
