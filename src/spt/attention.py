"""Masked multi-head self-attention and the surrounding encoder block.

The attention mask gates the softmax domain: probabilities are normalized
over unmasked positions only, and one mask is shared by every head (which
also keeps pruning statistics well-defined across heads).  Per-head logits
are scaled by sqrt(head_dim) so their variance is stable across head
counts.  Blocks are pre-norm: x + attn(norm(x)), then + mlp(norm(.)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .masks import AttentionMask
from .rng import SplitMix64
from .tensor import Tensor


def initial_array(fill: str, shape: tuple, rng: SplitMix64, std: float = 0.02) -> np.ndarray:
    """A parameter's starting value: N(0, std^2) draws from ``rng``, zeros or ones."""
    if fill == "normal":
        return rng.normal_array(shape, std)
    return np.zeros(shape) if fill == "zeros" else np.ones(shape)


@dataclass
class AttentionLayerParams:
    """Weights of one encoder block.

    ``qkv_projection`` packs the three projections column-wise as
    [query | key | value], each D wide with head blocks contiguous inside.
    The feed-forward is two affine layers around a GELU, hidden width
    mlp_ratio * D.  Projections carry no bias; the affine layers do.
    """

    qkv_projection: Tensor
    output_projection: Tensor
    norm1_gain: Tensor
    norm1_bias: Tensor
    norm2_gain: Tensor
    norm2_bias: Tensor
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor

    @staticmethod
    def layout(embed_dim: int, mlp_ratio: int) -> list:
        """(field, shape, fill) of every weight, in field order."""
        d, hidden = embed_dim, mlp_ratio * embed_dim
        return [
            ("qkv_projection", (d, 3 * d), "normal"),
            ("output_projection", (d, d), "normal"),
            ("norm1_gain", (d,), "ones"),
            ("norm1_bias", (d,), "zeros"),
            ("norm2_gain", (d,), "ones"),
            ("norm2_bias", (d,), "zeros"),
            ("mlp_w1", (d, hidden), "normal"),
            ("mlp_b1", (hidden,), "zeros"),
            ("mlp_w2", (hidden, d), "normal"),
            ("mlp_b2", (d,), "zeros"),
        ]

    @classmethod
    def init(cls, embed_dim: int, mlp_ratio: int, rng: SplitMix64,
             weight_std: float = 0.02) -> "AttentionLayerParams":
        return cls(**{
            name: Tensor(initial_array(fill, shape, rng, weight_std), requires_grad=True)
            for name, shape, fill in cls.layout(embed_dim, mlp_ratio)
        })

    def named(self, prefix: str):
        for f in fields(self):
            yield f"{prefix}.{f.name}", getattr(self, f.name)


@dataclass
class AttentionRecord:
    """Post-softmax attention of one layer, averaged over heads."""

    head_average: Tensor  # (N, N), detached


def project_qkv(x: Tensor, params: AttentionLayerParams, heads: int):
    """Project tokens to per-head query/key/value stacks (heads, N, head_dim)."""
    n, d = x.shape
    if d * 3 != params.qkv_projection.shape[1] or d != params.qkv_projection.shape[0]:
        raise ConfigError(
            f"qkv projection {params.qkv_projection.shape} does not match embed dim {d}"
        )
    if d % heads:
        raise ConfigError(f"heads={heads} must evenly partition embed dim {d}")
    head_dim = d // heads
    packed = T.matmul(x, params.qkv_projection)            # (N, 3D)
    packed = T.reshape(packed, (n, 3, heads, head_dim))
    packed = T.transpose(packed, (1, 2, 0, 3))             # (3, heads, N, head_dim)
    q = T.reshape(T.narrow(packed, 0, 0, 1), (heads, n, head_dim))
    k = T.reshape(T.narrow(packed, 0, 1, 1), (heads, n, head_dim))
    v = T.reshape(T.narrow(packed, 0, 2, 1), (heads, n, head_dim))
    return q, k, v


def masked_self_attention(x: Tensor, mask: AttentionMask, params: AttentionLayerParams,
                          heads: int, need_record: bool = False):
    """Multi-head self-attention with the softmax restricted to the mask.

    An r x n mask over n tokens makes the first r tokens the queries: every
    token still supplies keys and values, and the output has r rows.
    Returns (output, AttentionRecord or None).  The record holds a detached
    probability map so retaining it never grows the tape.
    """
    n, d = x.shape
    r = mask.rows
    if mask.cols != n or r > n:
        raise ConfigError(f"mask shape {mask.bits.shape} does not match {n} tokens")
    head_dim = d // heads
    q, k, v = project_qkv(x, params, heads)
    if r < n:
        q = T.narrow(q, 1, 0, r)
    # Scaling q (heads, r, head_dim) rather than the (heads, r, N) logits
    # saves a full r x N pass forward and backward.
    q = T.scale(q, 1.0 / math.sqrt(head_dim))
    logits = T.matmul(q, T.transpose(k, (0, 2, 1)))
    probs = T.rowwise_masked_softmax(logits, mask)         # (heads, r, N)
    context = T.matmul(probs, v)                           # (heads, r, head_dim)
    merged = T.reshape(T.transpose(context, (1, 0, 2)), (r, d))
    out = T.matmul(merged, params.output_projection)
    record = AttentionRecord(Tensor(probs.data.mean(axis=0))) if need_record else None
    return out, record


def encoder_block(x: Tensor, mask: AttentionMask, params: AttentionLayerParams,
                  heads: int, need_record: bool = False):
    """Pre-norm transformer block.

    Under an r x n mask only the first r tokens are updated and returned
    (see ``masked_self_attention``); a square mask keeps the input's shape.
    """
    attended, record = masked_self_attention(
        T.layer_norm(x, params.norm1_gain, params.norm1_bias), mask, params, heads,
        need_record=need_record,
    )
    if mask.rows < x.shape[0]:
        x = T.narrow(x, 0, 0, mask.rows)
    h = T.add(x, attended)
    z = T.layer_norm(h, params.norm2_gain, params.norm2_bias)
    z = T.add_bias(T.matmul(z, params.mlp_w1), params.mlp_b1)
    z = T.gelu(z)
    z = T.add_bias(T.matmul(z, params.mlp_w2), params.mlp_b2)
    return T.add(h, z), record
