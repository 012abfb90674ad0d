"""Masked multi-head self-attention and the surrounding encoder block.

The attention mask gates the softmax domain: probabilities are normalized
over unmasked positions only, and one mask is shared by every head (which
also keeps pruning statistics well-defined across heads).  Per-head logits
are scaled by sqrt(head_dim) so their variance is stable across head
counts.  Blocks are pre-norm: x + attn(norm(x)), then + mlp(norm(.)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .masks import AttentionMask
from .rng import SplitMix64
from .tensor import Tensor


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

    @classmethod
    def init(cls, embed_dim: int, mlp_ratio: int, rng: SplitMix64,
             weight_std: float = 0.02) -> "AttentionLayerParams":
        hidden = mlp_ratio * embed_dim

        def w(shape):
            return Tensor(rng.normal_array(shape, weight_std), requires_grad=True)

        def zeros(shape):
            return Tensor(np.zeros(shape), requires_grad=True)

        def ones(shape):
            return Tensor(np.ones(shape), requires_grad=True)

        return cls(
            qkv_projection=w((embed_dim, 3 * embed_dim)),
            output_projection=w((embed_dim, embed_dim)),
            norm1_gain=ones((embed_dim,)),
            norm1_bias=zeros((embed_dim,)),
            norm2_gain=ones((embed_dim,)),
            norm2_bias=zeros((embed_dim,)),
            mlp_w1=w((embed_dim, hidden)),
            mlp_b1=zeros((hidden,)),
            mlp_w2=w((hidden, embed_dim)),
            mlp_b2=zeros((embed_dim,)),
        )

    def named(self, prefix: str):
        for field in ("qkv_projection", "output_projection", "norm1_gain", "norm1_bias",
                      "norm2_gain", "norm2_bias", "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"):
            yield f"{prefix}.{field}", getattr(self, field)


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

    Returns (output, AttentionRecord or None).  The record holds a detached
    probability map so retaining it never grows the tape.
    """
    n, d = x.shape
    if mask.bits.shape != (n, n):
        raise ConfigError(f"mask shape {mask.bits.shape} does not match {n} tokens")
    head_dim = d // heads
    q, k, v = project_qkv(x, params, heads)
    # Scaling q (heads, N, head_dim) rather than the (heads, N, N) logits
    # saves a full N x N pass forward and backward.
    q = T.scale(q, 1.0 / math.sqrt(head_dim))
    logits = T.matmul(q, T.transpose(k, (0, 2, 1)))
    probs = T.rowwise_masked_softmax(logits, mask)         # (heads, N, N)
    context = T.matmul(probs, v)                           # (heads, N, head_dim)
    merged = T.reshape(T.transpose(context, (1, 0, 2)), (n, d))
    out = T.matmul(merged, params.output_projection)
    record = AttentionRecord(Tensor(probs.data.mean(axis=0))) if need_record else None
    return out, record


def encoder_block(x: Tensor, mask: AttentionMask, params: AttentionLayerParams,
                  heads: int, need_record: bool = False):
    """Pre-norm transformer block; output shape equals input shape."""
    attended, record = masked_self_attention(
        T.layer_norm(x, params.norm1_gain, params.norm1_bias), mask, params, heads,
        need_record=need_record,
    )
    h = T.add(x, attended)
    z = T.layer_norm(h, params.norm2_gain, params.norm2_bias)
    z = T.add_bias(T.matmul(z, params.mlp_w1), params.mlp_b1)
    z = T.gelu(z)
    z = T.add_bias(T.matmul(z, params.mlp_w2), params.mlp_b2)
    return T.add(h, z), record
