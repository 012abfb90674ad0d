"""Masked multi-head self-attention and the surrounding encoder block.

The attention mask gates the softmax domain: probabilities are normalized
over unmasked positions only, and one mask is shared by every head (which
also keeps pruning statistics well-defined across heads).  The softmax
exponentiates a row's logits unshifted and gates them; only a row with a
logit above 512 or a vanishing sum is redone shifted by its live max
(``tensor.rowwise_masked_softmax``), so a pruned mask costs one gating
pass more than the all-ones one.  Per-head logits are scaled by
sqrt(head_dim) so their variance is stable across head counts.  Blocks
are pre-norm: x + attn(norm(x)), then + mlp(norm(.)).

Attention runs as three taped ops: the packed QKV product, the per-head
kernel ``tensor.multi_head_attention`` (logits, masked softmax and
context, one head's tile at a time) and the output projection.  The
feed-forward is one taped op, ``tensor.mlp``.  A block is therefore two
layer norms, the three attention ops, ``mlp`` and two residual adds.
``project_qkv`` splits the packed product into per-head stacks, as the
composed reference chain that the kernel is tested against does; it checks
no shapes of its own.  Parameter initialization lives in ``model``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from . import tensor as T
from .masks import AttentionMask
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

    def named(self, prefix: str):
        for f in fields(self):
            yield f"{prefix}.{f.name}", getattr(self, f.name)


def project_qkv(x: Tensor, params: AttentionLayerParams, heads: int):
    """Project tokens to per-head query/key/value stacks (heads, N, head_dim)."""
    n = x.shape[0]
    head_dim = x.shape[1] // heads
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
    Returns (output, head_average).  With ``need_record`` set, head_average
    is the (r, n) float64 array of post-softmax probabilities averaged over
    heads, outside the tape; otherwise it is None.  The per-head
    probabilities are freed on return either way: the tape does not keep
    them.

    Runs as the packed QKV product, the per-head kernel
    ``tensor.multi_head_attention`` and the output projection; the kernel
    gives the same bits as the composed chain of ``project_qkv``,
    ``scale``, ``matmul``, ``rowwise_masked_softmax`` and ``matmul``.
    A projection or head count that does not fit the width of ``x``, or a
    mask that does not fit its tokens, raises ``ShapeError`` from
    ``matmul`` or the kernel.
    """
    packed = T.matmul(x, params.qkv_projection)            # (N, 3D)
    merged, probs = T.multi_head_attention(packed, mask, heads)
    out = T.matmul(merged, params.output_projection)
    return out, probs.mean(axis=0) if need_record else None


def encoder_block(x: Tensor, mask: AttentionMask, params: AttentionLayerParams,
                  heads: int, need_record: bool = False):
    """Pre-norm transformer block.

    Under an r x n mask only the first r tokens are updated and returned
    (see ``masked_self_attention``); a square mask keeps the input's shape.
    Returns (output, head_average), head_average as ``masked_self_attention``
    gives it.
    """
    attended, head_average = masked_self_attention(
        T.layer_norm(x, params.norm1_gain, params.norm1_bias), mask, params, heads,
        need_record=need_record,
    )
    if mask.rows < x.shape[0]:
        x = T.narrow(x, 0, 0, mask.rows)
    h = T.add(x, attended)
    z = T.mlp(T.layer_norm(h, params.norm2_gain, params.norm2_bias),
              params.mlp_w1, params.mlp_b1, params.mlp_w2, params.mlp_b2)
    return T.add(h, z), head_average
