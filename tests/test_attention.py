"""Masked multi-head attention and the encoder block."""

import math

import numpy as np
import pytest

import spt.tensor as T
from spt.attention import (AttentionLayerParams, encoder_block,
                           masked_self_attention, project_qkv)
from spt.masks import AttentionMask
from spt.rng import SplitMix64
from spt.tensor import Tensor

from dense_reference import ref_attention, ref_softmax
from gradcheck import finite_difference_check


def make_params(d, mlp_ratio=2, seed=0):
    return AttentionLayerParams.init(d, mlp_ratio, SplitMix64(seed))


class TestProjectQkv:
    def test_zero_input_gives_zero_qkv(self):
        params = make_params(8)
        q, k, v = project_qkv(Tensor(np.zeros((5, 8))), params, heads=2)
        for part in (q, k, v):
            assert part.shape == (2, 5, 4)
            assert np.array_equal(part.data, np.zeros((2, 5, 4)))

    def test_identity_block_layout_recovers_columns(self):
        # U = [I | 0 | I] with D=2, one head: q == x, k == 0, v == x
        d = 2
        params = make_params(d)
        u = np.zeros((d, 3 * d))
        u[:, 0:d] = np.eye(d)
        u[:, 2 * d : 3 * d] = np.eye(d)
        params.qkv_projection = Tensor(u, requires_grad=True)
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        q, k, v = project_qkv(Tensor(x), params, heads=1)
        assert np.array_equal(q.data[0], x)
        assert np.array_equal(k.data[0], np.zeros_like(x))
        assert np.array_equal(v.data[0], x)

    def test_reference_scale_shapes(self):
        # width 192, 8 heads: per-head stacks are (8, N, 24)
        params = make_params(192)
        q, k, v = project_qkv(Tensor(np.zeros((10, 192))), params, heads=8)
        assert q.shape == k.shape == v.shape == (8, 10, 24)


class TestMaskedSelfAttention:
    def test_all_ones_mask_matches_dense_reference(self):
        rng = np.random.default_rng(0)
        d, n, heads = 12, 7, 3
        params = make_params(d, seed=1)
        x = rng.normal(size=(n, d))
        out, _ = masked_self_attention(Tensor(x), AttentionMask.ones(n), params, heads)
        expected = ref_attention(x, params.qkv_projection.data,
                                 params.output_projection.data, heads)
        assert np.abs(out.data - expected).max() <= 1e-12

    def test_identity_mask_forces_self_probability_one(self):
        rng = np.random.default_rng(2)
        n, d = 5, 8
        params = make_params(d, seed=3)
        x = rng.normal(size=(n, d))
        _, record = masked_self_attention(
            Tensor(x), AttentionMask.identity(n), params, heads=2, need_record=True
        )
        assert np.array_equal(record.head_average.data, np.eye(n))

    def test_three_token_hand_oracle(self):
        # one head, hand-fixed Q, K, V; row 0 masked to tokens {0, 1}:
        # its output must be the two-term softmax blend of v0 and v1
        d = 2
        q = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        k = np.array([[0.5, -0.5], [1.0, 0.25], [-1.0, 2.0]])
        v = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        bits = np.array([[1, 1, 0], [1, 1, 1], [1, 1, 1]], dtype=np.uint8)
        row = (q @ k.T)[0] / math.sqrt(d)
        w0, w1 = math.exp(row[0]), math.exp(row[1])
        expected_row0 = (w0 * v[0] + w1 * v[1]) / (w0 + w1)
        probs = T.rowwise_masked_softmax(
            T.scale(T.matmul(Tensor(q), T.transpose(Tensor(k), (1, 0))),
                    1.0 / math.sqrt(d)),
            AttentionMask(bits),
        )
        out = T.matmul(probs, Tensor(v))
        np.testing.assert_allclose(out.data[0], expected_row0, atol=1e-12)

    def test_mask_nullity_is_bitwise(self):
        # mask[i][j] = 0: perturbing v_j leaves context row i bit-identical
        rng = np.random.default_rng(4)
        n, d, heads = 6, 8, 2
        params = make_params(d, seed=5)
        bits = np.ones((n, n), dtype=np.uint8)
        i, j = 1, 4
        bits[i, j] = 0
        x = rng.normal(size=(n, d))
        q, k, v = project_qkv(Tensor(x), params, heads)
        probs = T.rowwise_masked_softmax(
            T.scale(T.matmul(q, T.transpose(k, (0, 2, 1))), 1.0 / math.sqrt(d // heads)),
            AttentionMask(bits),
        )
        v_perturbed = v.data.copy()
        v_perturbed[:, j, :] += 123.0
        ctx_a = probs.data @ v.data
        ctx_b = probs.data @ v_perturbed
        assert np.array_equal(ctx_a[:, i, :], ctx_b[:, i, :])
        assert not np.array_equal(ctx_a, ctx_b)

    def test_permutation_equivariance_under_all_ones_mask(self):
        rng = np.random.default_rng(6)
        n, d, heads = 5, 8, 2
        params = make_params(d, seed=7)
        x = rng.normal(size=(n, d))
        perm = rng.permutation(n)
        out, _ = masked_self_attention(Tensor(x), AttentionMask.ones(n), params, heads)
        out_p, _ = masked_self_attention(Tensor(x[perm]), AttentionMask.ones(n),
                                         params, heads)
        assert np.abs(out.data[perm] - out_p.data).max() <= 1e-12

    def test_record_rows_sum_to_one_and_average(self):
        rng = np.random.default_rng(8)
        n, d, heads = 6, 12, 3
        params = make_params(d, seed=9)
        bits = rng.integers(0, 2, size=(n, n)).astype(np.uint8)
        bits[:, 0] = 1
        x = rng.normal(size=(n, d))
        _, record = masked_self_attention(Tensor(x), AttentionMask(bits), params, heads,
                                          need_record=True)
        np.testing.assert_allclose(record.head_average.data.sum(axis=1), 1.0, atol=1e-9)
        packed = (x @ params.qkv_projection.data).reshape(n, 3, heads, d // heads)
        q, k = packed[:, 0].transpose(1, 0, 2), packed[:, 1].transpose(1, 0, 2)
        logits = q @ k.transpose(0, 2, 1) / math.sqrt(d // heads)
        probs = ref_softmax(np.where(bits == 1, logits, -np.inf))
        np.testing.assert_allclose(record.head_average.data, probs.mean(axis=0), atol=1e-12)


class TestEncoderBlock:
    def test_zero_parameters_reduce_to_identity(self):
        d = 6
        params = make_params(d)
        for name in ("qkv_projection", "output_projection", "mlp_w1", "mlp_b1",
                     "mlp_w2", "mlp_b2"):
            tensor = getattr(params, name)
            setattr(params, name, Tensor(np.zeros(tensor.shape), requires_grad=True))
        x = np.random.default_rng(10).normal(size=(4, d))
        out, _ = encoder_block(Tensor(x), AttentionMask.ones(4), params, heads=2)
        assert np.array_equal(out.data, x)

    def test_shape_preservation(self):
        rng = np.random.default_rng(11)
        params = make_params(10, seed=12)
        x = rng.normal(size=(7, 10))
        out, _ = encoder_block(Tensor(x), AttentionMask.ones(7), params, heads=2)
        assert out.shape == x.shape

    def test_gradient_wrt_input_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        n, d = 4, 8
        params = make_params(d, seed=14)
        x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        bits = rng.integers(0, 2, size=(n, n)).astype(np.uint8)
        np.fill_diagonal(bits, 1)
        mask = AttentionMask(bits)
        weights = Tensor(rng.normal(size=(n, d)))

        def build():
            out, _ = encoder_block(x, mask, params, heads=2)
            return T.sum_all(T.mul(out, weights))

        finite_difference_check(build, [x])

    def test_gradient_wrt_parameters(self):
        rng = np.random.default_rng(15)
        n, d = 3, 4
        params = make_params(d, seed=16)
        x = Tensor(rng.normal(size=(n, d)))
        weights = Tensor(rng.normal(size=(n, d)))
        targets = [params.qkv_projection, params.output_projection,
                   params.norm1_gain, params.mlp_w1, params.mlp_b2]

        def build():
            out, _ = encoder_block(x, AttentionMask.ones(n), params, heads=2)
            return T.sum_all(T.mul(out, weights))

        finite_difference_check(build, targets)
