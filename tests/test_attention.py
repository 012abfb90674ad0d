"""Masked multi-head attention and the encoder block."""

import math
import weakref

import numpy as np
import pytest

import spt.tensor as T
from spt.attention import (AttentionLayerParams, encoder_block, masked_self_attention,
                           project_qkv)
from spt.errors import ShapeError
from spt.masks import AttentionMask
from spt.model import initial_array
from spt.rng import SplitMix64
from spt.tensor import Tensor

from dense_reference import ref_attention, ref_softmax
from gradcheck import finite_difference_check
from mask_helpers import identity_mask


def make_params(d, mlp_ratio=2, seed=0):
    """One block's weights, drawn from one SplitMix64(seed) stream in layout order."""
    rng = SplitMix64(seed)
    return AttentionLayerParams(**{
        name: Tensor(initial_array(fill, shape, rng), requires_grad=True)
        for name, shape, fill in AttentionLayerParams.layout(d, mlp_ratio)
    })


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
        _, head_average = masked_self_attention(
            Tensor(x), identity_mask(n), params, heads=2, need_record=True
        )
        assert np.array_equal(head_average, np.eye(n))

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
        _, head_average = masked_self_attention(Tensor(x), AttentionMask(bits), params, heads,
                                                need_record=True)
        np.testing.assert_allclose(head_average.sum(axis=1), 1.0, atol=1e-9)
        packed = (x @ params.qkv_projection.data).reshape(n, 3, heads, d // heads)
        q, k = packed[:, 0].transpose(1, 0, 2), packed[:, 1].transpose(1, 0, 2)
        logits = q @ k.transpose(0, 2, 1) / math.sqrt(d // heads)
        probs = ref_softmax(np.where(bits == 1, logits, -np.inf))
        np.testing.assert_allclose(head_average, probs.mean(axis=0), atol=1e-12)


def composed_heads(q, k, v, mask):
    """The op chain the attention kernel replaces, kept as its bit-level
    reference, on per-head (heads, n, head_dim) stacks: scale, matmul,
    rowwise_masked_softmax, matmul, merge of the heads.  Returns the merged
    (r, D) context and the probabilities."""
    heads, n, head_dim = q.shape
    r = mask.rows
    if r < n:
        q = T.narrow(q, 1, 0, r)
    q = T.scale(q, 1.0 / math.sqrt(head_dim))
    probs = T.rowwise_masked_softmax(T.matmul(q, T.transpose(k, (0, 2, 1))), mask)
    context = T.matmul(probs, v)
    return T.reshape(T.transpose(context, (1, 0, 2)), (r, heads * head_dim)), probs


def composed_attention(x, mask, params, heads):
    """project_qkv, the composed heads and the output projection.  Returns
    (output, head average)."""
    merged, probs = composed_heads(*project_qkv(x, params, heads), mask)
    return T.matmul(merged, params.output_projection), probs.data.mean(axis=0)


def composed_kernel(packed, mask, heads):
    """The composed heads from the packed (n, 3D) projections, split as
    project_qkv splits them."""
    n, d = packed.shape[0], packed.shape[1] // 3
    head_dim = d // heads
    split = T.transpose(T.reshape(packed, (n, 3, heads, head_dim)), (1, 2, 0, 3))
    q, k, v = (T.reshape(T.narrow(split, 0, i, 1), (heads, n, head_dim)) for i in range(3))
    return composed_heads(q, k, v, mask)[0]


def kernel_attention(x, mask, params, heads):
    return masked_self_attention(x, mask, params, heads, need_record=True)


def kernel_mask(kind, r, n, rng):
    if kind == "ones":
        return AttentionMask.ones(r, n)
    if kind == "identity":
        return AttentionMask(np.eye(n, dtype=np.uint8)[:r])
    bits = rng.integers(0, 2, size=(n, n)).astype(np.uint8)
    np.fill_diagonal(bits, 1)
    return AttentionMask(bits[:r])


def redo_inputs(all_ones):
    """(packed, bits, heads, head_dim) whose head 0 has rows the masked
    softmax must redo shifted.  Queries 1 and 3 give keys 0 and 4 logits of
    about 650 and 651, above _EXP_SAFE (both keys are masked for query 3
    unless the mask is all ones), and query 2 gives every key a logit near
    -500, so its unshifted sum vanishes."""
    rng = np.random.default_rng(45)
    heads, head_dim, n = 2, 4, 6
    d = heads * head_dim
    packed = rng.normal(scale=0.5, size=(n, 3 * d))
    packed[:, d] = 0.0
    packed[[0, 4], d] = (1.0, 1.0015)
    packed[:, d + 1] = 1.0 + rng.normal(scale=0.005, size=n)
    packed[[1, 3], 0] = 1300.0
    packed[2, 1] = -1000.0
    bits = np.ones((n, n), dtype=np.uint8)
    if not all_ones:
        bits[rng.random((n, n)) < 0.3] = 0
        bits[:, 1] = 1
        bits[1, [0, 4]], bits[3, [0, 4]] = 1, 0
    return packed, bits, heads, head_dim


class _RecordingNumpy:
    """Stands in for numpy inside spt.tensor and logs each np.matmul's
    operand layouts: "N" when the last axis is contiguous, else "T"."""

    def __init__(self):
        self.products = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        layout = tuple("N" if m.strides[-1] == m.itemsize else "T" for m in (a, b))
        self.products.append(layout + (a.shape, b.shape))
        return np.matmul(a, b, **kwargs)


class TestAttentionKernel:
    @pytest.mark.parametrize("heads", [1, 2, 8])
    @pytest.mark.parametrize("rows", ["square", "leading"])
    @pytest.mark.parametrize("kind", ["ones", "random", "identity"])
    def test_bit_equal_to_the_composed_chain(self, heads, rows, kind):
        rng = np.random.default_rng(40 + heads)
        n, d = 9, 16
        r = n if rows == "square" else 4
        mask = kernel_mask(kind, r, n, rng)
        x_data = rng.normal(size=(n, d))
        weights = Tensor(rng.normal(size=(r, d)))
        runs = []
        for attention in (kernel_attention, composed_attention):
            params = make_params(d, seed=41)
            x = Tensor(x_data, requires_grad=True)
            with T.ComputationTape() as tape:
                out, record = attention(x, mask, params, heads)
                loss = T.sum_all(T.mul(out, weights))
            T.backward(loss, tape)
            runs.append([a.tobytes() for a in (out.data, record, x.grad,
                                                params.qkv_projection.grad,
                                                params.output_projection.grad)])
        assert runs[0] == runs[1]

    def test_masked_cells_stay_zero_under_huge_masked_logits(self):
        # Keys 4 and 5 are masked in every row and give logits of about
        # +-7e299 (the sign alternates by row); live logits are O(1).
        rng = np.random.default_rng(42)
        heads, head_dim, n, r = 2, 2, 6, 4
        d = heads * head_dim
        packed = rng.normal(size=(n, 3 * d))
        sign = np.where(np.arange(n) % 2, -1.0, 1.0)
        packed[:, 0:d:head_dim] = sign[:, None]
        packed[4:, d:2 * d:head_dim] = 1e300
        bits = np.ones((r, n), dtype=np.uint8)
        bits[:, 4:] = 0
        bits[1, 2] = 0
        packed_t = Tensor(packed, requires_grad=True)
        with T.ComputationTape() as tape:
            context, probs = T.multi_head_attention(packed_t, AttentionMask(bits), heads)
            loss = T.sum_all(context)
        T.backward(loss, tape)
        assert (probs[:, bits == 0] == 0.0).all()
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
        q = packed[:r, :d].reshape(r, heads, head_dim).transpose(1, 0, 2)
        k = packed[:, d:2 * d].reshape(n, heads, head_dim).transpose(1, 0, 2)
        logits = q @ k.transpose(0, 2, 1) / math.sqrt(head_dim)
        assert np.abs(logits[:, :, 4:]).min() > 1e299
        expected = ref_softmax(np.where(bits == 1, logits, -np.inf))
        np.testing.assert_allclose(probs, expected, rtol=0.0, atol=1e-15)
        assert np.isfinite(context.data).all() and np.isfinite(packed_t.grad).all()

    @pytest.mark.parametrize("all_ones", [True, False])
    def test_overflowing_and_vanishing_rows_match_the_dense_reference(self, all_ones):
        packed, bits, heads, head_dim = redo_inputs(all_ones)
        n, d = packed.shape[0], heads * head_dim
        context, probs = T.multi_head_attention(Tensor(packed), AttentionMask(bits), heads)
        q = packed[:, :d].reshape(n, heads, head_dim).transpose(1, 0, 2)
        k = packed[:, d:2 * d].reshape(n, heads, head_dim).transpose(1, 0, 2)
        v = packed[:, 2 * d:].reshape(n, heads, head_dim).transpose(1, 0, 2)
        logits = (q @ k.transpose(0, 2, 1)) * (1.0 / math.sqrt(head_dim))
        assert (logits[0, [1, 3]][:, [0, 4]] > T._EXP_SAFE).all()
        assert np.exp(logits[0, 2]).sum() < T._ROW_SUM_FLOOR
        expected = np.zeros((heads, n, n))
        for h in range(heads):
            for i in range(n):
                live = bits[i] == 1
                expected[h, i, live] = ref_softmax(logits[h, i, live])
        merged = (expected @ v).transpose(1, 0, 2).reshape(n, d)
        assert np.abs(probs - expected).max() <= 1e-12
        assert np.abs(context.data - merged).max() <= 1e-12

    @pytest.mark.parametrize("all_ones", [True, False])
    def test_redone_rows_give_the_composed_chain_gradient(self, all_ones):
        # The pullback rebuilds each probability tile, so the shifted redo
        # of the overflowing and vanishing rows runs again there.
        packed, bits, heads, _ = redo_inputs(all_ones)
        mask = AttentionMask(bits)
        weights = Tensor(np.random.default_rng(47).normal(size=(packed.shape[0],
                                                                packed.shape[1] // 3)))
        grads = []
        for attention in (lambda p: T.multi_head_attention(p, mask, heads)[0],
                          lambda p: composed_kernel(p, mask, heads)):
            packed_t = Tensor(packed, requires_grad=True)
            with T.ComputationTape() as tape:
                loss = T.sum_all(T.mul(attention(packed_t), weights))
            T.backward(loss, tape)
            grads.append(packed_t.grad.tobytes())
        assert grads[0] == grads[1]

    def test_tape_does_not_keep_the_probabilities(self):
        rng = np.random.default_rng(46)
        packed = Tensor(rng.normal(size=(6, 12)), requires_grad=True)
        with T.ComputationTape() as tape:
            context, probs = T.multi_head_attention(
                packed, kernel_mask("random", 4, 6, rng), heads=2)
        probs_ref = weakref.ref(probs)
        del probs
        assert probs_ref() is None
        assert len(tape._records) == 1

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        n, d, r, heads = 5, 8, 3, 2
        packed = Tensor(rng.normal(size=(n, 3 * d)), requires_grad=True)
        mask = kernel_mask("random", r, n, rng)
        weights = Tensor(rng.normal(size=(r, d)))

        def build():
            context, _ = T.multi_head_attention(packed, mask, heads)
            return T.sum_all(T.mul(context, weights))

        finite_difference_check(build, [packed])

    def test_products_keep_the_chain_operand_layouts(self, monkeypatch):
        # Each head's products, with the operand orientation the composed
        # chain gives BLAS: the same call rounds the same on any BLAS.
        # In particular dK is (q_i^T dS)^T, not dS^T q_i, and the pullback
        # rebuilds P_i from the forward's own q_i k_i^T.
        rng = np.random.default_rng(44)
        n, r, heads, head_dim = 7, 3, 2, 4
        d = heads * head_dim
        packed = Tensor(rng.normal(size=(n, 3 * d)), requires_grad=True)
        recorder = _RecordingNumpy()
        monkeypatch.setattr(T, "np", recorder)
        monkeypatch.setattr(T, "_cpus", lambda: 1)  # every head on this thread, in order
        with T.ComputationTape() as tape:
            context, _ = T.multi_head_attention(packed, kernel_mask("random", r, n, rng),
                                                heads)
            loss = T.sum_all(context)
        forward = [("N", "T", (r, head_dim), (head_dim, n)),   # q_i k_i^T
                   ("N", "N", (r, n), (n, head_dim))]          # P_i v_i
        assert recorder.products == forward * heads
        recorder.products.clear()
        T.backward(loss, tape)
        backward = [("N", "T", (r, head_dim), (head_dim, n)),  # q_i k_i^T again
                    ("T", "N", (n, r), (r, head_dim)),         # dV = P_i^T g_i
                    ("N", "T", (r, head_dim), (head_dim, n)),  # dP = g_i v_i^T
                    ("N", "N", (r, n), (n, head_dim)),         # dQ = dS k_i
                    ("T", "N", (head_dim, r), (r, n))]         # dK^T = q_i^T dS
        assert recorder.products == backward * heads

    def test_forward_and_pullback_leave_inputs_alone(self):
        rng = np.random.default_rng(45)
        packed = Tensor(rng.normal(size=(6, 12)), requires_grad=True)
        packed_before = packed.data.copy()
        with T.ComputationTape() as tape:
            context, probs = T.multi_head_attention(
                packed, kernel_mask("random", 4, 6, rng), heads=2)
        (record,) = tape._records
        g = rng.normal(size=context.shape)
        g_before = g.copy()
        (grad,) = record[1](g)
        assert np.array_equal(packed.data, packed_before) and np.array_equal(g, g_before)
        assert not np.shares_memory(grad, packed.data)
        assert not np.shares_memory(grad, g) and not probs.flags.writeable

    def test_shape_errors(self):
        packed = Tensor(np.zeros((4, 12)))
        with pytest.raises(ShapeError):
            T.multi_head_attention(packed, AttentionMask.ones(4), heads=3)
        for mask in (AttentionMask.ones(4, 5), AttentionMask.ones(5, 4)):
            with pytest.raises(ShapeError):
                T.multi_head_attention(packed, mask, heads=2)


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

    def test_leading_row_mask_updates_only_those_rows(self):
        # An r x n mask makes the first r tokens the queries; their outputs
        # equal the first r rows of the square-mask block, bit for bit.
        rng = np.random.default_rng(17)
        n, d, r = 9, 8, 3
        params = make_params(d, seed=18)
        x = Tensor(rng.normal(size=(n, d)))
        bits = rng.integers(0, 2, size=(n, n)).astype(np.uint8)
        np.fill_diagonal(bits, 1)
        full, _ = encoder_block(x, AttentionMask(bits), params, heads=2)
        rows, head_average = encoder_block(x, AttentionMask(bits[:r]), params, heads=2,
                                           need_record=True)
        assert rows.shape == (r, d)
        assert np.array_equal(rows.data, full.data[:r])
        assert head_average.shape == (r, n)

    def test_leading_row_mask_gradient_wrt_input(self):
        rng = np.random.default_rng(19)
        n, d, r = 5, 8, 2
        params = make_params(d, seed=20)
        x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        weights = Tensor(rng.normal(size=(r, d)))

        def build():
            out, _ = encoder_block(x, AttentionMask.ones(r, n), params, heads=2)
            return T.sum_all(T.mul(out, weights))

        finite_difference_check(build, [x])

    def test_mask_wider_or_taller_than_tokens_is_rejected(self):
        params = make_params(4)
        x = Tensor(np.zeros((3, 4)))
        for mask in (AttentionMask.ones(3, 4), AttentionMask.ones(4, 3)):
            with pytest.raises(ShapeError):
                encoder_block(x, mask, params, heads=2)

    def test_zero_heads_is_a_shape_error(self):
        params = make_params(4)
        with pytest.raises(ShapeError):
            encoder_block(Tensor(np.zeros((3, 4))), AttentionMask.ones(3), params, heads=0)
