"""Tensor core: op semantics, masked softmax, and taped gradients."""

import math
import threading
import weakref

import numpy as np
import pytest

import spt.tensor as T
from spt.errors import DegenerateMaskRowError, ShapeError
from spt.masks import AttentionMask
from spt.tensor import ComputationTape, Tensor, backward

from gradcheck import finite_difference_check


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(T.matmul(eye, b).data, b.data)

    def test_hand_evaluated_product(self):
        # [[1,2]] @ [[3],[4]] = [[1*3 + 2*4]] = [[11]]
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == 11.0

    def test_zeros_annihilate(self):
        out = T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.arange(6.0).reshape(3, 2)))
        assert np.array_equal(out.data, np.zeros((2, 2)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_stacked_batch_gradients(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
        finite_difference_check(lambda: T.sum_all(T.matmul(a, b)), [a, b])


class TestElementwise:
    def test_binary_mask_gating(self):
        out = T.mul(Tensor([1.0, 2.0, 3.0]), Tensor([1.0, 0.0, 1.0]))
        assert np.array_equal(out.data, [1.0, 0.0, 3.0])

    def test_addition(self):
        assert np.array_equal(T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data, [4.0, 6.0])

    def test_scalar_ops(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        assert np.array_equal(T.scale(x, 2.0).data, [2.0, 4.0])
        with ComputationTape() as tape:
            loss = T.sum_all(T.add_scalar(x, 1.0))
        assert loss.item() == 5.0
        T.backward(loss, tape)
        assert np.array_equal(x.grad, [1.0, 1.0])

    def test_multiplicative_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out = T.mul(Tensor(x), Tensor(np.ones((2, 3))))
        assert np.array_equal(out.data, x)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(Tensor([1.0]), Tensor([1.0, 2.0]))
        with pytest.raises(ShapeError):
            T.mul(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2,))))


class TestMaskedSoftmax:
    def test_dense_row_values(self):
        out = T.rowwise_masked_softmax(
            Tensor([[1.0, 2.0, 3.0]]), AttentionMask(np.array([[1, 1, 1]]))
        )
        np.testing.assert_allclose(out.data[0], [0.09003, 0.24473, 0.66524], atol=1e-4)

    def test_two_term_row_values(self):
        out = T.rowwise_masked_softmax(
            Tensor([[1.0, 2.0, 3.0]]), AttentionMask(np.array([[1, 0, 1]]))
        )
        np.testing.assert_allclose(out.data[0], [0.11920, 0.0, 0.88080], atol=1e-4)
        assert out.data[0, 1] == 0.0

    def test_single_entry_row_is_one(self):
        out = T.rowwise_masked_softmax(
            Tensor([[123.456]]), AttentionMask(np.array([[1]]))
        )
        assert out.data[0, 0] == 1.0

    def test_rows_sum_to_one_and_masked_exactly_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            r, c = rng.integers(1, 8), rng.integers(1, 8)
            logits = rng.normal(scale=4.0, size=(r, c))
            bits = rng.integers(0, 2, size=(r, c)).astype(np.uint8)
            bits[np.arange(r), rng.integers(0, c, size=r)] = 1  # nonempty support
            out = T.rowwise_masked_softmax(Tensor(logits), AttentionMask(bits)).data
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
            assert (out[bits == 0] == 0.0).all()

    def test_all_ones_matches_plain_softmax(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(5, 6))
        out = T.rowwise_masked_softmax(Tensor(logits), AttentionMask.ones(5, 6)).data
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        np.testing.assert_allclose(out, e / e.sum(axis=1, keepdims=True), atol=1e-12)

    def test_all_ones_path_is_bit_equal_to_the_gated_formula(self):
        # The gated formula as run for any other mask: -inf bias, max,
        # subtract, clamp at 0, exp, gate, normalize.
        rng = np.random.default_rng(4)
        logits = rng.normal(scale=6.0, size=(3, 7, 9))
        logits[0, 0, :3] = 0.0
        logits[0, 1, :3] = -0.0
        mask = AttentionMask.ones(7, 9)
        assert mask.all_ones
        bits = mask.bits
        gated = logits + np.where(bits, 0.0, -np.inf)
        e = np.exp(np.minimum(logits - gated.max(axis=-1, keepdims=True), 0.0)) * bits
        expected = e / e.sum(axis=-1, keepdims=True)
        out = T.rowwise_masked_softmax(Tensor(logits), mask).data
        assert np.array_equal(out, expected)

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(4, 5))
        bits = rng.integers(0, 2, size=(4, 5)).astype(np.uint8)
        bits[:, 0] = 1
        base = T.rowwise_masked_softmax(Tensor(logits), AttentionMask(bits)).data
        shifted = T.rowwise_masked_softmax(
            Tensor(logits + 17.25), AttentionMask(bits)
        ).data
        np.testing.assert_allclose(base, shifted, atol=1e-9)

    def test_huge_masked_logit_cannot_underflow_live_entries(self):
        logits = np.array([[0.0, 1.0, 5000.0]])
        out = T.rowwise_masked_softmax(
            Tensor(logits), AttentionMask(np.array([[1, 1, 0]]))
        ).data
        np.testing.assert_allclose(out[0, :2].sum(), 1.0, atol=1e-12)
        assert out[0, 2] == 0.0

    def test_degenerate_row_raises(self):
        with pytest.raises(DegenerateMaskRowError):
            AttentionMask(np.array([[0, 0], [1, 0]]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        bits = np.array([[1, 1, 0, 1], [1, 1, 1, 1], [0, 0, 1, 1]], dtype=np.uint8)
        weights = Tensor(rng.normal(size=(3, 4)))
        finite_difference_check(
            lambda: T.sum_all(T.mul(
                T.rowwise_masked_softmax(logits, AttentionMask(bits)), weights)),
            [logits],
        )

    def test_head_stack_matches_where_inf_formula(self):
        rng = np.random.default_rng(13)
        heads, n, k = 3, 12, 5
        bits = np.zeros((n, n), dtype=np.uint8)
        for row in range(n):
            keep = (1, k, n)[row % 3]
            bits[row, rng.choice(n, size=keep, replace=False)] = 1
        logits = rng.normal(scale=3.0, size=(heads, n, n))
        masked = np.broadcast_to(bits == 0, logits.shape)
        logits[masked] = np.where(rng.random(int(masked.sum())) < 0.5, 1e300, -1e300)
        gated = np.where(bits.astype(bool), logits, -np.inf)
        e = np.exp(gated - gated.max(axis=-1, keepdims=True))
        expected = e / e.sum(axis=-1, keepdims=True)
        out = T.rowwise_masked_softmax(Tensor(logits), AttentionMask(bits)).data
        np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-15)
        assert (out[masked] == 0.0).all()


def _forward_and_pullback(op, x):
    """Run a one-tensor op under a tape; return its output and its pullback."""
    with ComputationTape() as tape:
        out = op(x)
    (record,) = tape._records
    return out, record[1]


class TestKernelsLeaveInputsAlone:
    @pytest.mark.parametrize("op", [
        T.gelu,
        lambda x: T.rowwise_masked_softmax(
            x, AttentionMask(np.tril(np.ones((6, 6), dtype=np.uint8)))),
    ], ids=["gelu", "rowwise_masked_softmax"])
    def test_forward_and_pullback_do_not_write_inputs(self, op):
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(scale=2.0, size=(2, 6, 6)), requires_grad=True)
        x_before = x.data.copy()
        out, pullback = _forward_and_pullback(op, x)
        out_before = out.data.copy()
        assert np.array_equal(x.data, x_before)
        g = rng.normal(size=out.shape)
        g_before = g.copy()
        store = {}
        pullback(g, store)
        assert np.array_equal(g, g_before)
        assert np.array_equal(x.data, x_before)
        assert np.array_equal(out.data, out_before)
        grad = store[x][0]
        for array in (g, x.data, out.data):
            assert not np.shares_memory(grad, array)


class TestLayerNorm:
    def test_constant_rows_normalize_to_bias(self):
        x = Tensor(np.full((3, 4), 2.5))
        out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_two_point_row(self):
        out = T.layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data[0], [-1.0, 1.0], atol=1e-4)

    def test_zero_gain_broadcasts_bias(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 3)))
        bias = np.array([5.0, -1.0, 0.5])
        out = T.layer_norm(x, Tensor(np.zeros(3)), Tensor(bias))
        np.testing.assert_allclose(out.data, np.broadcast_to(bias, (2, 3)), atol=1e-15)

    def test_gradients(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        gain = Tensor(rng.normal(size=4), requires_grad=True)
        bias = Tensor(rng.normal(size=4), requires_grad=True)
        weights = Tensor(rng.normal(size=(3, 4)))
        finite_difference_check(
            lambda: T.sum_all(T.mul(T.layer_norm(x, gain, bias), weights)),
            [x, gain, bias],
        )


class TestBackward:
    def test_sum_gradient_is_ones(self):
        p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with ComputationTape() as tape:
            loss = T.sum_all(p)
        backward(loss, tape)
        assert np.array_equal(p.grad, np.ones((2, 3)))

    def test_quadratic_gradient(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        with ComputationTape() as tape:
            loss = T.sum_all(T.mul(p, p))
        backward(loss, tape)
        assert np.array_equal(p.grad, [2.0, 4.0])

    def test_matmul_chain_against_finite_differences(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        c = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        finite_difference_check(
            lambda: T.sum_all(T.matmul(T.matmul(a, b), c)), [a, b, c]
        )

    def test_non_scalar_loss_rejected(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        with ComputationTape() as tape:
            out = T.mul(p, p)
        with pytest.raises(ShapeError):
            backward(out, tape)

    def test_multi_consumer_accumulation(self):
        # y = x + x: dy/dx = 2 per element, through two uses of the same leaf
        x = Tensor([3.0], requires_grad=True)
        with ComputationTape() as tape:
            loss = T.sum_all(T.add(x, x))
        backward(loss, tape)
        assert np.array_equal(x.grad, [2.0])

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([1.0], requires_grad=True)
        for _ in range(2):
            with ComputationTape() as tape:
                loss = T.sum_all(x)
            backward(loss, tape)
        assert np.array_equal(x.grad, [2.0])
        x.zero_grad()
        assert x.grad is None

    def test_each_record_visited_once(self):
        # a diamond: two consumers of z; the tape replays each op exactly once
        x = Tensor([2.0], requires_grad=True)
        with ComputationTape() as tape:
            z = T.mul(x, x)
            loss = T.sum_all(T.add(z, z))
        assert len(tape) == 3
        backward(loss, tape)
        # d/dx of 2x^2 = 4x = 8
        assert np.array_equal(x.grad, [8.0])


class TestTapeMemory:
    def test_softmax_does_not_keep_its_logits(self):
        mask = AttentionMask(np.tril(np.ones((5, 5), dtype=np.uint8)))

        def gradients(drop_logits):
            rng = np.random.default_rng(6)
            q = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
            k_t = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
            weights = Tensor(rng.normal(size=(2, 5, 5)))
            with ComputationTape() as tape:
                logits = T.matmul(q, k_t)
                probs = T.rowwise_masked_softmax(logits, mask)
                if drop_logits:
                    logits_data = weakref.ref(logits.data)
                    del logits
                    assert logits_data() is None
                loss = T.sum_all(T.mul(probs, weights))
            backward(loss, tape)
            return q.grad, k_t.grad

        for kept, dropped in zip(gradients(False), gradients(True)):
            assert np.array_equal(kept, dropped)

    def test_matmul_keeps_and_differentiates_only_what_needs_a_gradient(self):
        rng = np.random.default_rng(8)
        constant = Tensor(rng.normal(size=(4, 6)))
        w = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        out, pullback = _forward_and_pullback(lambda x: T.matmul(constant, x), w)
        store = {}
        pullback(np.ones(out.shape), store)
        assert list(store) == [w]
        with ComputationTape():
            hidden = T.scale(w, 2.0)
            T.matmul(constant, hidden)
            hidden_data = weakref.ref(hidden.data)
            del hidden
            assert hidden_data() is None

    def test_backward_consumes_the_tape_and_keeps_its_length(self):
        x = Tensor([2.0], requires_grad=True)
        with ComputationTape() as tape:
            loss = T.sum_all(T.mul(x, x))
        assert len(tape) == 2
        backward(loss, tape)
        assert tape._records == []
        assert len(tape) == 2
        assert np.array_equal(x.grad, [4.0])


class TestStructuralOps:
    def test_reshape_transpose_round_trip(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        out = T.transpose(T.reshape(x, (6, 4)), (1, 0))
        assert out.shape == (4, 6)
        finite_difference_check(
            lambda: T.sum_all(T.mul(T.transpose(T.reshape(x, (6, 4)), (1, 0)),
                                    Tensor(np.arange(24.0).reshape(4, 6)))),
            [x],
        )

    def test_narrow_and_concat(self):
        x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        top = T.narrow(x, 0, 0, 2)
        bottom = T.narrow(x, 0, 2, 2)
        again = T.concat([top, bottom], axis=0)
        assert np.array_equal(again.data, x.data)
        with pytest.raises(ShapeError):
            T.narrow(x, 0, 3, 2)
        weights = Tensor(np.arange(12.0).reshape(4, 3))
        finite_difference_check(
            lambda: T.sum_all(T.mul(T.concat(
                [T.narrow(x, 0, 2, 2), T.narrow(x, 0, 0, 2)], axis=0), weights)),
            [x],
        )

    def test_add_bias_gradients(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        finite_difference_check(lambda: T.sum_all(T.add_bias(x, b)), [x, b])

    def test_gelu_matches_tanh_formula(self):
        x = np.linspace(-10, 10, 2001)
        c, a = math.sqrt(2.0 / math.pi), 0.044715
        expected = 0.5 * x * (1 + np.tanh(c * (x + a * x * x * x)))
        np.testing.assert_allclose(T.gelu(Tensor(x)).data, expected, rtol=1e-15, atol=0.0)

    def test_gelu_gradients_and_values(self):
        assert T.gelu(Tensor([0.0])).data[0] == 0.0
        big = T.gelu(Tensor([10.0])).data[0]
        assert abs(big - 10.0) < 1e-6
        x = Tensor(np.linspace(-2, 2, 9), requires_grad=True)
        w = Tensor(np.linspace(1, 2, 9))
        finite_difference_check(lambda: T.sum_all(T.mul(T.gelu(x), w)), [x])

    def test_avg_pool_values_and_gradients(self):
        x = Tensor(np.arange(16.0).reshape(1, 4, 4), requires_grad=True)
        out = T.avg_pool2d(x, 2, 2)
        np.testing.assert_allclose(out.data[0], [[2.5, 4.5], [10.5, 12.5]])
        w = Tensor(np.arange(4.0).reshape(1, 2, 2))
        finite_difference_check(lambda: T.sum_all(T.mul(T.avg_pool2d(x, 2, 2), w)), [x])

    def test_scale_and_sub_gradients(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        finite_difference_check(
            lambda: T.sum_all(T.mul(T.sub(T.scale(a, 2.5), b), T.sub(a, b))), [a, b]
        )


class TestFiniteChecks:
    def test_non_finite_result_raises_when_enabled(self):
        with np.errstate(over="ignore"), pytest.raises(T.NonFiniteValueError):
            T.scale(Tensor([1e308]), 10.0)

    def test_guard_is_per_thread(self):
        assert T.finite_checks_enabled()  # turned on for this thread by conftest
        other = threading.Thread(target=T.set_finite_checks, args=(False,))
        other.start()
        other.join(timeout=10)
        assert not other.is_alive()
        assert T.finite_checks_enabled()
        with np.errstate(over="ignore"), pytest.raises(T.NonFiniteValueError):
            T.scale(Tensor([1e308]), 10.0)

    def test_disabled_guard_passes_through(self):
        with np.errstate(over="ignore"), T.finite_checks(False):
            out = T.scale(Tensor([1e308]), 10.0)
        assert np.isinf(out.data[0])
