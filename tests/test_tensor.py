"""Tensor core: op semantics, masked softmax, and taped gradients."""

import math
import threading
import tracemalloc
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


def unshifted_softmax(logits, bits):
    """The formula of a row with no logit above _EXP_SAFE and a gated sum
    of at least _ROW_SUM_FLOOR: exp, gate, normalize."""
    e = np.exp(logits) * bits
    return e / e.sum(axis=-1, keepdims=True)


def shifted_softmax(logits, bits):
    """The formula of every other row: -inf bias, live max, subtract,
    clamp at 0, exp, gate, normalize."""
    gated = logits + np.where(bits, 0.0, -np.inf)
    e = np.exp(np.minimum(logits - gated.max(axis=-1, keepdims=True), 0.0)) * bits
    return e / e.sum(axis=-1, keepdims=True)


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
        # The unshifted formula as run for any other mask: exp, gate,
        # normalize.
        rng = np.random.default_rng(4)
        logits = rng.normal(scale=6.0, size=(3, 7, 9))
        logits[0, 0, :3] = 0.0
        logits[0, 1, :3] = -0.0
        mask = AttentionMask.ones(7, 9)
        assert mask.all_ones
        expected = unshifted_softmax(logits, mask.bits)
        out = T.rowwise_masked_softmax(Tensor(logits), mask).data
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("all_ones", [True, False])
    def test_each_row_picks_its_formula_from_its_own_values(self, all_ones):
        # One stack mixes safe rows with rows that have one logit above
        # _EXP_SAFE (on a live cell, on a masked cell) and rows whose live
        # logits all sit near -500 (gated sum below _ROW_SUM_FLOOR).  Every
        # row gets the bits it gets alone: safe rows the unshifted
        # formula, the others the shifted one.
        rng = np.random.default_rng(21)
        heads, r, n = 2, 8, 10
        bits = rng.integers(0, 2, size=(r, n)).astype(np.uint8)
        bits[:, :2] = (1, 0)
        if all_ones:
            bits[:] = 1
        logits = rng.normal(scale=3.0, size=(heads, r, n))
        logits[0, 1, 0] = 600.0
        logits[0, 2, 1] = 1e300
        logits[1, 3, 1] = T._EXP_SAFE + 1.0
        logits[1, 4] -= 500.0
        logits[0, 5] = rng.uniform(-505.0, -495.0, size=n)
        logits[1, 6, 0] = T._EXP_SAFE  # at the bound, still safe
        redo = {(0, 1), (0, 2), (1, 3), (1, 4), (0, 5)}
        for h, i in ((1, 4), (0, 5)):
            assert (np.exp(logits[h, i]) * bits[i]).sum() < T._ROW_SUM_FLOOR
        out = T.rowwise_masked_softmax(Tensor(logits), AttentionMask(bits)).data
        for h in range(heads):
            for i in range(r):
                alone = T.rowwise_masked_softmax(
                    Tensor(logits[h, i:i + 1]), AttentionMask(bits[i:i + 1])).data
                assert np.array_equal(out[h, i], alone[0]), (h, i)
                formula = shifted_softmax if (h, i) in redo else unshifted_softmax
                assert np.array_equal(out[h, i], formula(logits[h, i], bits[i])), (h, i)
        # The two formulas round differently on the safe rows, so a choice
        # made for the whole stack would show above.
        safe = [(h, i) for h in range(heads) for i in range(r) if (h, i) not in redo]
        assert any(not np.array_equal(shifted_softmax(logits[h, i], bits[i]), out[h, i])
                   for h, i in safe)

    @pytest.mark.parametrize("all_ones", [True, False])
    def test_extreme_logits_raise_no_floating_point_warning(self, all_ones):
        rng = np.random.default_rng(22)
        r, n = 6, 7
        bits = np.ones((r, n), dtype=np.uint8)
        if not all_ones:
            bits[:, 3:5] = 0
        logits = rng.normal(size=(r, n))
        logits[0, 0] = 1e300
        logits[1, 1] = -1e300
        logits[2, 3:5] = (1e300, -1e300)
        logits[3] = -800.0
        logits[4] = -1e300
        logits[5, 4] = 1e300
        logits[5, :4] = -800.0
        # numpy ignores underflow by default; exp(-800) underflows by design.
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            out = T.rowwise_masked_softmax(Tensor(logits), AttentionMask(bits)).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
        assert (out[:, bits[0] == 0] == 0.0).all()
        assert out[0, 0] == 1.0 and out[1, 1] == 0.0

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
        (grad,) = pullback(g)
        assert np.array_equal(g, g_before)
        assert np.array_equal(x.data, x_before)
        assert np.array_equal(out.data, out_before)
        for array in (g, x.data, out.data):
            assert not np.shares_memory(grad, array)


def _attention_context(packed):
    mask = AttentionMask(np.tril(np.ones((4, 6), dtype=np.uint8), k=2))
    context, _ = T.multi_head_attention(packed, mask, heads=2)
    return context


# op and input shapes of each taped op, every input needing a gradient.
TAPED_OPS = {
    "matmul": (T.matmul, [(3, 4), (4, 5)]),
    "matmul_batched": (T.matmul, [(2, 3, 4), (2, 4, 5)]),
    "add": (T.add, [(3, 4), (3, 4)]),
    "sub": (T.sub, [(3, 4), (3, 4)]),
    "mul": (T.mul, [(3, 4), (3, 4)]),
    "scale": (lambda x: T.scale(x, -1.5), [(3, 4)]),
    "add_scalar": (lambda x: T.add_scalar(x, 0.25), [(3, 4)]),
    "add_bias": (T.add_bias, [(2, 3, 4), (4,)]),
    "reshape": (lambda x: T.reshape(x, (4, 6)), [(2, 3, 4)]),
    "transpose": (lambda x: T.transpose(x, (2, 0, 1)), [(2, 3, 4)]),
    "narrow": (lambda x: T.narrow(x, 1, 1, 2), [(3, 4)]),
    "concat": (lambda *xs: T.concat(xs, axis=-1), [(3, 2), (3, 4), (3, 1)]),
    "sum_all": (T.sum_all, [(3, 4)]),
    "gelu": (T.gelu, [(3, 4)]),
    "mlp": (T.mlp, [(5, 4), (4, 6), (6,), (6, 3), (3,)]),
    "layer_norm": (T.layer_norm, [(2, 3, 4), (4,), (4,)]),
    "avg_pool2d": (lambda x: T.avg_pool2d(x, 2, 3), [(2, 4, 6)]),
    "rowwise_masked_softmax": (lambda x: T.rowwise_masked_softmax(
        x, AttentionMask(np.tril(np.ones((5, 5), dtype=np.uint8)))), [(2, 5, 5)]),
    "multi_head_attention": (_attention_context, [(6, 12)]),
}


@pytest.mark.parametrize("op, shapes", TAPED_OPS.values(), ids=TAPED_OPS)
def test_pullback_returns_one_adjoint_of_its_own_per_input(op, shapes):
    rng = np.random.default_rng(29)
    inputs = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
    with ComputationTape() as tape:
        out = op(*inputs)
    (record,) = tape._records
    adjoints = list(record[1](np.asarray(rng.normal(size=out.shape))))
    assert all(isinstance(adjoint, np.ndarray) for adjoint in adjoints)
    assert [adjoint.shape for adjoint in adjoints] == [t.shape for t in inputs]
    for i, adjoint in enumerate(adjoints):
        for other in adjoints[i + 1:] + [t.data for t in inputs] + [out.data]:
            assert not np.shares_memory(adjoint, other)


# op and input shapes that do not fit it, each a ShapeError before any work.
MISFIT_OPERANDS = {
    "matmul_rank_1": (T.matmul, [(4,), (4, 5)]),
    "sub": (T.sub, [(3, 4), (4, 3)]),
    "add_bias": (T.add_bias, [(2, 3, 4), (3,)]),
    "layer_norm_gain": (T.layer_norm, [(2, 3, 4), (3,), (4,)]),
    "avg_pool2d": (lambda x: T.avg_pool2d(x, 2, 4), [(2, 4, 6)]),
    "rowwise_masked_softmax": (lambda x: T.rowwise_masked_softmax(
        x, AttentionMask(np.ones((4, 4), dtype=np.uint8))), [(2, 5, 5)]),
}


@pytest.mark.parametrize("op, shapes", MISFIT_OPERANDS.values(), ids=MISFIT_OPERANDS)
def test_operands_that_do_not_fit_raise_shape_error(op, shapes):
    inputs = [Tensor(np.zeros(shape), requires_grad=True) for shape in shapes]
    with ComputationTape() as tape, pytest.raises(ShapeError):
        op(*inputs)
    assert len(tape) == 0


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

    def test_a_leaf_loss_gets_a_unit_gradient(self):
        # No record reads the loss, so its seed adjoint is handed over at the end.
        loss = Tensor(3.0, requires_grad=True)
        with ComputationTape() as tape:
            pass
        backward(loss, tape)
        assert loss.grad == 1.0

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

    @pytest.mark.parametrize("route", ["add", "concat", "reshape"])
    def test_lent_adjoints_reach_leaves_as_their_own_arrays(self, route):
        # The matmul's input adjoint is fresh and handed on owned; add,
        # concat and reshape lend it (or views of it) to the leaves, which
        # must each get a copy of their own.
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(2 if route == "reshape" else 3, 4)), requires_grad=True)
        with ComputationTape() as tape:
            if route == "add":
                h = T.add(a, b)
            elif route == "concat":
                h = T.concat([a, b], axis=0)
            else:
                h = T.reshape(a, (3, 2))
            loss = T.sum_all(T.matmul(h, w))
        backward(loss, tape)
        g = np.ones((h.shape[0], 4)) @ w.data.T  # the adjoint of h
        if route == "add":
            assert np.array_equal(a.grad, g) and np.array_equal(b.grad, g)
        elif route == "concat":
            assert np.array_equal(a.grad, g[:2]) and np.array_equal(b.grad, g[2:])
        else:
            assert np.array_equal(a.grad, g.reshape(2, 3)) and b.grad is None
        grads = [t.grad for t in (a, b, w) if t.grad is not None]
        for i, grad in enumerate(grads):
            assert grad.flags.owndata and grad.flags.writeable
            assert not any(np.shares_memory(grad, other) for other in grads[i + 1:])
        others = [other.copy() for other in grads[1:]]
        grads[0][...] = 123.0
        assert all(np.array_equal(other, kept) for other, kept in zip(grads[1:], others))

    def test_an_earlier_grad_is_summed_but_not_written(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(2, 3)))
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        earlier = rng.normal(size=(3, 4))
        earlier_copy = earlier.copy()
        w.grad = earlier
        with ComputationTape() as tape:
            loss = T.sum_all(T.matmul(x, w))
        backward(loss, tape)
        assert np.array_equal(earlier, earlier_copy) and w.grad is not earlier
        assert w.grad.tobytes() == (earlier_copy + x.data.T @ np.ones((2, 4))).tobytes()

    @pytest.mark.parametrize("shapes, op", [
        ([(2, 3)], lambda a: T.add(a, a)),
        ([(2, 3), (2, 3)], T.add),
        ([(2, 3)], lambda a: T.sub(a, a)),
        ([(2, 3)], lambda a: T.concat([a, a], axis=0)),
        ([(4,), (4,)], T.add_bias),
        ([(4,), (4,), (4,)], T.layer_norm),
        ([(2, 3, 4)], lambda x: T.avg_pool2d(x, 1, 1)),
    ], ids=["add_same", "add_two", "sub_same", "concat_same", "add_bias_1d",
            "layer_norm_1d", "avg_pool2d_1x1"])
    def test_an_adjoint_handed_to_two_inputs_reaches_each_as_its_own(self, shapes, op):
        # Each leaf is also read by an op recorded before ``op``, so its
        # adjoint from ``op`` is summed into in place once more afterwards: an
        # adjoint ``op`` shared between two inputs would leak into the other.
        rng = np.random.default_rng(23)
        leaves = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
        extra = [Tensor(rng.normal(size=shape)) for shape in shapes]

        def build():
            loss = T.sum_all(T.mul(leaves[0], extra[0]))
            for leaf, weights in zip(leaves[1:], extra[1:]):
                loss = T.add(loss, T.sum_all(T.mul(leaf, weights)))
            out = op(*leaves)
            weights = Tensor(np.random.default_rng(24).normal(size=out.shape))
            return T.add(loss, T.sum_all(T.mul(out, weights)))

        finite_difference_check(build, leaves)
        once = [leaf.grad for leaf in leaves]
        earlier = [rng.normal(size=shape) for shape in shapes]
        for leaf, grad in zip(leaves, earlier):
            leaf.grad = grad
        for _ in range(2):
            held = [leaf.grad for leaf in leaves]
            copies = [grad.copy() for grad in held]
            with ComputationTape() as tape:
                loss = build()
            backward(loss, tape)
            for leaf, grad, copy in zip(leaves, held, copies):
                assert leaf.grad is not grad and np.array_equal(grad, copy)
        for leaf, grad, first in zip(leaves, earlier, once):
            assert leaf.grad.tobytes() == (first + (first + grad)).tobytes()
        grads = [leaf.grad for leaf in leaves]
        for i, grad in enumerate(grads):
            assert grad.flags.owndata and grad.flags.writeable
            others = grads[i + 1:] + [t.data for t in leaves + extra]
            assert not any(np.shares_memory(grad, other) for other in others)

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


def _probe(x, check):
    """Identity op whose pullback calls ``check()`` before passing ``g`` on."""
    def pullback(g):
        check()
        return (g,)

    return T._finish(x.data.copy(), (x,), pullback)


def _grad_copy(t):
    """A copy of ``t.grad``, or None if it is unset."""
    return None if t.grad is None else t.grad.copy()


class TestLeafFlush:
    """A leaf receives its ``.grad`` as soon as its last reader has been replayed."""

    def test_grad_arrives_before_backward_returns(self):
        rng = np.random.default_rng(20)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        seen = []
        with ComputationTape() as tape:
            early = _probe(a, lambda: seen.append(_grad_copy(w)))  # replayed last
            loss = T.sum_all(T.matmul(early, w))  # the only reader of w
        backward(loss, tape)
        assert seen[0] is not None
        assert seen[0].tobytes() == w.grad.tobytes() == (a.data.T @ np.ones((2, 4))).tobytes()

    def test_leaf_read_by_two_ops_waits_for_the_second(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        w = Tensor([0.5, -1.0, 2.0], requires_grad=True)
        seen = {}
        with ComputationTape() as tape:
            early = _probe(a, lambda: seen.setdefault("early", _grad_copy(w)))
            product = T.mul(w, early)  # first reader of w
            mid = _probe(product, lambda: seen.setdefault("mid", _grad_copy(w)))
            loss = T.sum_all(T.add(mid, T.scale(w, 2.0)))  # second reader of w
        backward(loss, tape)
        assert seen["mid"] is None  # one reader of w is still to be replayed
        assert np.array_equal(seen["early"], a.data + 2.0)
        assert np.array_equal(w.grad, a.data + 2.0)

    def test_leaf_read_twice_by_one_op(self):
        a = Tensor([1.0, -2.0], requires_grad=True)
        w = Tensor([3.0, 4.0], requires_grad=True)
        seen = []
        with ComputationTape() as tape:
            early = _probe(a, lambda: seen.append(_grad_copy(w)))
            loss = T.sum_all(T.mul(T.add(w, w), early))
        # Each record lists the leaves it is the first to read, each once.
        assert [record[2] for record in tape._records] == [(a,), (w,), (), ()]
        backward(loss, tape)
        assert np.array_equal(seen[0], 2.0 * a.data)
        assert np.array_equal(w.grad, 2.0 * a.data) and np.array_equal(a.grad, 2.0 * w.data)
        assert tape._records == []

    def test_output_of_another_tape_is_still_dropped(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with ComputationTape():
            h = T.scale(w, 3.0)
        with ComputationTape() as tape:
            loss = T.sum_all(T.mul(h, h))
        backward(loss, tape)
        assert w.grad is None and h.grad is None

    def test_a_raising_pullback_keeps_the_grads_already_given(self):
        rng = np.random.default_rng(21)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        earlier = rng.normal(size=(2, 3))
        a.grad = earlier

        def fail():
            raise RuntimeError("pullback failed")

        with ComputationTape() as tape:
            loss = T.sum_all(T.matmul(_probe(a, fail), w))
        with pytest.raises(RuntimeError, match="pullback failed"):
            backward(loss, tape)
        assert w.grad.tobytes() == (a.data.T @ np.ones((2, 4))).tobytes()
        assert a.grad is earlier


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
        constant_grad, w_grad = pullback(np.ones(out.shape))
        assert constant_grad is None
        assert isinstance(w_grad, np.ndarray) and w_grad.shape == w.shape
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


def _mlp_chain(x, w1, b1, w2, b2):
    """The composed reference chain that ``T.mlp`` fuses."""
    h = T.gelu(T.add_bias(T.matmul(x, w1), b1))
    return T.add_bias(T.matmul(h, w2), b2)


class TestMlp:
    @staticmethod
    def operands(seed, n, d, hidden, out, needs_grad=(True,) * 5):
        rng = np.random.default_rng(seed)
        shapes = [(n, d), (d, hidden), (hidden,), (hidden, out), (out,)]
        return [Tensor(rng.normal(scale=0.7, size=shape), requires_grad=grad)
                for shape, grad in zip(shapes, needs_grad)]

    @pytest.mark.parametrize("n, d, hidden, out", [(12, 8, 24, 8), (16, 8, 8, 64)],
                             ids=["block", "head"])
    @pytest.mark.parametrize("needs_grad", [(True,) * 5, (False, True, True, True, True),
                                            (True, False, False, False, False),
                                            (False, False, False, True, True)],
                             ids=["all", "weights", "input", "outer"])
    def test_bit_equal_to_the_composed_chain(self, n, d, hidden, out, needs_grad):
        weights = Tensor(np.random.default_rng(1).normal(size=(n, out)))
        results = []
        for op in (T.mlp, _mlp_chain):
            operands = self.operands(3, n, d, hidden, out, needs_grad)
            untaped = op(*operands).data
            with ComputationTape() as tape:
                loss = T.sum_all(T.mul(op(*operands), weights))
            backward(loss, tape)
            results.append([untaped.tobytes(), loss.item()]
                           + [None if t.grad is None else t.grad.tobytes() for t in operands])
        assert results[0] == results[1]

    def test_gradients_match_finite_differences(self):
        operands = self.operands(5, 6, 4, 10, 5)
        weights = Tensor(np.random.default_rng(6).normal(size=(6, 5)))
        finite_difference_check(lambda: T.sum_all(T.mul(T.mlp(*operands), weights)), operands)

    def test_tape_keeps_input_preactivation_and_tanh_only(self):
        n, d, hidden, out = 64, 4, 512, 4
        operands = self.operands(7, n, d, hidden, out)
        x_data = weakref.ref(operands[0].data)
        tracemalloc.start()
        try:
            with ComputationTape() as tape:
                T.mlp(*operands)
            operands[0] = None
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tape) == 1 and x_data() is not None  # x stays on the tape
        # Beyond x (allocated before tracing): the pre-activation and the
        # tanh, each n x hidden; no third array of that size (the GELU output).
        hidden_bytes = n * hidden * 8
        assert 2 * hidden_bytes <= retained < 2.5 * hidden_bytes

    def test_shape_mismatch_names_every_operand(self):
        x, w1, b1, w2, b2 = self.operands(8, 3, 4, 5, 2)
        with pytest.raises(ShapeError, match=r"\(3, 4\) @ \(4, 5\) \+ \(5,\) @ \(5, 2\) \+ \(3,\)"):
            T.mlp(x, w1, b1, w2, Tensor(np.zeros(3)))


class TestFiniteChecks:
    def test_non_finite_result_raises_when_enabled(self):
        with np.errstate(over="ignore"), pytest.raises(T.NonFiniteValueError):
            T.scale(Tensor([1e308]), 10.0)

    def test_guard_is_per_thread(self):
        # conftest turns the guard on for this thread; another thread turns it
        # off for a block, and only that thread's ops pass non-finite values.
        inside, release = threading.Event(), threading.Event()
        passed = []

        def hold_disabled():
            with T.finite_checks(False):
                inside.set()
                release.wait(timeout=10)
                with np.errstate(over="ignore"):
                    passed.append(T.scale(Tensor([1e308]), 10.0).data[0])

        other = threading.Thread(target=hold_disabled)
        other.start()
        try:
            assert inside.wait(timeout=10)  # the other thread is in its disabled block
            with np.errstate(over="ignore"), pytest.raises(T.NonFiniteValueError):
                T.scale(Tensor([1e308]), 10.0)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert passed == [np.inf]

    def test_disabled_guard_passes_through(self):
        with np.errstate(over="ignore"), T.finite_checks(False):
            out = T.scale(Tensor([1e308]), 10.0)
        assert np.isinf(out.data[0])
