"""Dense float64 tensors with taped reverse-mode differentiation.

A Tensor wraps a row-major numpy float64 array.  Operations executed while
a ComputationTape is active record one ``(node, pullback)`` pair each; the
node is a small identity object for the op's output, and the pullback
closure keeps only what it reads (keys and shapes, plus the arrays its
adjoint formula needs), so no record holds a forward output the backward
pass never reads.  ``backward`` replays the tape in reverse, popping each
record as it goes, and accumulates adjoints additively into every leaf that
has ``requires_grad`` set.  Tensors are treated as immutable once produced
by an operation; parameter updates happen between tapes.

Everything is 64-bit and broadcasting is restricted to scalar-with-tensor
(plus the dedicated last-axis bias op), which keeps every adjoint auditable
by hand.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np

from .errors import NonFiniteValueError, ShapeError
from .masks import AttentionMask


class _ThreadState(threading.local):
    """Per-thread tape stack and NaN/Inf guard setting."""

    def __init__(self):
        self.stack = []
        self.finite_checks = False


_tls = _ThreadState()

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def set_finite_checks(enabled: bool) -> bool:
    """Toggle this thread's per-op NaN/Inf guard; returns the previous setting."""
    previous = _tls.finite_checks
    _tls.finite_checks = bool(enabled)
    return previous


def finite_checks_enabled() -> bool:
    """This thread's NaN/Inf guard setting."""
    return _tls.finite_checks


@contextmanager
def finite_checks(enabled: bool):
    previous = set_finite_checks(enabled)
    try:
        yield
    finally:
        set_finite_checks(previous)


class _Node:
    """Identity of one taped op output; gradients are keyed by it."""

    __slots__ = ()


class Tensor:
    """Row-major float64 array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class ComputationTape:
    """Ordered record of primitive ops, replayed in reverse by backward().

    A record is ``(node, pullback)``: the output's identity and a closure
    over only the arrays its adjoint reads.  ``backward`` consumes the tape,
    popping each record as it replays it; ``len`` stays the number of ops
    recorded.  A tape is confined to one logical thread of execution;
    concurrent forwards use independent tapes or run grad-free (no tape
    active).
    """

    def __init__(self):
        self._records = []  # (node, pullback), popped by backward
        self._recorded = 0

    def __enter__(self):
        _tls.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tls.stack.pop()
        return False

    def __len__(self):
        return self._recorded


def _key(t: Tensor):
    """Gradient key of an op input: its node if taped, itself if a
    ``requires_grad`` leaf, else None (no gradient needed)."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _finish(out_data, keys, pullback):
    """Wrap an op result; record on the active tape when gradients can flow."""
    if _tls.finite_checks and not np.isfinite(out_data).all():
        raise NonFiniteValueError("operation produced non-finite values")
    out = Tensor(out_data)
    stack = _tls.stack
    if stack and any(k is not None for k in keys):
        tape = stack[-1]
        out.requires_grad = True
        out._node = _Node()
        tape._records.append((out._node, pullback))
        tape._recorded += 1
    return out


def _accumulate(store, key, grad):
    # Entries start as borrowed references (never mutated in place); the
    # first further accumulation replaces them with an owned fresh array.
    if key is None:
        return
    entry = store.get(key)
    if entry is None:
        store[key] = [grad, False]
    elif entry[1]:
        entry[0] += grad
    else:
        entry[0] = entry[0] + grad
        entry[1] = True


def backward(loss: Tensor, tape: ComputationTape) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``.grad``.

    ``loss`` must be a scalar produced under ``tape``.  Gradients add into
    pre-existing ``.grad`` buffers; call ``zero_grad`` between steps.

    The tape is consumed: each record is popped as it is replayed, so its
    closure and the arrays it keeps are freed before the next one runs.
    Only leaves receive ``.grad``.  An output of another tape counts as an
    intermediate here, not as a leaf: its gradient is dropped.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    key = _key(loss)
    store = {} if key is None else {key: [np.ones((), dtype=np.float64), True]}
    records = tape._records
    while records:
        node, pullback = records.pop()
        entry = store.pop(node, None)
        if entry is not None:  # else not on a path to the loss
            pullback(entry[0], store)
    for key, (grad, _) in store.items():
        if not isinstance(key, Tensor):
            continue  # an intermediate of another tape
        if key.grad is None:
            key.grad = np.array(grad, dtype=np.float64)
        else:
            key.grad = key.grad + grad


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; equal-rank stacked batches share leading extents.

    Each side's gradient is computed, and the other operand's array kept,
    only when that side needs a gradient.
    """
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.ndim != b.data.ndim:
        raise ShapeError(f"matmul needs equal-rank >=2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    ka, kb = _key(a), _key(b)
    a_t = a.data.swapaxes(-1, -2) if kb is not None else None
    b_t = b.data.swapaxes(-1, -2) if ka is not None else None

    def pullback(g, store):
        if ka is not None:
            _accumulate(store, ka, g @ b_t)
        if kb is not None:
            _accumulate(store, kb, a_t @ g)

    return _finish(a.data @ b.data, (ka, kb), pullback)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    ka, kb = _key(a), _key(b)

    def pullback(g, store):
        _accumulate(store, ka, g)
        _accumulate(store, kb, g)

    return _finish(a.data + b.data, (ka, kb), pullback)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    ka, kb = _key(a), _key(b)

    def pullback(g, store):
        _accumulate(store, ka, g)
        _accumulate(store, kb, -g)

    return _finish(a.data - b.data, (ka, kb), pullback)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product; shapes must match exactly (no broadcasting)."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    ka, kb = _key(a), _key(b)
    a_data = a.data if kb is not None else None
    b_data = b.data if ka is not None else None

    def pullback(g, store):
        if ka is not None:
            _accumulate(store, ka, g * b_data)
        if kb is not None:
            _accumulate(store, kb, g * a_data)

    return _finish(a.data * b.data, (ka, kb), pullback)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    ka = _key(a)

    def pullback(g, store):
        _accumulate(store, ka, g * s)

    return _finish(a.data * s, (ka,), pullback)


def add_scalar(a: Tensor, s: float) -> Tensor:
    ka = _key(a)

    def pullback(g, store):
        _accumulate(store, ka, g)

    return _finish(a.data + float(s), (ka,), pullback)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-D vector along the last axis of x."""
    if b.data.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias shape mismatch: {x.shape} + {b.shape}")
    kx, kb = _key(x), _key(b)

    def pullback(g, store):
        _accumulate(store, kx, g)
        axes = tuple(range(g.ndim - 1))
        _accumulate(store, kb, g.sum(axis=axes) if axes else g)

    return _finish(x.data + b.data, (kx, kb), pullback)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    kx, x_shape = _key(x), x.shape

    def pullback(g, store):
        _accumulate(store, kx, g.reshape(x_shape))

    return _finish(x.data.reshape(shape), (kx,), pullback)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(int(a) for a in axes)
    inverse = tuple(np.argsort(axes))
    kx = _key(x)

    def pullback(g, store):
        _accumulate(store, kx, g.transpose(inverse))

    return _finish(x.data.transpose(axes), (kx,), pullback)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    if start < 0 or length < 0 or start + length > x.shape[axis]:
        raise ShapeError(f"narrow [{start}:{start + length}) exceeds axis {axis} of {x.shape}")
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    kx, x_shape = _key(x), x.shape

    def pullback(g, store):
        full = np.zeros(x_shape, dtype=np.float64)
        full[index] = g
        _accumulate(store, kx, full)

    return _finish(x.data[index].copy(), (kx,), pullback)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    keys = tuple(_key(t) for t in tensors)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def pullback(g, store):
        for key, lo, hi in zip(keys, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            _accumulate(store, key, g[tuple(index)])

    return _finish(np.concatenate([t.data for t in tensors], axis=axis), keys, pullback)


def sum_all(x: Tensor) -> Tensor:
    kx, x_shape = _key(x), x.shape

    def pullback(g, store):
        _accumulate(store, kx, np.full(x_shape, float(g), dtype=np.float64))

    return _finish(np.asarray(x.data.sum(), dtype=np.float64), (kx,), pullback)


def gelu(x: Tensor) -> Tensor:
    """Tanh-form GELU: 0.5 x (1 + tanh(c (x + a x^3))).

    Powers are written as products: ``x**3`` runs ``np.power``, about 60x
    slower than ``x * x * x``.  The pullback keeps only ``x`` and ``t`` and
    recomputes ``x * x``.
    """
    xd = x.data
    t = xd * _GELU_A
    t *= xd
    t *= xd
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    out_data = 0.5 * xd
    out_data *= 1.0 + t
    kx = _key(x)

    def pullback(g, store):
        du = xd * xd
        du *= 3.0 * _GELU_A
        du += 1.0
        du *= _GELU_C
        grad = t * t
        np.subtract(1.0, grad, out=grad)
        grad *= 0.5 * xd
        grad *= du
        grad += 0.5 * (1.0 + t)
        grad *= g
        _accumulate(store, kx, grad)

    return _finish(out_data, (kx,), pullback)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match D={d}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    gain_data = gain.data
    out_data = xhat * gain_data + bias.data
    kx, kg, kb = _key(x), _key(gain), _key(bias)

    def pullback(g, store):
        axes = tuple(range(g.ndim - 1))
        _accumulate(store, kg, (g * xhat).sum(axis=axes) if axes else g * xhat)
        _accumulate(store, kb, g.sum(axis=axes) if axes else g)
        dxhat = g * gain_data
        mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
        mean_dxhat_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accumulate(store, kx, inv * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat))

    return _finish(out_data, (kx, kg, kb), pullback)


def avg_pool2d(x: Tensor, pool_h: int, pool_w: int) -> Tensor:
    """Non-overlapping average pool of a C x H x W tensor."""
    c, h, w = x.shape
    if h % pool_h or w % pool_w:
        raise ShapeError(f"pool {pool_h}x{pool_w} does not divide image {h}x{w}")
    oh, ow = h // pool_h, w // pool_w
    blocks = x.data.reshape(c, oh, pool_h, ow, pool_w)
    out_data = blocks.mean(axis=(2, 4))
    kx = _key(x)

    def pullback(g, store):
        spread = g[:, :, None, :, None] / (pool_h * pool_w)
        full = np.broadcast_to(spread, (c, oh, pool_h, ow, pool_w)).reshape(c, h, w)
        _accumulate(store, kx, full)

    return _finish(out_data, (kx,), pullback)


def rowwise_masked_softmax(logits: Tensor, mask: AttentionMask) -> Tensor:
    """Softmax normalized over unmasked entries only; masked entries are exactly 0.

    ``mask`` matches the trailing two axes of ``logits``; leading axes share
    it.  The row max is taken over unmasked entries only, so huge masked
    logits cannot underflow the live ones.  AttentionMask guarantees every
    row keeps at least one position.

    On an all-ones mask the softmax is plain: max, subtract, exp, sum and
    divide, with no gating pass.  Any other mask uses its cached float
    ``gate`` and ``bias`` (``AttentionMask.gate_bias``).  No ``-inf``
    reaches ``np.exp``: numpy leaves its vectorized exp loop on non-finite
    input and runs about 10x slower.  Every cell is exponentiated at
    ``min(logit - max, 0)``, which only clamps masked cells (live cells sit
    at or below the live max), and the gate then zeroes the masked ones.
    Live cells therefore get the same bits as gating with ``-inf``, and an
    all-ones mask the same bits on either path.
    """
    if logits.shape[-2:] != mask.bits.shape:
        raise ShapeError(f"mask shape {mask.bits.shape} does not match logits {logits.shape}")
    if mask.all_ones:
        out_data = logits.data - logits.data.max(axis=-1, keepdims=True)
        np.exp(out_data, out=out_data)
    else:
        gate, bias = mask.gate_bias()
        out_data = logits.data + bias
        row_max = out_data.max(axis=-1, keepdims=True)
        np.subtract(logits.data, row_max, out=out_data)
        np.minimum(out_data, 0.0, out=out_data)
        np.exp(out_data, out=out_data)
        out_data *= gate
    out_data /= out_data.sum(axis=-1, keepdims=True)
    kl = _key(logits)

    def pullback(g, store):
        grad = g * out_data
        dot = grad.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=grad)
        grad *= out_data
        _accumulate(store, kl, grad)

    return _finish(out_data, (kl,), pullback)
