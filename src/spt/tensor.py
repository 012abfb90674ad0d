"""Dense float64 tensors with taped reverse-mode differentiation.

A Tensor wraps a row-major numpy float64 array.  Operations executed while
a ComputationTape is active record a pullback closure; ``backward`` replays
the tape in reverse, accumulating adjoints additively into every leaf that
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

_tls = threading.local()
_FINITE_CHECKS = False

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def set_finite_checks(enabled: bool) -> bool:
    """Toggle the per-op NaN/Inf guard; returns the previous setting."""
    global _FINITE_CHECKS
    previous = _FINITE_CHECKS
    _FINITE_CHECKS = bool(enabled)
    return previous


@contextmanager
def finite_checks(enabled: bool):
    previous = set_finite_checks(enabled)
    try:
        yield
    finally:
        set_finite_checks(previous)


class Tensor:
    """Row-major float64 array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

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

    # Operators are thin sugar over the module-level primitives.
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return add_scalar(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return sub(self, other)
        return add_scalar(self, -float(other))

    def __rsub__(self, other):
        return add_scalar(scale(self, -1.0), float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise ShapeError("tensor/tensor division is not a primitive; divide by a scalar")
        return scale(self, 1.0 / float(other))

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class ComputationTape:
    """Ordered record of primitive ops, replayed in reverse by backward().

    A tape is confined to one logical thread of execution; concurrent
    forwards use independent tapes or run grad-free (no tape active).
    """

    def __init__(self):
        self._records = []  # (output, inputs, pullback)

    def __enter__(self):
        stack = getattr(_tls, "stack", None)
        if stack is None:
            stack = _tls.stack = []
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tls.stack.pop()
        return False

    def __len__(self):
        return len(self._records)


def _active_tape():
    stack = getattr(_tls, "stack", None)
    return stack[-1] if stack else None


def _finish(out_data, inputs, pullback):
    """Wrap an op result; record on the active tape when gradients can flow."""
    if _FINITE_CHECKS and not np.isfinite(out_data).all():
        raise NonFiniteValueError("operation produced non-finite values")
    tape = _active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        tape._records.append((out, inputs, pullback))
    return out


def _accumulate(store, tensor, grad):
    # Entries start as borrowed references (never mutated in place); the
    # first further accumulation replaces them with an owned fresh array.
    if not tensor.requires_grad:
        return
    key = id(tensor)
    entry = store.get(key)
    if entry is None:
        store[key] = [tensor, grad, False]
    elif entry[2]:
        entry[1] += grad
    else:
        entry[1] = entry[1] + grad
        entry[2] = True


def backward(loss: Tensor, tape: ComputationTape) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``.grad``.

    ``loss`` must be a scalar produced under ``tape``.  Gradients add into
    pre-existing ``.grad`` buffers; call ``zero_grad`` between steps.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    store = {id(loss): [loss, np.ones((), dtype=np.float64), True]}
    produced = {id(out) for out, _, _ in tape._records}
    for out, inputs, pullback in reversed(tape._records):
        entry = store.pop(id(out), None)
        if entry is None:
            continue  # not on a path to the loss
        pullback(entry[1], store)
    for tensor, grad, _ in store.values():
        if tensor.requires_grad and id(tensor) not in produced:
            if tensor.grad is None:
                tensor.grad = np.array(grad, dtype=np.float64)
            else:
                tensor.grad = tensor.grad + grad


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; equal-rank stacked batches share leading extents."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.ndim != b.data.ndim:
        raise ShapeError(f"matmul needs equal-rank >=2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def pullback(g, store):
        _accumulate(store, a, g @ b.data.swapaxes(-1, -2))
        _accumulate(store, b, a.data.swapaxes(-1, -2) @ g)

    return _finish(out_data, (a, b), pullback)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def pullback(g, store):
        _accumulate(store, a, g)
        _accumulate(store, b, g)

    return _finish(a.data + b.data, (a, b), pullback)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub shape mismatch: {a.shape} vs {b.shape}")

    def pullback(g, store):
        _accumulate(store, a, g)
        _accumulate(store, b, -g)

    return _finish(a.data - b.data, (a, b), pullback)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product; shapes must match exactly (no broadcasting)."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")

    def pullback(g, store):
        _accumulate(store, a, g * b.data)
        _accumulate(store, b, g * a.data)

    return _finish(a.data * b.data, (a, b), pullback)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def pullback(g, store):
        _accumulate(store, a, g * s)

    return _finish(a.data * s, (a,), pullback)


def add_scalar(a: Tensor, s: float) -> Tensor:
    def pullback(g, store):
        _accumulate(store, a, g)

    return _finish(a.data + float(s), (a,), pullback)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-D vector along the last axis of x."""
    if b.data.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias shape mismatch: {x.shape} + {b.shape}")

    def pullback(g, store):
        _accumulate(store, x, g)
        axes = tuple(range(g.ndim - 1))
        _accumulate(store, b, g.sum(axis=axes) if axes else g)

    return _finish(x.data + b.data, (x, b), pullback)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)

    def pullback(g, store):
        _accumulate(store, x, g.reshape(x.shape))

    return _finish(x.data.reshape(shape), (x,), pullback)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(int(a) for a in axes)
    inverse = tuple(np.argsort(axes))

    def pullback(g, store):
        _accumulate(store, x, g.transpose(inverse))

    return _finish(x.data.transpose(axes), (x,), pullback)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    if start < 0 or length < 0 or start + length > x.shape[axis]:
        raise ShapeError(f"narrow [{start}:{start + length}) exceeds axis {axis} of {x.shape}")
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def pullback(g, store):
        full = np.zeros(x.shape, dtype=np.float64)
        full[index] = g
        _accumulate(store, x, full)

    return _finish(x.data[index].copy(), (x,), pullback)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def pullback(g, store):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            _accumulate(store, t, g[tuple(index)])

    return _finish(np.concatenate([t.data for t in tensors], axis=axis), tensors, pullback)


def sum_all(x: Tensor) -> Tensor:
    def pullback(g, store):
        _accumulate(store, x, np.full(x.shape, float(g), dtype=np.float64))

    return _finish(np.asarray(x.data.sum(), dtype=np.float64), (x,), pullback)


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
        _accumulate(store, x, grad)

    return _finish(out_data, (x,), pullback)


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
    out_data = xhat * gain.data + bias.data

    def pullback(g, store):
        axes = tuple(range(g.ndim - 1))
        _accumulate(store, gain, (g * xhat).sum(axis=axes) if axes else g * xhat)
        _accumulate(store, bias, g.sum(axis=axes) if axes else g)
        dxhat = g * gain.data
        mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
        mean_dxhat_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accumulate(store, x, inv * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat))

    return _finish(out_data, (x, gain, bias), pullback)


def avg_pool2d(x: Tensor, pool_h: int, pool_w: int) -> Tensor:
    """Non-overlapping average pool of a C x H x W tensor."""
    c, h, w = x.shape
    if h % pool_h or w % pool_w:
        raise ShapeError(f"pool {pool_h}x{pool_w} does not divide image {h}x{w}")
    oh, ow = h // pool_h, w // pool_w
    blocks = x.data.reshape(c, oh, pool_h, ow, pool_w)
    out_data = blocks.mean(axis=(2, 4))

    def pullback(g, store):
        spread = g[:, :, None, :, None] / (pool_h * pool_w)
        _accumulate(store, x, np.broadcast_to(spread, (c, oh, pool_h, ow, pool_w)).reshape(c, h, w))

    return _finish(out_data, (x,), pullback)


def rowwise_masked_softmax(logits: Tensor, mask: AttentionMask) -> Tensor:
    """Softmax normalized over unmasked entries only; masked entries are exactly 0.

    ``mask`` matches the trailing two axes of ``logits``; leading axes share
    it.  The row max is taken over unmasked entries only, so huge masked
    logits cannot underflow the live ones.  AttentionMask guarantees every
    row keeps at least one position.

    No ``-inf`` reaches ``np.exp``: numpy leaves its vectorized exp loop on
    non-finite input and runs about 10x slower.  Every cell is exponentiated
    at ``min(logit - max, 0)``, which only clamps masked cells (live cells
    sit at or below the live max), and the mask then zeroes the masked ones.
    Live cells therefore get the same bits as gating with ``-inf``.
    """
    if logits.shape[-2:] != mask.bits.shape:
        raise ShapeError(f"mask shape {mask.bits.shape} does not match logits {logits.shape}")
    out_data = logits.data + np.where(mask.bits, 0.0, -np.inf)
    row_max = out_data.max(axis=-1, keepdims=True)
    np.subtract(logits.data, row_max, out=out_data)
    np.minimum(out_data, 0.0, out=out_data)
    np.exp(out_data, out=out_data)
    out_data *= mask.bits
    out_data /= out_data.sum(axis=-1, keepdims=True)

    def pullback(g, store):
        grad = g * out_data
        dot = grad.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=grad)
        grad *= out_data
        _accumulate(store, logits, grad)

    return _finish(out_data, (logits,), pullback)
