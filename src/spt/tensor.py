"""Dense float64 tensors with taped reverse-mode differentiation.

A Tensor wraps a row-major numpy float64 array.  Operations executed while
a ComputationTape is active record one ``(node, pullback, leaves)`` entry
each; the node is a small identity object for the op's output, the
pullback closure keeps only what it reads (keys and shapes, plus the
arrays its adjoint formula needs), so no record holds a forward output the
backward pass never reads, and ``leaves`` lists the ``requires_grad``
leaves the op read.  ``backward`` replays the tape in reverse, popping
each record as it goes, and hands every leaf its adjoint as soon as the
last record that reads the leaf has been replayed.  Tensors are treated as
immutable once produced by an operation; parameter updates happen between
tapes.

Adjoints are owned or borrowed.  ``matmul``, ``mlp`` and
``multi_head_attention`` hand over the fresh arrays they compute as owned:
later adjoints are summed into them in place, and a leaf receives one as
its ``.grad`` without a copy.  Every other pullback lends its adjoint,
often the upstream gradient or a view of it (``add``, ``concat``,
``reshape``); a borrowed array is never written, and a leaf receives a
copy.

Everything is 64-bit and broadcasting is restricted to scalar-with-tensor
(plus the dedicated last-axis bias op), which keeps every adjoint auditable
by hand.  Two ops are fused.  ``multi_head_attention`` is the whole
per-head attention chain between the QKV and output projections, run one
head at a time so each head's score tile stays in cache; its masked
softmax exponentiates each row's logits unshifted unless the row's own
values call for the max-shifted formula (``rowwise_masked_softmax``).
Its pullback recomputes each head's probabilities instead of keeping the
(heads, r, n) stack on the tape.  ``mlp`` is the feed-forward
``matmul``, ``add_bias``, ``gelu``, ``matmul``, ``add_bias`` chain, which
recomputes its GELU output in the pullback instead of keeping it on the
tape.  Both give the bits of the chains they replace.

On a machine with more than one CPU, ``backward`` offers work that the
replaying thread's next call does not read, and that is large enough to pay
for the hand-over, to helper threads (``_Task``): the second product of a ``matmul`` pullback, the two weight products of the
``mlp`` pullback, and the heads of the ``multi_head_attention`` pullback,
which the replaying thread and the helpers take one at a time;
``model.AdamState.step`` offers half of each large parameter's update.  A
helper makes plain numpy calls into arrays the replaying thread allocated,
and the replaying thread waits for them before it reads them, or makes the
call itself if no helper has started it yet.  A helper never touches a
tape, a ``.grad`` or the gradient store: the replaying thread makes every
``_accumulate`` call, in the serial order, and every task makes the serial
numpy call on the same operands, so the bits do not depend on the CPU
count.  The forward stays on the calling thread.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
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

# A softmax row is exponentiated unshifted when none of its logits exceeds
# _EXP_SAFE (so no exp, and no row sum of up to 2**285 cells, overflows)
# and its gated sum is at least _ROW_SUM_FLOOR (so its largest term is a
# normal float); any other row is redone shifted by its live max.
_EXP_SAFE = 512.0
_ROW_SUM_FLOOR = 2.0 ** -600

_LAYER_NORM_EPS = 1e-5  # added to the variance before the square root


def _cpus() -> int:
    """CPUs this process may run on: the helper threads plus the calling one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


_pool = None  # the helper threads, started on first use
_pool_lock = threading.Lock()
# A call of fewer multiply-adds stays on the calling thread: handing it to a
# helper and back costs about as much as it saves.
_TASK_MIN_WORK = 2 ** 22


class _Task:
    """``fn(*args)`` offered to a helper thread; ``fn`` writes into an array among ``args``.

    ``wait()`` returns once it has run: on a helper if one has started it,
    else here and now, so a helper that wakes late costs the caller no more
    than the serial call.  No helper is asked on one CPU, or when ``work``,
    the call's multiply-adds if given, is below ``_TASK_MIN_WORK``.  A
    helper's exception re-raises from ``wait()``.  A task never waits on
    another, so threads that train at once can share the helpers.
    """

    __slots__ = ("fn", "args", "future")

    def __init__(self, fn, *args, work=None):
        global _pool
        self.fn, self.args, self.future = fn, args, None
        if _cpus() < 2 or (work is not None and work < _TASK_MIN_WORK):
            return
        with _pool_lock:
            if _pool is None:
                _pool = ThreadPoolExecutor(_cpus() - 1, thread_name_prefix="spt-helper")
            self.future = _pool.submit(fn, *args)

    def wait(self) -> None:
        if self.future is None or self.future.cancel():  # no helper has started it
            self.fn(*self.args)
        else:
            self.future.result()


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: start its own pool."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def finite_checks_enabled() -> bool:
    """This thread's NaN/Inf guard setting."""
    return _tls.finite_checks


@contextmanager
def finite_checks(enabled: bool):
    """Set this thread's per-op NaN/Inf guard for the block, then restore it."""
    previous = _tls.finite_checks
    _tls.finite_checks = bool(enabled)
    try:
        yield
    finally:
        _tls.finite_checks = previous


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

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class ComputationTape:
    """Ordered record of primitive ops, replayed in reverse by backward().

    A record is ``(node, pullback, leaves)``: the output's identity, a
    closure over only the arrays its adjoint reads, and the ``requires_grad``
    leaves the op read, once per read.  ``backward`` consumes the tape,
    popping each record as it replays it; ``len`` stays the number of ops
    recorded.  A tape is confined to one logical thread of execution;
    concurrent forwards use independent tapes or run grad-free (no tape
    active).  The helper threads that ``backward``'s pullbacks start never
    see a tape: they compute into arrays the replaying thread hands them.
    """

    def __init__(self):
        self._records = []  # (node, pullback, leaves), popped by backward
        self._readers = {}  # leaf -> records that read it, counted down by backward
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
    """Wrap an op result; record on the active tape when gradients can flow.

    The record lists the ``requires_grad`` leaves among ``keys``, once per
    read, and the tape counts the records that read each leaf.
    """
    if _tls.finite_checks and not np.isfinite(out_data).all():
        raise NonFiniteValueError("operation produced non-finite values")
    out = Tensor(out_data)
    stack = _tls.stack
    if stack and any(k is not None for k in keys):
        tape = stack[-1]
        out.requires_grad = True
        out._node = _Node()
        leaves = tuple(k for k in keys if isinstance(k, Tensor))
        readers = tape._readers
        for leaf in leaves:
            readers[leaf] = readers.get(leaf, 0) + 1
        tape._records.append((out._node, pullback, leaves))
        tape._recorded += 1
    return out


def _accumulate(store, key, grad, owned: bool = False):
    # An entry is [array, owned].  A borrowed array is never written: the
    # first further accumulation replaces it with a fresh sum, which the
    # entry then owns.  ``owned=True`` promises ``grad`` was computed for
    # this call alone, so it is summed into in place and may become a
    # leaf's ``.grad`` as it is.
    if key is None:
        return
    entry = store.get(key)
    if entry is None:
        store[key] = [grad, owned]
    elif entry[1]:
        entry[0] += grad
    else:
        entry[0] = entry[0] + grad
        entry[1] = True


def _give(leaf: Tensor, grad: np.ndarray, owned: bool) -> None:
    """Add a finished adjoint to ``leaf.grad`` without writing an earlier ``.grad``."""
    if leaf.grad is None:
        leaf.grad = grad if owned else np.array(grad, dtype=np.float64)
    elif owned:
        grad += leaf.grad  # the same bits as leaf.grad + grad
        leaf.grad = grad
    else:
        leaf.grad = leaf.grad + grad


def backward(loss: Tensor, tape: ComputationTape) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``.grad``.

    ``loss`` must be a scalar produced under ``tape``.  Gradients add to
    any earlier ``.grad``; set each leaf's ``.grad`` to None between steps.

    The tape is consumed: each record is popped as it is replayed, so its
    closure and the arrays it keeps are freed before the next one runs.
    Only leaves receive ``.grad``.  An output of another tape counts as an
    intermediate here, not as a leaf: its gradient is dropped.  A leaf's
    new ``.grad`` is its owned adjoint itself (plus any earlier ``.grad``),
    or a fresh copy or sum of a borrowed one: no two leaves share a
    gradient array, and an earlier ``.grad`` array is never written.

    A leaf receives its ``.grad`` as soon as the last record that reads it
    has been replayed (or skipped, when off the loss's path), and its
    adjoint then leaves the working store; a leaf no record reads (the
    loss itself) receives it at the end.  If a pullback raises, the leaves
    already finished keep their new ``.grad`` and every other leaf keeps
    the one it had.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    key = _key(loss)
    store = {} if key is None else {key: [np.ones((), dtype=np.float64), True]}
    records, readers = tape._records, tape._readers
    while records:
        node, pullback, leaves = records.pop()
        entry = store.pop(node, None)
        if entry is not None:  # else not on a path to the loss
            pullback(entry[0], store)
        for leaf in leaves:
            readers[leaf] -= 1
            if not readers[leaf]:
                del readers[leaf]
                entry = store.pop(leaf, None)
                if entry is not None:
                    _give(leaf, *entry)
    for key, (grad, owned) in store.items():
        if isinstance(key, Tensor):  # else an intermediate of another tape
            _give(key, grad, owned)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; equal-rank stacked batches share leading extents.

    Each side's gradient is computed, and the other operand's array kept,
    only when that side needs a gradient.  When both do, the pullback runs
    ``a_t @ g`` on a helper thread while it computes ``g @ b_t``.
    """
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.ndim != b.data.ndim:
        raise ShapeError(f"matmul needs equal-rank >=2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    ka, kb, b_shape = _key(a), _key(b), b.shape
    a_t = a.data.swapaxes(-1, -2) if kb is not None else None
    b_t = b.data.swapaxes(-1, -2) if ka is not None else None

    def pullback(g, store):
        if ka is None:
            _accumulate(store, kb, a_t @ g, owned=True)
        elif kb is None:
            _accumulate(store, ka, g @ b_t, owned=True)
        else:
            gb = np.empty(b_shape)
            task = _Task(np.matmul, a_t, g, gb, work=gb.size * g.shape[-2])
            _accumulate(store, ka, g @ b_t, owned=True)
            task.wait()
            _accumulate(store, kb, gb, owned=True)

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


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """``tanh(c (x + a x^3))``, the tanh of GELU at ``x``."""
    t = x * _GELU_A
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    return t


def _gelu_out(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """GELU at ``x`` from its tanh ``t``: ``0.5 x (1 + t)``."""
    out = 0.5 * x
    out *= 1.0 + t
    return out


def _gelu_pullback(g: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Input adjoint of GELU at ``x`` (tanh ``t``) for the output adjoint ``g``."""
    du = x * x
    du *= 3.0 * _GELU_A
    du += 1.0
    du *= _GELU_C
    grad = t * t
    np.subtract(1.0, grad, out=grad)
    grad *= 0.5 * x
    grad *= du
    grad += 0.5 * (1.0 + t)
    grad *= g
    return grad


def gelu(x: Tensor) -> Tensor:
    """Tanh-form GELU: 0.5 x (1 + tanh(c (x + a x^3))).

    Powers are written as products: ``x**3`` runs ``np.power``, about 60x
    slower than ``x * x * x``.  The pullback keeps only ``x`` and ``t`` and
    recomputes ``x * x``.
    """
    xd = x.data
    t = _gelu_tanh(xd)
    kx = _key(x)

    def pullback(g, store):
        _accumulate(store, kx, _gelu_pullback(g, xd, t))

    return _finish(_gelu_out(xd, t), (kx,), pullback)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Feed-forward ``gelu(x @ w1 + b1) @ w2 + b2`` of (n, d) rows, as one taped op.

    The tape keeps ``x``, the pre-activation ``x @ w1 + b1`` and its GELU
    tanh; the pullback recomputes the GELU output for the ``w2`` gradient
    instead of keeping it.  Every product, bias sum and elementwise pass is
    the one the chain ``matmul``, ``add_bias``, ``gelu``, ``matmul``,
    ``add_bias`` makes, in the same operand orientation, so both give the
    same bits.  All five input adjoints are fresh and handed over owned.
    The pullback runs the ``w2`` product on a helper thread while it
    computes the pre-activation adjoint, and the ``w1`` product while it
    computes the ``x`` adjoint.
    """
    if (x.data.ndim != 2 or w1.data.ndim != 2 or w2.data.ndim != 2
            or x.shape[1] != w1.shape[0] or w2.shape[0] != w1.shape[1]
            or b1.shape != (w1.shape[1],) or b2.shape != (w2.shape[1],)):
        raise ShapeError(f"mlp shape mismatch: {x.shape} @ {w1.shape} + {b1.shape} "
                         f"@ {w2.shape} + {b2.shape}")
    kx, kw1, kb1, kw2, kb2 = keys = tuple(_key(a) for a in (x, w1, b1, w2, b2))
    pre = x.data @ w1.data
    pre += b1.data
    t = _gelu_tanh(pre)
    out_data = _gelu_out(pre, t) @ w2.data
    out_data += b2.data
    needs_dpre = kx is not None or kw1 is not None or kb1 is not None
    x_t = x.data.T if kw1 is not None else None
    w1_t = w1.data.T if kx is not None else None
    w2_t = w2.data.T if needs_dpre else None
    w1_shape, w2_shape = w1.shape, w2.shape

    def pullback(g, store):
        if kb2 is not None:
            _accumulate(store, kb2, g.sum(axis=0), owned=True)
        if kw2 is not None:
            gw2 = np.empty(w2_shape)
            task = _Task(np.matmul, _gelu_out(pre, t).T, g, gw2, work=gw2.size * len(g))
        if needs_dpre:
            dpre = _gelu_pullback(g @ w2_t, pre, t)
        if kw2 is not None:
            task.wait()
            _accumulate(store, kw2, gw2, owned=True)
        if not needs_dpre:
            return
        if kb1 is not None:
            _accumulate(store, kb1, dpre.sum(axis=0), owned=True)
        if kw1 is not None:
            gw1 = np.empty(w1_shape)
            task = _Task(np.matmul, x_t, dpre, gw1, work=gw1.size * len(dpre))
        if kx is not None:
            _accumulate(store, kx, dpre @ w1_t, owned=True)
        if kw1 is not None:
            task.wait()
            _accumulate(store, kw1, gw1, owned=True)

    return _finish(out_data, keys, pullback)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match D={d}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LAYER_NORM_EPS)
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


def _softmax_rows(logits: np.ndarray, mask: AttentionMask, out: np.ndarray) -> np.ndarray:
    """Write the masked softmax of ``logits`` along the last axis into ``out``.

    ``out`` is a fresh C-contiguous array shaped like ``logits``.  See
    ``rowwise_masked_softmax`` for the formula.
    """
    gate, bias = (None, None) if mask.all_ones else mask.gate_bias()
    if logits.max() > _EXP_SAFE:  # a whole-tile max is 3x cheaper than row maxima
        hot = logits.max(axis=-1) > _EXP_SAFE
        # Clamping leaves the other rows' logits as they are and keeps exp
        # from overflowing on the hot rows, which are redone below.
        np.exp(np.minimum(logits, _EXP_SAFE, out=out), out=out)
    else:
        hot = False
        np.exp(logits, out=out)
    if gate is not None:
        out *= gate
    sums = out.sum(axis=-1)
    redo = np.flatnonzero(hot | (sums < _ROW_SUM_FLOOR))
    if redo.size:
        n = mask.cols
        rows = redo % mask.rows
        picked = logits.reshape(-1, n)[redo]
        live = picked if bias is None else picked + bias[rows]
        shifted = np.minimum(picked - live.max(axis=-1, keepdims=True), 0.0)
        e = np.exp(shifted, out=shifted)
        if gate is not None:
            e *= gate[rows]
        out.reshape(-1, n)[redo] = e
        sums.reshape(-1)[redo] = e.sum(axis=-1)
    out /= sums[..., None]
    return out


def _softmax_pullback(g: np.ndarray, probs: np.ndarray, out=None) -> np.ndarray:
    """Logit adjoint ``(g - rowsum(g * probs)) * probs`` of a softmax, into ``out``."""
    grad = np.multiply(g, probs, out=out)
    dot = grad.sum(axis=-1, keepdims=True)
    np.subtract(g, dot, out=grad)
    grad *= probs
    return grad


def rowwise_masked_softmax(logits: Tensor, mask: AttentionMask) -> Tensor:
    """Softmax normalized over unmasked entries only; masked entries are exactly 0.

    ``mask`` matches the trailing two axes of ``logits``; leading axes share
    it.  AttentionMask guarantees every row keeps at least one position.

    A row is exponentiated unshifted: ``exp(logit)``, times the mask's
    cached float ``gate`` (``AttentionMask.gate_bias``; no gating pass on
    an all-ones mask), divided by its row sum.  That holds for every row
    whose logits, masked ones included, are all at most ``_EXP_SAFE`` and
    whose gated sum is at least ``_ROW_SUM_FLOOR``.  Any other row is
    redone shifted by its live max, taken over unmasked entries only so
    huge masked logits cannot underflow the live ones: every cell is
    exponentiated at ``min(logit - max, 0)``, which only clamps masked
    cells, then gated and divided by the row sum.  The choice is made from
    each row's own values, so a row gets the same bits in any stack or
    tile, and no exp overflows or meets ``-inf``.  ``np.exp`` leaves its
    vectorized loop on inputs below about -708 (a (272, 272) tile of such
    inputs ran 16x to 100x slower): the unshifted formula meets them at
    logits below -708, the shifted one at logits more than 708 below
    their row's max.
    """
    if logits.shape[-2:] != mask.bits.shape:
        raise ShapeError(f"mask shape {mask.bits.shape} does not match logits {logits.shape}")
    out_data = _softmax_rows(logits.data, mask, np.empty(logits.shape))
    kl = _key(logits)

    def pullback(g, store):
        _accumulate(store, kl, _softmax_pullback(g, out_data))

    return _finish(out_data, (kl,), pullback)


def multi_head_attention(packed: Tensor, mask: AttentionMask, heads: int):
    """Masked multi-head attention from packed projections, one head at a time.

    ``packed`` is the (n, 3D) product ``x @ qkv_projection``: query, key
    and value blocks side by side, each D wide with one head_dim block per
    head.  An r x n ``mask`` (r <= n) makes the first r tokens the queries
    and serves every head.  Returns ``(context, probs)``: the taped (r, D)
    context, heads side by side, and the (heads, r, n) probabilities as a
    plain read-only array the tape does not keep.

    Head i reads column views of ``packed``, computes its logits into one
    (r, n) scratch array the call reuses for every head, and writes its
    probabilities into its own (r, n) tile of ``probs``, so both stay in
    cache from logits to context: ``q_i = packed[:r, Q_i] /
    sqrt(head_dim)``, ``logits = q_i k_iᵀ``, the masked softmax into the
    tile (``rowwise_masked_softmax``'s formula), then ``tile v_i`` into the
    head's context columns.

    The tape keeps only ``packed`` and ``mask``.  The pullback fills one
    owned (n, 3D) gradient head by head.  It first rebuilds P_i with the
    forward's own calls, ``q_i k_iᵀ`` and the masked softmax (shifted
    redo included), into an (r, n) tile it reuses for the next head, so P_i
    has the forward's bits.  Then dV_i = P_iᵀ g_i, dS is the softmax
    pullback of dP = g_i v_iᵀ, dQ_i = (dS k_i) / sqrt(head_dim) on the
    first r rows (the rest are zeroed, the only cells no head writes),
    dK_i = (q_iᵀ dS)ᵀ.  Each product is the BLAS call, in the same operand
    orientation, that the chain of ``scale``, ``matmul``,
    ``rowwise_masked_softmax`` and ``matmul`` makes, so both give the same
    bits; dK_i as dSᵀ q_i would be a different call.  The replaying thread
    and up to one helper per further CPU take heads from a shared queue,
    each with tiles of its own; each helper is a ``_Task`` sized by one
    head's products, so ``_Task`` alone decides whether it is offered.  No
    two heads write the same columns of the gradient.
    """
    data = packed.data
    if data.ndim != 2 or heads < 1 or data.shape[1] % (3 * heads):
        raise ShapeError(f"packed projections {packed.shape} do not split into 3 x {heads} heads")
    n, d = data.shape[0], data.shape[1] // 3
    r = mask.rows
    if mask.cols != n or r > n:
        raise ShapeError(f"mask shape {mask.bits.shape} does not match {n} tokens")
    head_dim = d // heads
    s = 1.0 / math.sqrt(head_dim)
    columns = [(slice(lo, lo + head_dim), slice(d + lo, d + lo + head_dim),
                slice(2 * d + lo, 2 * d + lo + head_dim)) for lo in range(0, d, head_dim)]
    probs = np.empty((heads, r, n))
    context = np.empty((r, d))
    logits = np.empty((r, n))
    for tile, (q, k, v) in zip(probs, columns):
        np.matmul(data[:r, q] * s, data[:, k].T, out=logits)
        _softmax_rows(logits, mask, tile)
        np.matmul(tile, data[:, v], out=context[:, q])
    probs.flags.writeable = False
    kp = _key(packed)

    def pullback(g, store):
        grad = np.empty(data.shape)
        grad[r:, :d] = 0.0
        if not mask.all_ones:
            mask.gate_bias()  # fill the mask's cache before threads read it
        todo = deque(columns)
        tiles = np.empty((min(_cpus(), heads), 3, r, n))
        # work: the multiply-adds of one head's five products.
        tasks = [_Task(_attention_heads, data, g, mask, s, todo, own, grad,
                       work=5 * r * n * head_dim) for own in tiles[1:]]
        _attention_heads(data, g, mask, s, todo, tiles[0], grad)
        for task in tasks:
            task.wait()
        _accumulate(store, kp, grad, owned=True)

    return _finish(context, (kp,), pullback), probs


def _attention_heads(data, g, mask, s, todo, tiles, grad):
    """Write the packed-gradient columns of heads taken from ``todo`` into ``grad``.

    The body of ``multi_head_attention``'s pullback.  Each thread that runs
    it takes heads from the shared deque until none is left, with its own
    (3, r, n) scratch ``tiles``.
    """
    r = mask.rows
    tile, dp, ds = tiles
    while True:
        try:
            q, k, v = todo.popleft()
        except IndexError:  # every head is taken
            return
        q_i = data[:r, q] * s
        np.matmul(q_i, data[:, k].T, out=ds)  # ds holds the logits until dS
        _softmax_rows(ds, mask, tile)
        g_i = g[:, q]
        np.matmul(tile.T, g_i, out=grad[:, v])
        np.matmul(g_i, data[:, v].T, out=dp)
        _softmax_pullback(dp, tile, out=ds)
        np.matmul(ds, data[:, k], out=grad[:r, q])
        grad[:r, q] *= s
        grad[:, k] = np.matmul(q_i.T, ds).T
