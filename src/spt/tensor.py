"""Dense float64 tensors with taped reverse-mode differentiation.

A Tensor wraps a row-major numpy float64 array.  Operations executed while
a ComputationTape is active record one ``(node, pullback, leaves, keys)``
entry each: the node is a small identity object for the op's output, the
pullback closure keeps only what it reads (shapes, plus the arrays its
adjoint formula needs), so no record holds a forward output the backward
pass never reads, ``leaves`` lists the ``requires_grad`` leaves no earlier
record read, and ``keys`` holds each input's gradient key.  ``backward``
replays the tape in reverse, popping each record as it goes, sums each
adjoint into its key's entry of the gradient store, and hands every leaf
its adjoint once the first record that read it is replayed.  Tensors are
treated as immutable once produced by an operation; parameter updates
happen between tapes.

``pullback(g)`` returns one adjoint per input, in input order, or None for
an input that gets none; it never sees the gradient store.  It may return
``g``, or a view of it, for one input, and every other adjoint is memory
of its own: an array it computed, a copy (``add`` returns ``g.copy()`` for
its first operand), or a disjoint slice of ``g`` (``concat``).  So no two
entries of the store share memory, ``backward`` sums into an entry in
place, and a leaf receives its adjoint as its ``.grad``, copied only if it
is a view.

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

On a machine with more than one CPU, the large calls offer part of their
work to helper threads, each part large enough to pay for the hand-over.
``_each_thread`` is the one way onto them: a job is a queue of calls
``(fn, *args)`` that the calling thread and its helpers take from.  Only
this module makes jobs.  They are the row halves (``_by_rows``) of a 2-D
``matmul``, of ``mlp`` and of a large parameter's update, which
``model.AdamState.step`` hands to ``_by_rows``; the heads of
``multi_head_attention`` and of its pullback; and the pairs of the
``matmul`` and ``mlp`` pullbacks: a weight product beside the product the
next pullback reads.  The forward splits whether or not a tape is active.
A call writes arrays the calling thread reads once the job has returned,
and allocates its own temporaries; it never calls a taped op or touches a
tape, a ``.grad`` or the gradient store, so ``backward`` sums every adjoint
on the calling thread, in the serial order.  Every call makes the serial
numpy calls on the same operands, or on a row half that is elementwise or
whose product has the whole product's bits in the blocked BLAS kernel
(``_ROW_SPLIT_MIN``), so the bits do not depend on the CPU count.  Helpers
are offered work only while BLAS runs one thread of its own (``_cpus``),
as under ``OPENBLAS_NUM_THREADS=1``.  On a 2-vCPU x86 host the reference
forward then took 0.64 to 0.70 of its inline time with the second vCPU
idle, and 0.96 to 1.20 while another process kept it busy.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager

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


@functools.cache
def _blas_threads() -> int | None:
    """BLAS's own thread count, read once from numpy's bundled OpenBLAS.

    None when numpy exports no ``scipy_openblas_get_num_threads64_``: a
    build linked to another BLAS, or an older wheel.
    """
    try:
        from numpy._core import _multiarray_umath  # BLAS is a dependency of this module
        get = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def _cpus() -> int:
    """Threads that share one call's work: the calling thread plus the helpers.

    The CPUs this process may run on, when BLAS runs one thread of its own
    (``OPENBLAS_NUM_THREADS=1``); otherwise 1, so nothing is offered.  With
    BLAS threads on the same cores the helpers lose: on a 2-vCPU x86 host
    the reference ``train_step`` at batch 2 took a median 830 ms with them
    and 778 ms inline under OpenBLAS's default threads.  A numpy without the
    bundled OpenBLAS counts as multi-threaded, as every common BLAS is by
    default: its calls run inline.
    """
    if _blas_threads() != 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


_pool = None  # the helper threads, started on first use
_pool_lock = threading.Lock()
# A call of fewer multiply-adds stays on the calling thread: handing it to a
# helper and back costs about as much as it saves.
_TASK_MIN_WORK = 2 ** 22
# A softmax cell counts as this many multiply-adds in a forward head's work.
# It costs about 55 (a 272 x 272 tile in 0.27 ms, against 68 ps for each
# multiply-add of the head's products, single-threaded on a 2-vCPU AVX-512
# host), but counted so, the heads of a 272-token layer of head width 8
# would be offered: a 64x64-image, D = 32, 4-head forward then took 10.5 to
# 11.8 ms against 9.2 to 9.6 ms inline while the second vCPU was busy.
_SOFTMAX_CELL_WORK = 32
# A row half of fewer multiply-adds keeps its product whole.  OpenBLAS runs
# a product of up to 10**6 multiply-adds (on AVX-512 x86) through a
# small-matrix kernel, and a one-row product through gemv, and either can
# round a row differently from the blocked kernel that runs the whole; the
# blocked kernel's rows do not depend on the rows beside them.
_ROW_SPLIT_MIN = 2 ** 22


def _each_thread(work, calls) -> None:
    """``fn(*args)`` for each ``(fn, *args)`` of ``calls``, on the calling
    thread and up to one helper per further CPU and further call.

    Every thread takes calls from one queue until none is left, and a helper
    that has not started by then is taken back, so the calling thread never
    waits on a call no helper started: threads that train at once can share
    the helpers.  A helper is handed the queue itself, which is empty by the
    time the calling thread returns, so a submission taken back holds no
    array while it waits in the pool's queue.  Helpers are offered on more
    than one CPU when ``work``, one call's multiply-adds, reaches
    ``_TASK_MIN_WORK``.  A raise in any call
    empties the queue; once every started helper has returned, the calling
    thread's exception is raised, with a helper's as its cause, or else a
    helper's.
    """
    global _pool
    todo = deque(calls)
    cpus = _cpus()
    offers = min(cpus, len(todo)) - 1
    helpers = []
    if offers > 0 and work >= _TASK_MIN_WORK:
        with _pool_lock:
            if _pool is None:
                _pool = ThreadPoolExecutor(cpus - 1, thread_name_prefix="spt-helper")
            helpers = [_pool.submit(_drain, todo) for _ in range(offers)]
    try:
        _drain(todo)
    except BaseException as error:
        try:
            _join(helpers)
        except BaseException as helper_error:
            raise error from helper_error
        raise
    _join(helpers)


def _join(helpers) -> None:
    """Take back the helpers that have not started and wait for the others.
    Each exception raised has the one before as context."""
    with ExitStack() as waits:
        for helper in helpers:
            if not helper.cancel():  # it has started
                waits.callback(helper.result)


def _drain(todo) -> None:
    """``fn(*args)`` for calls ``(fn, *args)`` taken from ``todo`` until none is left."""
    while True:
        try:
            fn, *args = todo.popleft()
        except IndexError:  # every call is taken
            return
        try:
            fn(*args)
        except BaseException:
            todo.clear()  # no thread starts another call
            raise


def _by_rows(fn, row_products, *arrays) -> None:
    """``fn(*arrays)`` as two row halves, the two calls of an ``_each_thread`` job.

    Every array's first axis is the same rows, and ``fn`` writes each row
    of its outputs from the same row of its inputs.  ``row_products`` lists
    one row's multiply-adds in each product ``fn`` makes; an elementwise
    pass counts a row's elements at a fixed weight each, as
    ``_SOFTMAX_CELL_WORK`` counts softmax cells.  The call stays whole on
    one CPU, or when the second half has fewer than 2 rows, or fewer than
    ``_ROW_SPLIT_MIN`` multiply-adds in one of its products.  The first half
    takes an odd row.
    """
    n = len(arrays[0])
    half = n // 2
    if half < 2 or half * min(row_products) < _ROW_SPLIT_MIN or _cpus() < 2:
        fn(*arrays)
        return
    halves = (slice(0, n - half), slice(n - half, n))
    _each_thread(half * sum(row_products), [(fn, *(a[rows] for a in arrays)) for rows in halves])


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: start its own pool."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


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

    A record is ``(node, pullback, leaves, keys)``: the output's identity,
    a closure over only the arrays its adjoints read, the ``requires_grad``
    leaves the op is the first on this tape to read, each once, and the
    gradient key of each input, in the order of the pullback's adjoints.
    ``backward`` consumes the tape, popping each record as it replays it;
    ``len`` stays the number of ops recorded.  A tape is confined to one logical thread of
    execution; concurrent forwards use independent tapes or run grad-free.
    The helper threads that ops and pullbacks start never see a tape: they
    compute into arrays the calling thread hands them.
    """

    def __init__(self):
        self._records = []  # (node, pullback, leaves, keys), popped by backward
        self._read = set()  # leaves some record has read
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


def _finish(out_data, inputs, pullback):
    """Wrap an op result; record on the active tape when gradients can flow.

    ``inputs`` are the op's input tensors, in the order of the adjoints
    ``pullback(g)`` returns.  The record keeps their gradient keys and lists
    the ``requires_grad`` leaves among them that no earlier record of the
    tape read, each once.
    """
    if _tls.finite_checks and not np.isfinite(out_data).all():
        raise NonFiniteValueError("operation produced non-finite values")
    out = Tensor(out_data)
    stack = _tls.stack
    keys = tuple(map(_key, inputs)) if stack else ()
    if any(k is not None for k in keys):
        tape = stack[-1]
        out.requires_grad = True
        out._node = _Node()
        read = tape._read
        leaves = tuple(dict.fromkeys(k for k in keys if isinstance(k, Tensor) and k not in read))
        read.update(leaves)
        tape._records.append((out._node, pullback, leaves, keys))
        tape._recorded += 1
    return out


def _accumulate(store, key, grad):
    """Sum ``grad`` into ``key``'s entry of ``backward``'s store, the first
    one as the entry; a None key (an input that needs no gradient) drops it."""
    if key is None:
        return
    if key in store:
        store[key] += grad  # item assignment also rebinds a numpy scalar
    else:
        store[key] = grad


def _give(leaf: Tensor, grad) -> None:
    """Add a finished adjoint to ``leaf.grad`` without writing an earlier ``.grad``.

    The new ``.grad`` owns its data: a view (or a read-only numpy scalar) is
    copied first, and any earlier ``.grad`` is summed into it in place.
    """
    if not (grad.flags.owndata and grad.flags.writeable):
        grad = np.array(grad)
    if leaf.grad is not None:
        grad += leaf.grad  # the same bits as leaf.grad + grad
    leaf.grad = grad


def backward(loss: Tensor, tape: ComputationTape) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``.grad``.

    ``loss`` must be a scalar produced under ``tape``.  Gradients add to
    any earlier ``.grad``; set each leaf's ``.grad`` to None between steps.

    The tape is consumed: each record is popped as it is replayed, so its
    closure and the arrays it keeps are freed before the next one runs.
    Each adjoint a pullback returns is summed into its input's key, in
    input order; ``backward`` drops the adjoints that no input needs.
    Only leaves receive ``.grad``.  An output of another tape counts as an
    intermediate here, not as a leaf: its gradient is dropped.  A leaf's
    new ``.grad`` is its adjoint (a copy if that is a view), with any
    earlier ``.grad`` summed into it: no two leaves share a gradient array,
    and an earlier ``.grad`` array is never written.

    A leaf receives its ``.grad`` as soon as the first record that read it
    has been replayed (or skipped, when off the loss's path), and its
    adjoint then leaves the working store; a leaf no record reads (the
    loss itself) receives it at the end.  If a pullback raises, the leaves
    already finished keep their new ``.grad`` and every other leaf keeps
    the one it had.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    key = _key(loss)
    store = {} if key is None else {key: np.ones((), dtype=np.float64)}
    while tape._records:
        node, pullback, first_read, keys = tape._records.pop()
        g = store.pop(node, None)
        if g is not None:  # else not on a path to the loss
            for key, grad in zip(keys, pullback(g), strict=True):
                _accumulate(store, key, grad)
        for leaf in first_read:  # no record left on the tape reads it
            grad = store.pop(leaf, None)
            if grad is not None:
                _give(leaf, grad)
    for key, grad in store.items():
        if isinstance(key, Tensor):  # else an intermediate of another tape
            _give(key, grad)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; equal-rank stacked batches share leading extents.

    A 2-D product runs as two row halves at once (``_by_rows``).  Each
    side's adjoint is computed, and the other operand's array kept, only
    when that side needs a gradient; the pullback returns None for a side
    that does not.  When both do, ``g @ b_t`` and ``a_t @ g`` are the two
    calls of one ``_each_thread`` job.
    """
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.ndim != b.data.ndim:
        raise ShapeError(f"matmul needs equal-rank >=2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    a_shape, b_shape = a.shape, b.shape
    a_t = a.data.swapaxes(-1, -2) if b.requires_grad else None
    b_t = b.data.swapaxes(-1, -2) if a.requires_grad else None

    def pullback(g):
        if b_t is None:
            return None, a_t @ g
        if a_t is None:
            return g @ b_t, None
        ga, gb = np.empty(a_shape), np.empty(b_shape)
        _each_thread(gb.size * g.shape[-2], [(np.matmul, g, b_t, ga), (np.matmul, a_t, g, gb)])
        return ga, gb

    if a.data.ndim > 2:
        return _finish(a.data @ b.data, (a, b), pullback)
    b_data = b.data
    out = np.empty((a.shape[0], b.shape[1]))
    _by_rows(lambda rows, out_rows: np.matmul(rows, b_data, out=out_rows), (b_data.size,),
             a.data, out)
    return _finish(out, (a, b), pullback)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _finish(a.data + b.data, (a, b), lambda g: (g.copy(), g))  # b takes g itself


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    return _finish(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product; shapes must match exactly (no broadcasting).

    Each operand's array is kept, and the other side's adjoint computed,
    only when that side needs a gradient; the pullback returns None for a
    side that does not.
    """
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def pullback(g):
        return (None if b_data is None else g * b_data,
                None if a_data is None else g * a_data)

    return _finish(a.data * b.data, (a, b), pullback)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _finish(a.data * s, (a,), lambda g: (g * s,))


def add_scalar(a: Tensor, s: float) -> Tensor:
    return _finish(a.data + float(s), (a,), lambda g: (g,))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-D vector along the last axis of x."""
    if b.data.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias shape mismatch: {x.shape} + {b.shape}")
    # Summed over no axes (a 1-D x), g.sum is a copy of g.
    return _finish(x.data + b.data, (x, b), lambda g: (g, g.sum(axis=tuple(range(g.ndim - 1)))))


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    x_shape = x.shape
    return _finish(x.data.reshape(shape), (x,), lambda g: (g.reshape(x_shape),))


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(int(a) for a in axes)
    inverse = tuple(np.argsort(axes))
    return _finish(x.data.transpose(axes), (x,), lambda g: (g.transpose(inverse),))


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    if start < 0 or length < 0 or start + length > x.shape[axis]:
        raise ShapeError(f"narrow [{start}:{start + length}) exceeds axis {axis} of {x.shape}")
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    x_shape = x.shape

    def pullback(g):
        full = np.zeros(x_shape, dtype=np.float64)
        full[index] = g
        return (full,)

    return _finish(x.data[index].copy(), (x,), pullback)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    bounds = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return _finish(np.concatenate([t.data for t in tensors], axis=axis), tensors,
                   lambda g: np.split(g, bounds, axis=axis))


def sum_all(x: Tensor) -> Tensor:
    x_shape = x.shape
    return _finish(np.asarray(x.data.sum(), dtype=np.float64), (x,),
                   lambda g: (np.full(x_shape, float(g), dtype=np.float64),))


def _gelu_tanh(x: np.ndarray, out=None) -> np.ndarray:
    """``tanh(c (x + a x^3))``, the tanh of GELU at ``x``, into ``out``."""
    t = np.multiply(x, _GELU_A, out=out)
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


def _gelu_pullback(g: np.ndarray, x: np.ndarray, t: np.ndarray, out=None) -> np.ndarray:
    """Input adjoint of GELU at ``x`` (tanh ``t``) for output adjoint ``g``, into ``out``."""
    du = x * x
    du *= 3.0 * _GELU_A
    du += 1.0
    du *= _GELU_C
    grad = np.multiply(t, t, out=out)
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
    return _finish(_gelu_out(xd, t), (x,), lambda g: (_gelu_pullback(g, xd, t),))


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Feed-forward ``gelu(x @ w1 + b1) @ w2 + b2`` of (n, d) rows, as one taped op.

    The tape keeps ``x``, the pre-activation ``x @ w1 + b1`` and its GELU
    tanh; the pullback recomputes the GELU output for the ``w2`` gradient
    instead of keeping it.  Every product, bias sum and elementwise pass is
    the one the chain ``matmul``, ``add_bias``, ``gelu``, ``matmul``,
    ``add_bias`` makes, in the same operand orientation, so both give the
    same bits.  All five input adjoints are arrays the pullback computes,
    whether or not an input needs one (``backward`` drops the others):
    every ``mlp`` of the model has all five needing one.  The forward runs
    as two row halves at once (``_by_rows``), each with GELU temporaries of
    its own.  The pullback is two ``_each_thread`` jobs of two calls: the
    ``w2`` product beside the pre-activation adjoint, then the ``w1``
    product beside the ``x`` adjoint.
    """
    if (x.data.ndim != 2 or w1.data.ndim != 2 or w2.data.ndim != 2
            or x.shape[1] != w1.shape[0] or w2.shape[0] != w1.shape[1]
            or b1.shape != (w1.shape[1],) or b2.shape != (w2.shape[1],)):
        raise ShapeError(f"mlp shape mismatch: {x.shape} @ {w1.shape} + {b1.shape} "
                         f"@ {w2.shape} + {b2.shape}")
    x_data, w1_data, b1_data, w2_data, b2_data = (a.data for a in (x, w1, b1, w2, b2))

    def rows(x_rows, pre, t, out):
        np.matmul(x_rows, w1_data, out=pre)
        pre += b1_data
        _gelu_tanh(pre, out=t)
        np.matmul(_gelu_out(pre, t), w2_data, out=out)
        out += b2_data

    n, hidden = len(x_data), w1.shape[1]
    pre, t = np.empty((n, hidden)), np.empty((n, hidden))
    out_data = np.empty((n, w2.shape[1]))
    _by_rows(rows, (w1_data.size, w2_data.size), x_data, pre, t, out_data)

    def pullback(g):
        # Two jobs: a helper makes each weight product beside an input adjoint.
        dpre, gw2 = np.empty(pre.shape), np.empty(w2_data.shape)
        _each_thread(w2_data.size * len(g),
                     [(lambda: _gelu_pullback(g @ w2_data.T, pre, t, dpre),),
                      (np.matmul, _gelu_out(pre, t).T, g, gw2)])
        dx, gw1 = np.empty(x_data.shape), np.empty(w1_data.shape)
        _each_thread(w1_data.size * len(dpre),
                     [(np.matmul, dpre, w1_data.T, dx), (np.matmul, x_data.T, dpre, gw1)])
        return dx, gw1, dpre.sum(axis=0), gw2, g.sum(axis=0)

    return _finish(out_data, (x, w1, b1, w2, b2), pullback)


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

    def pullback(g):
        axes = tuple(range(g.ndim - 1))
        dxhat = g * gain_data
        mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
        mean_dxhat_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return (inv * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat),
                (g * xhat).sum(axis=axes), g.sum(axis=axes))

    return _finish(out_data, (x, gain, bias), pullback)


def avg_pool2d(x: Tensor, pool_h: int, pool_w: int) -> Tensor:
    """Non-overlapping average pool of a C x H x W tensor."""
    c, h, w = x.shape
    if h % pool_h or w % pool_w:
        raise ShapeError(f"pool {pool_h}x{pool_w} does not divide image {h}x{w}")
    oh, ow = h // pool_h, w // pool_w
    blocks = x.data.reshape(c, oh, pool_h, ow, pool_w)
    out_data = blocks.mean(axis=(2, 4))

    def pullback(g):
        full = np.empty((c, h, w))
        full.reshape(c, oh, pool_h, ow, pool_w)[...] = g[:, :, None, :, None] / (pool_h * pool_w)
        return (full,)

    return _finish(out_data, (x,), pullback)


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
    return _finish(out_data, (logits,), lambda g: (_softmax_pullback(g, out_data),))


def multi_head_attention(packed: Tensor, mask: AttentionMask, heads: int):
    """Masked multi-head attention from packed projections, one head at a time.

    ``packed`` is the (n, 3D) product ``x @ qkv_projection``: query, key
    and value blocks side by side, each D wide with one head_dim block per
    head.  An r x n ``mask`` (r <= n) makes the first r tokens the queries
    and serves every head.  Returns ``(context, probs)``: the taped (r, D)
    context, heads side by side, and the (heads, r, n) probabilities as a
    plain read-only array the tape does not keep.

    Head i reads column views of ``packed``, computes its logits into an
    (r, n) array of its own and writes its probabilities into its (r, n)
    tile of ``probs``, so both stay in cache from logits to context:
    ``q_i = packed[:r, Q_i] / sqrt(head_dim)``, ``logits = q_i k_iᵀ``, the
    masked softmax into the tile (``rowwise_masked_softmax``'s formula),
    then ``tile v_i`` into the head's context columns.  Each head is one
    call of an ``_each_thread`` job; a helper is offered when one head's two
    products plus its softmax, counted at ``_SOFTMAX_CELL_WORK`` per cell,
    reach ``_TASK_MIN_WORK``.

    The tape keeps only ``packed`` and ``mask``.  The pullback fills one
    fresh (n, 3D) gradient head by head, each head in a (3, r, n) stack of
    its own.  It first rebuilds P_i through the forward's ``_head_probs``,
    so P_i has the forward's bits.  Then dV_i = P_iᵀ g_i, dS is the softmax
    pullback of dP = g_i v_iᵀ, dQ_i = (dS k_i) / sqrt(head_dim) on the
    first r rows (the rest are zeroed, the only cells no head writes),
    dK_i = (q_iᵀ dS)ᵀ.  Each product is the BLAS call, in the same operand
    orientation, that the chain of ``scale``, ``matmul``,
    ``rowwise_masked_softmax`` and ``matmul`` makes, so both give the same
    bits; dK_i as dSᵀ q_i would be a different call.  The pullback's heads
    are the calls of one job, as the forward's, and a helper is offered
    when one head's five products reach ``_TASK_MIN_WORK``.  No two heads
    write the same columns of the gradient.
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
    if not mask.all_ones:
        mask.gate_bias()  # fill the mask's cache before threads read it
    probs, context = np.empty((heads, r, n)), np.empty((r, d))
    # work: one head's two products, plus its softmax counted per cell.
    _each_thread(r * n * (2 * head_dim + _SOFTMAX_CELL_WORK),
                 [(_attention_forward_head, tile, head, data, mask, s, context)
                  for tile, head in zip(probs, columns)])
    probs.flags.writeable = False

    def pullback(g):
        grad = np.empty(data.shape)
        grad[r:, :d] = 0.0
        # work: the multiply-adds of one head's five products.
        _each_thread(5 * r * n * head_dim,
                     [(_attention_head_grad, head, data, g, mask, s, grad) for head in columns])
        return (grad,)

    return _finish(context, (packed,), pullback), probs


def _head_probs(tile, head, data, mask, s, logits):
    """Write one head's probabilities into ``tile``, its logits ``q_i k_iᵀ``
    computed in the (r, n) array ``logits``, and return its scaled queries
    ``q_i``; ``head`` is the head's query, key and value columns."""
    q, k, _ = head
    q_i = data[:mask.rows, q] * s
    np.matmul(q_i, data[:, k].T, out=logits)
    _softmax_rows(logits, mask, tile)
    return q_i


def _attention_forward_head(tile, head, data, mask, s, context):
    """Write one head's probability tile and context columns.

    A call of ``multi_head_attention``'s forward job: ``tile`` is the head's
    (r, n) slice of the probabilities, ``head`` its columns.
    """
    q, _, v = head
    _head_probs(tile, head, data, mask, s, np.empty(tile.shape))
    np.matmul(tile, data[:, v], out=context[:, q])


def _attention_head_grad(head, data, g, mask, s, grad):
    """Write one head's packed-gradient columns into ``grad``.

    A call of ``multi_head_attention``'s pullback job: ``head`` is the
    head's query, key and value columns.
    """
    r, (q, k, v) = mask.rows, head
    tile, dp, ds = np.empty((3, r, len(data)))
    q_i = _head_probs(tile, head, data, mask, s, ds)  # ds holds the logits until dS
    g_i = g[:, q]
    np.matmul(tile.T, g_i, out=grad[:, v])
    np.matmul(g_i, data[:, v].T, out=dp)
    _softmax_pullback(dp, tile, out=ds)
    np.matmul(ds, data[:, k], out=grad[:r, q])
    grad[:r, q] *= s
    grad[:, k] = np.matmul(q_i.T, ds).T
