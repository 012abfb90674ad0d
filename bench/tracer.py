"""Spans recorded around calls into ``spt``, and the per-layer numbers made from them.

The traced run installs timing wrappers over public functions.  Each
wrapper replaces the attribute that the caller looks up at call time:
``forward`` calls ``spt.model.encoder_block``, ``evaluate_model`` calls
``spt.evaluation.forward``, every op is looked up as ``spt.tensor.<op>``,
and the benchmark itself calls ``spt.model.load_checkpoint`` and friends
through their modules.  Nothing inside ``spt`` changes.

A span is ``[name, start, end, parent, value]``; ``value`` is an optional
count or summary (output bytes, tape length, kept cells) measured after the span
closed, so it costs no span time.  Spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its children;
calls are sequential, so children never overlap and the subtraction is exact.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, VALUE = range(5)

# Output-producing primitives of spt.tensor, grouped as the per-layer metrics report them.
TENSOR_OPS = {
    "matmul": "matmul", "add": "add", "add_bias": "add_bias", "scale": "scale",
    "gelu": "gelu", "layer_norm": "layer_norm",
    "rowwise_masked_softmax": "rowwise_masked_softmax",
    "reshape": "shape_ops", "transpose": "shape_ops", "narrow": "shape_ops",
    "concat": "shape_ops",
    "sub": "other", "mul": "other", "add_scalar": "other", "sum_all": "other",
    "avg_pool2d": "other",
}


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    def begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        span = [name, 0.0, 0.0, parent, None]
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span[START] = self.clock()
        return span

    def end(self, span: list) -> None:
        span[END] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        record = self.begin(name)
        try:
            yield record
        finally:
            self.end(record)


def _timed(tracer, name, fn, measure=None):
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if measure is not None:
            span[VALUE] = measure(args, out)
        return out
    return wrapper


def _out_bytes(args, out):
    return out.data.nbytes


def _forward_summary(args, out):
    _, diagnostics = out
    return {"kept": [int(h.sum()) for h in diagnostics.mask_state.history],
            "mac_ratio": diagnostics.sparsity.mac_ratio}


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer, spt, joint_count: int, stage_bounds) -> Patches:
    """Wrap every traced entry point; returns the patches to undo afterwards.

    ``stage_bounds`` are the encoder layers after which the pruned
    workload's mask changes; encoder layers are grouped into stages by them
    on every workload, so the dense and pruned stage times compare layer
    for layer.
    """
    patches = Patches()

    def wrap(owner, attr, name, measure=None):
        patches.set(owner, attr, _timed(tracer, name, getattr(owner, attr), measure))

    for op, group in TENSOR_OPS.items():
        wrap(spt.tensor, op, f"tensor.{op}:{group}", _out_bytes)
    wrap(spt.tensor, "backward", "tensor.backward", lambda args, out: len(args[1]))

    encoder_calls = [0]
    block = spt.model.encoder_block

    def encoder_block(x, *args, **kwargs):
        if x.shape[0] == joint_count:
            name = "attention.graph_block"
        else:
            encoder_calls[0] += 1
            stage = sum(1 for u in stage_bounds if u < encoder_calls[0])
            name = f"attention.encoder_block.stage{stage}"
        span = tracer.begin(name)
        try:
            return block(x, *args, **kwargs)
        finally:
            tracer.end(span)

    patches.set(spt.model, "encoder_block", encoder_block)

    def traced_forward(inner):
        def forward(*args, **kwargs):
            encoder_calls[0] = 0
            return inner(*args, **kwargs)
        return _timed(tracer, "model.forward", forward, _forward_summary)

    for owner in (spt.model, spt.evaluation):
        patches.set(owner, "forward", traced_forward(owner.forward))

    wrap(spt.attention, "masked_self_attention", "attention.masked_self_attention")
    wrap(spt.attention, "project_qkv", "attention.project_qkv")
    wrap(spt.model, "apply_prune_schedule", "pruning.apply_prune_schedule")
    wrap(spt.pruning, "topk_row_mask", "pruning.topk_row_mask")
    wrap(spt.model, "patchify_embed", "model.patchify_embed")
    wrap(spt.model, "full_token_mask", "model.full_token_mask")
    wrap(spt.model, "loss_mse", "model.loss_mse")
    wrap(spt.model.AdamState, "step", "model.adam_step")
    wrap(spt.model, "train_step", "model.train_step")
    wrap(spt.model, "save_checkpoint", "model.save_checkpoint")
    wrap(spt.model, "load_checkpoint", "model.load_checkpoint")
    wrap(spt.model, "load_tensor", "formats.load_tensor", lambda args, out: out.nbytes)
    wrap(spt.evaluation, "evaluate_model", "evaluation.evaluate_model")
    wrap(spt.evaluation, "decode_heatmaps", "evaluation.decode_heatmaps")
    wrap(spt.evaluation, "pckh", "evaluation.pckh")
    wrap(spt.data, "generate_synthetic", "data.generate_synthetic")
    wrap(spt.data, "render_target_heatmaps", "data.render_target_heatmaps")
    wrap(spt.skeleton, "compile_joint_mask", "skeleton.compile_joint_mask")
    return patches


# ---------------------------------------------------------------------------
# Self time and per-root sums
# ---------------------------------------------------------------------------


def self_times(spans) -> list:
    """Duration minus the durations of direct children, per span."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def roots_of(spans) -> list:
    """Index of each span's outermost ancestor."""
    root = []
    for i, s in enumerate(spans):
        root.append(i if s[PARENT] < 0 else root[s[PARENT]])
    return root


def nesting_errors(spans) -> int:
    """Spans not inside their parent, or overlapping an earlier sibling."""
    errors = 0
    last_child_end = {}
    for s in spans:
        if s[END] < s[START]:
            errors += 1
        p = s[PARENT]
        if p < 0:
            continue
        parent = spans[p]
        if s[START] < parent[START] or s[END] > parent[END]:
            errors += 1
        if s[START] < last_child_end.get(p, float("-inf")):
            errors += 1
        last_child_end[p] = s[END]
    return errors


def totals_by_root(spans, root_name: str):
    """For each root span called ``root_name``: {name: [self_s, total_s, calls, value_sum]}."""
    own = self_times(spans)
    root = roots_of(spans)
    per_root = {i: defaultdict(lambda: [0.0, 0.0, 0, 0])
                for i, s in enumerate(spans) if s[PARENT] < 0 and s[NAME] == root_name}
    for i, s in enumerate(spans):
        acc = per_root.get(root[i])
        if acc is None:
            continue
        entry = acc[s[NAME]]
        entry[0] += own[i]
        entry[1] += s[END] - s[START]
        entry[2] += 1
        if isinstance(s[VALUE], (int, float)):
            entry[3] += s[VALUE]
    return per_root
