"""Attention pruning: per-row top-K mask extraction and its layer schedule.

The mask over visual tokens starts all-ones and shrinks monotonically: at
each scheduled layer the head-averaged attention map elects, per row, the
K strongest of the currently kept columns.  K is a fraction of the row's
*current* support (K = max(1, round(keep_ratio * support))), so successive
updates keep cutting; the alternative fraction-of-N reading is available
as ``k_mode="total"`` for comparison.  A mask produced at layer u takes
effect from layer u+1 onward; layer u itself runs under the previous mask.

round() here is half-away-from-zero, because K is sensitive to rounding
at small N and Python's bankers rounding would be surprising.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError
from .masks import AttentionMask

K_MODES = ("support", "total")


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class PruneSchedule:
    """Which encoder layers update the mask, and how much each update keeps."""

    update_layers: tuple[int, ...] = (3, 6, 9)
    keep_ratio: float = 0.6
    k_mode: str = "support"

    def __post_init__(self):
        layers = self.update_layers
        if any(b <= a for a, b in zip(layers, layers[1:])) or (layers and layers[0] < 1):
            raise ConfigError(f"update layers must be strictly increasing and >= 1: {layers}")
        if not 0.0 < self.keep_ratio <= 1.0:
            raise ConfigError(f"keep ratio must be in (0, 1], got {self.keep_ratio}")
        if self.k_mode not in K_MODES:
            raise ConfigError(f"k_mode must be one of {K_MODES}, got {self.k_mode!r}")


@dataclass
class MaskState:
    """The visual-token mask of every stage so far, starting with the dense one.

    Masks are appended, never changed, so earlier stages stay readable.
    """

    masks: list

    @classmethod
    def dense(cls, n: int) -> "MaskState":
        return cls([AttentionMask.ones(n)])

    @property
    def current(self) -> AttentionMask:
        return self.masks[-1]

    @property
    def stage(self) -> int:
        return len(self.masks) - 1

    @property
    def history(self) -> list:
        """Row-support vector of each stage after the dense one."""
        return [m.row_support for m in self.masks[1:]]


def topk_row_mask(scores, prev: AttentionMask, schedule: PruneSchedule) -> AttentionMask:
    """Keep, per row, the K largest of ``scores`` inside the previous support.

    ``scores`` is an array of ``prev``'s shape; K follows ``schedule``'s
    keep ratio and K mode.  Ties break toward the lower column index.
    Every row keeps at least one column, and the result's support is always
    a subset of ``prev``'s.  Scores must be finite.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = prev.rows
    if scores.shape != (n, prev.cols):
        raise ConfigError(f"attention shape {scores.shape} does not match mask {n}x{prev.cols}")
    if not np.isfinite(scores).all():
        raise ConfigError("attention scores must be finite")
    support = prev.row_support
    basis = support if schedule.k_mode == "support" else prev.cols
    # round_half_up, elementwise: floor(x + 0.5) in float64.
    k = np.minimum(support, np.maximum(
        1, np.floor(schedule.keep_ratio * basis + 0.5).astype(np.int64)))
    # Dropped columns score -inf, so they rank last.  A row keeps every
    # column at or above its K-th largest score.  A row where that is more
    # than K (a tie at the K-th score) keeps every column above it, then
    # the lowest-index columns equal to it until K are kept.  Sorting the
    # values is several times cheaper than a stable argsort of the same rows.
    value = scores + prev.gate_bias()[1]
    kth = np.take_along_axis(np.sort(value, axis=1), (prev.cols - k)[:, None], axis=1)
    keep = value >= kth
    tied_rows = np.flatnonzero(keep.sum(axis=1) != k)
    if tied_rows.size:
        value, kth, k = value[tied_rows], kth[tied_rows], k[tied_rows]
        above = value > kth
        tied = value == kth
        room = k - above.sum(axis=1)
        keep[tied_rows] = above | (tied & (np.cumsum(tied, axis=1, dtype=np.int32)
                                           <= room[:, None]))
    return AttentionMask._trusted(keep.view(np.uint8))


def apply_prune_schedule(layer_index: int, head_average, state: MaskState,
                         schedule: PruneSchedule, keypoint_count: int = 0) -> bool:
    """Append the next stage's mask after encoder layer ``layer_index`` (1-indexed).

    On a scheduled layer ``head_average``, the layer's head-averaged
    attention array, restricted to the visual-by-visual block (keypoint
    rows/columns stripped off the front), elects the next mask.  The caller
    runs layer ``layer_index`` under the pre-existing mask and only later
    layers see the update.  Returns whether a mask was appended.
    """
    if layer_index not in schedule.update_layers:
        return False
    if head_average is None:
        raise ConfigError(
            f"layer {layer_index} is a scheduled update but no attention record was retained"
        )
    visual = head_average[keypoint_count:, keypoint_count:]
    state.masks.append(topk_row_mask(visual, state.current, schedule))
    return True


@dataclass
class SparsityStats:
    """Attention-stage sparsity accounting for one forward pass.

    ``mac_ratio`` is the predicted multiply-accumulate count of the two
    N x N attention products (QK^T and AV) across all encoder layers,
    relative to dense, which is also the layer-weighted mask density.
    """

    stages: int
    per_stage_density: list
    mac_ratio: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def sparsity_report(state: MaskState, config) -> SparsityStats:
    """Densities per stage and predicted attention MACs versus the dense baseline."""
    n = config.num_patches
    layers = config.encoder_layers
    schedule = config.schedule
    cell_count = float(n) * float(n)
    live_after_stage = [int(m.row_support.sum()) for m in state.masks]
    stage_density = [live / cell_count for live in live_after_stage[1:]]

    per_layer_live = []
    for layer in range(1, layers + 1):
        stage = min(sum(1 for u in schedule.update_layers if u < layer), state.stage)
        per_layer_live.append(live_after_stage[stage])

    dense_per_layer = 2 * n * n * config.embed_dim
    mac_dense = dense_per_layer * layers
    mac_masked = sum(2 * live * config.embed_dim for live in per_layer_live)
    return SparsityStats(
        stages=state.stage,
        per_stage_density=stage_density,
        mac_ratio=mac_masked / mac_dense,
    )
