"""Attention pruning: per-row top-K mask extraction and its layer schedule.

The mask over visual tokens starts all-ones and shrinks monotonically: at
each scheduled layer the head-averaged attention map elects, per row, the
K strongest of the currently kept columns.  K (``PruneSchedule.row_k``)
is a fraction of the row's *current* support, so successive updates keep
cutting; the alternative fraction-of-N reading is available as
``k_mode="total"`` for comparison.  That mode prunes only once: K =
round(keep_ratio * N) is the support the first update leaves, so every
later update keeps the mask it is given.  K rounds half away from zero,
because it is sensitive to rounding at small N.  A mask produced at layer
u takes effect from layer u+1 onward; layer u itself runs under the
previous mask.

Every update keeps exactly K columns in every row, and K depends only on
N and the schedule, so ``sparsity_report`` predicts the stats from them.
The loop over layers, and the token layout, are ``model.forward``'s.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, NonFiniteValueError
from .masks import AttentionMask
from .skeleton import _is_index

K_MODES = ("support", "total")


def round_half_up(x):
    """floor(x + 0.5) as int64, elementwise: halves round up, not to even."""
    return np.floor(x + 0.5).astype(np.int64)


@dataclass(frozen=True)
class PruneSchedule:
    """Which encoder layers update the mask, and how much each update keeps."""

    update_layers: tuple[int, ...] = (3, 6, 9)
    keep_ratio: float = 0.6
    k_mode: str = "support"

    def __post_init__(self):
        layers = self.update_layers
        if not all(map(_is_index, layers)) or any(b <= a for a, b in zip((0, *layers), layers)):
            raise ConfigError(f"update layers must be strictly increasing integers >= 1: {layers}")
        if not 0.0 < self.keep_ratio <= 1.0:
            raise ConfigError(f"keep ratio must be in (0, 1], got {self.keep_ratio}")
        if self.k_mode not in K_MODES:
            raise ConfigError(f"k_mode must be one of {K_MODES}, got {self.k_mode!r}")

    def row_k(self, support, n: int):
        """K for a row that keeps ``support`` of ``n`` columns, elementwise:
        ``keep_ratio`` times the support (``"support"`` mode) or times N
        (``"total"``), rounded half up and clamped to [1, support].  Under
        ``"total"`` only the first update prunes: it leaves each row K
        columns, so a later update's K is the row's whole support."""
        basis = support if self.k_mode == "support" else n
        return np.minimum(support, np.maximum(1, round_half_up(self.keep_ratio * basis)))


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
    def history(self) -> list:
        """Row-support vector of each stage after the dense one."""
        return [m.row_support for m in self.masks[1:]]


def topk_row_mask(scores, prev: AttentionMask, schedule: PruneSchedule) -> AttentionMask:
    """Keep, per row, the K largest of ``scores`` inside the previous support.

    ``scores`` is an array of ``prev``'s shape; K follows ``schedule``'s
    keep ratio and K mode.  Ties break toward the lower column index.
    Every row keeps at least one column, and the result's support is always
    a subset of ``prev``'s.  A non-finite score raises ``NonFiniteValueError``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = prev.rows
    if scores.shape != (n, prev.cols):
        raise ConfigError(f"attention shape {scores.shape} does not match mask {n}x{prev.cols}")
    if not np.isfinite(scores).all():
        raise NonFiniteValueError("attention scores must be finite")
    k = schedule.row_k(prev.row_support, prev.cols)
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
    return AttentionMask(keep)


def apply_prune_schedule(scores, state: MaskState, schedule: PruneSchedule) -> None:
    """Append the next stage's mask: ``topk_row_mask`` of ``scores``, a scheduled
    layer's head-averaged visual-by-visual attention, under the current mask."""
    state.masks.append(topk_row_mask(scores, state.current, schedule))


@dataclass
class SparsityStats:
    """Attention-stage sparsity of a model config, predicted from N and the schedule.

    ``per_stage_density`` is the visual-block mask density after each
    update.  ``mac_ratio`` is the predicted multiply-accumulate count of
    the two N x N attention products (QK^T and AV) across all encoder
    layers, relative to dense, which is also the layer-weighted mask density.
    """

    stages: int
    per_stage_density: list
    mac_ratio: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def sparsity_report(config) -> SparsityStats:
    """Densities per stage and predicted attention MACs versus the dense baseline.

    Every top-K update keeps exactly ``schedule.row_k`` columns in each row
    and the first mask is dense, so the masks of any forward under
    ``config`` have these densities; no forward is needed.
    """
    n = config.num_patches
    schedule = config.schedule
    row_kept = [n]
    for _ in schedule.update_layers:
        row_kept.append(int(schedule.row_k(row_kept[-1], n)))
    layers = range(1, config.encoder_layers + 1)
    layer_kept = [row_kept[sum(u < layer for u in schedule.update_layers)] for layer in layers]
    return SparsityStats(
        stages=len(schedule.update_layers),
        per_stage_density=[k / n for k in row_kept[1:]],
        mac_ratio=sum(layer_kept) / (n * len(layers)),
    )
