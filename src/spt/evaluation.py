"""Heatmap decoding, head-normalized keypoint accuracy, and the keep-ratio sweep.

A joint counts as correct at threshold alpha when it is visible and its
predicted location lies within alpha * head_size of ground truth (boundary
inclusive).  Joints invisible in ground truth are excluded from both
numerator and denominator.  The decoder is argmax plus a quarter-pixel
shift toward the larger axis neighbor; plain argmax is selectable for
debugging.  Both decode (a (J, H, W) stack) and score (every sample) run on
whole arrays.  Training lives in ``model.train_model``; the sweep only calls it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import TrainingConfig, forward, train_model
from .tensor import finite_checks, finite_checks_enabled

DEFAULT_ALPHAS = (0.5, 0.1)


def _quarter_steps(hi, lo, interior):
    """±0.25 toward the larger of ``hi`` and ``lo`` on ``interior``, else 0 (as for a NaN)."""
    return np.where(interior, np.where(hi > lo, 0.25, np.where(lo > hi, -0.25, 0.0)), 0.0)


def decode_heatmaps(heatmaps, image_h: int, image_w: int, refine: bool = True) -> np.ndarray:
    """Peak location of each map of a (J, H, W) stack: a (J, 2) array of (x, y)
    in input-image pixel coordinates.

    Ties go to the lowest row-major index; the quarter-pixel shift applies
    only when both axis neighbors exist and differ.
    """
    stack = np.asarray(getattr(heatmaps, "data", heatmaps), dtype=np.float64)
    if stack.ndim != 3 or 0 in stack.shape[1:]:
        raise ConfigError(f"heatmaps must be a (J, H, W) stack, H and W >= 1, got {stack.shape}")
    j, h, w = stack.shape
    row, col = divmod(np.argmax(stack.reshape(j, h * w), axis=1), w)
    x, y = col.astype(np.float64), row.astype(np.float64)
    if refine:
        maps = np.arange(j)
        x += _quarter_steps(stack[maps, row, np.minimum(col + 1, w - 1)],
                            stack[maps, row, np.maximum(col - 1, 0)], (0 < col) & (col < w - 1))
        y += _quarter_steps(stack[maps, np.minimum(row + 1, h - 1), col],
                            stack[maps, np.maximum(row - 1, 0), col], (0 < row) & (row < h - 1))
    return np.stack([x * (image_w / w), y * (image_h / h)], axis=1)


@dataclass
class PckhReport:
    """Correctness rates per joint and their mean, per threshold.

    ``per_joint[alpha]`` holds one rate per joint (NaN when that joint is
    never visible); ``mean[alpha]`` averages the defined rates.
    """

    alphas: tuple
    per_joint: dict
    mean: dict
    sample_count: int

    def to_json_dict(self) -> dict:
        return {
            "sample_count": self.sample_count,
            "alphas": list(self.alphas),
            "per_joint": {str(a): [None if np.isnan(r) else float(r) for r in rates]
                          for a, rates in self.per_joint.items()},
            "mean": {str(a): float(m) for a, m in self.mean.items()},
        }


def _checked_thresholds(alphas) -> tuple:
    """``alphas`` as a tuple of floats; ConfigError unless each is finite and
    > 0 and no two are equal."""
    alphas = tuple(float(a) for a in alphas)
    if not all(0 < a < math.inf for a in alphas):
        raise ConfigError(f"thresholds must be finite and > 0: {alphas}")
    if len(set(alphas)) != len(alphas):
        raise ConfigError(f"thresholds must be distinct: {alphas}")
    return alphas


def pckh(predictions, annotations, alphas=DEFAULT_ALPHAS) -> PckhReport:
    """Head-normalized correct-keypoint rates at each threshold."""
    if len(predictions) != len(annotations):
        raise ConfigError(
            f"{len(predictions)} predictions for {len(annotations)} annotations"
        )
    if not annotations:
        raise ConfigError("cannot evaluate an empty dataset")
    alphas = _checked_thresholds(alphas)
    j = annotations[0].joint_count
    pred = np.stack([np.asarray(p, dtype=np.float64).reshape(j, 2) for p in predictions])
    dist = np.linalg.norm(pred - np.stack([ann.joints for ann in annotations]), axis=-1)
    vis = np.stack([ann.visibility for ann in annotations])
    head = np.array([ann.head_size for ann in annotations], dtype=np.float64)[:, None]
    visible = vis.sum(axis=0)
    per_joint, mean = {}, {}
    with np.errstate(invalid="ignore"):
        for a in alphas:
            correct = (vis & (dist <= a * head)).sum(axis=0)
            per_joint[a] = np.where(visible > 0, correct / np.maximum(visible, 1), np.nan)
            mean[a] = float(np.nanmean(per_joint[a]))
    return PckhReport(alphas=alphas, per_joint=per_joint, mean=mean,
                      sample_count=len(annotations))


def evaluate_model(params, config, skeleton_mask, samples, alphas=DEFAULT_ALPHAS,
                   refine: bool = True, workers: int = 1) -> PckhReport:
    """Forward + decode every (image, Annotation) sample, then score PCKh.

    The thresholds are checked before the first forward.  ``workers`` > 1
    opts into thread-parallel evaluation; the dataset and parameters are
    shared read-only, and every sample runs under the caller's NaN/Inf
    guard setting.
    """
    alphas = _checked_thresholds(alphas)
    guard = finite_checks_enabled()

    def predict(sample):
        image, _ = sample
        with finite_checks(guard):
            heatmaps, _ = forward(image, params, config, skeleton_mask)
        return decode_heatmaps(heatmaps, config.image_h, config.image_w, refine)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            preds = list(pool.map(predict, samples))
    else:
        preds = [predict(s) for s in samples]
    return pckh(preds, [ann for _, ann in samples], alphas)


def ablation_sweep(keep_ratios, base_config, skeleton_mask, train_samples, test_samples,
                   training: TrainingConfig, refine: bool = True):
    """Train one identically-seeded model per keep ratio and score each.

    Mirrors the keep-ratio ablation protocol: same data, same budget, same
    seed; only the prune schedule's keep ratio changes.  Every ratio's
    config is built, and so checked, before any model trains.
    ``train_model`` reads all of ``training``: steps, batch_size,
    learning_rate, seed and target_sigma.  Returns one
    ``(keep_ratio, PckhReport)`` pair per ratio, scored at the default
    thresholds; a ratio's sparsity is
    ``sparsity_report(base_config.with_keep_ratio(ratio))``.
    """
    configs = [(ratio, base_config.with_keep_ratio(ratio)) for ratio in map(float, keep_ratios)]
    rows = []
    for keep_ratio, config in configs:
        params, _ = train_model(train_samples, config, skeleton_mask, training)
        rows.append((keep_ratio, evaluate_model(params, config, skeleton_mask, test_samples,
                                                refine=refine)))
    return rows


# ---------------------------------------------------------------------------
# Plain-text tables (per-joint columns, then Mean@<alpha>, then Mean@0.1)
# ---------------------------------------------------------------------------


def pckh_table(labeled_reports, joint_names) -> str:
    """Aligned table: one row per (label, PckhReport) pair, per-joint rates
    in percent and their mean at alpha=0.5 (at the reports' first threshold
    without 0.5), headed ``Mean@<alpha>``, then a Mean@0.1 column.  All rows
    must use one threshold, so the header names it for each of them."""
    thresholds = {0.5 if 0.5 in report.per_joint else report.alphas[0]
                  for _, report in labeled_reports}
    if len(thresholds) != 1:
        raise ConfigError(f"table rows must share one threshold, got {sorted(thresholds)}")
    (alpha,) = thresholds
    headers = ["method"] + list(joint_names) + [f"Mean@{alpha:g}", "Mean@0.1"]
    body = []
    for label, report in labeled_reports:
        cells = [label]
        cells += ["-" if np.isnan(r) else f"{100.0 * r:.2f}" for r in report.per_joint[alpha]]
        cells.append(f"{100.0 * report.mean[alpha]:.2f}")
        tail = report.mean.get(0.1)
        cells.append("-" if tail is None else f"{100.0 * tail:.2f}")
        body.append(cells)
    widths = [max(len(row[i]) for row in [headers] + body) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
