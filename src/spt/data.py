"""Desk-scale data: synthetic stick figures, heatmap targets, annotation IO.

The generator draws a figure on ``skeleton.default_skeleton()``, the 16-joint
MPII skeleton whose joint mask the model's keypoint stage uses: a template
pose scaled into the image, per-joint uniform jitter, the skeleton's edges
rendered as dim segments and joints as Gaussian blobs whose peak brightness
encodes the joint index (so joints are visually distinguishable at toy
resolutions).  Every sample is a pure function of (seed, index) through the
SplitMix64 stream on one host, but not across hosts: blobs and target
heatmaps are float64 ``exp``, whose AVX-512 kernel in numpy and libm's differ
by 1 ULP, so the scene and target digests in ``tests/test_data.py`` hold on
the x86 AVX-512 host that recorded them.  Joint coordinates in annotations
are exact floats, not pixel-quantized.

Annotation files are a JSON array of
``{image, joints, visible, head_size}`` where ``image`` is either a path
or ``{"seed": s, "index": i}`` for regenerable synthetic frames.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import AnnotationError, ConfigError
from .formats import atomic_write
from .rng import sample_stream
from .schema import json_value, read_json
from .skeleton import default_skeleton

# Template pose in normalized [0, 1]^2 figure coordinates, in the joint order
# of default_skeleton().names.  The head segment (head-top to upper-neck) is
# deliberately long so PCKh thresholds stay meaningful at small image sizes.
TEMPLATE_POSE = np.array([
    (0.36, 0.96),  # r-ankle
    (0.38, 0.74),  # r-knee
    (0.40, 0.54),  # r-hip
    (0.60, 0.54),  # l-hip
    (0.62, 0.74),  # l-knee
    (0.64, 0.96),  # l-ankle
    (0.50, 0.53),  # pelvis
    (0.50, 0.28),  # thorax
    (0.50, 0.22),  # upper-neck
    (0.50, 0.02),  # head-top
    (0.20, 0.58),  # r-wrist
    (0.26, 0.44),  # r-elbow
    (0.34, 0.30),  # r-shoulder
    (0.66, 0.30),  # l-shoulder
    (0.74, 0.44),  # l-elbow
    (0.80, 0.58),  # l-wrist
], dtype=np.float64)

_LIMB_LEVEL = 0.35


@dataclass
class Annotation:
    """Ground truth for one sample (joints, visibility, PCKh scale), checked when built."""

    joints: np.ndarray       # (J, 2) float (x, y) pixel coordinates
    visibility: np.ndarray   # (J,) bool
    head_size: float         # PCKh normalization length, > 0
    image_ref: object        # path string or (seed, index) tuple

    def __post_init__(self):
        try:
            joints = np.asarray(self.joints)
        except ValueError as exc:  # ragged nesting
            raise AnnotationError(f"joints must be (J, 2) numbers: {exc}") from None
        if joints.dtype.kind not in "iuf":
            raise AnnotationError(f"joints must be numbers, got dtype {joints.dtype}")
        self.joints = joints.astype(np.float64, copy=False)
        self.visibility = np.asarray(self.visibility, dtype=bool)
        if self.joints.ndim != 2 or self.joints.shape[1] != 2:
            raise AnnotationError(f"joints must be (J, 2), got {self.joints.shape}")
        flags, j = self.visibility, self.joints.shape[0]
        if flags.shape != (j,):
            raise AnnotationError(f"{flags.shape[0] if flags.ndim == 1 else flags.shape} "
                                  f"visibility flags for {j} joints")
        size = self.head_size
        if not isinstance(size, numbers.Real) or isinstance(size, bool):
            raise AnnotationError(f"head_size must be a number, got {size!r}")
        if not 0 < size < math.inf:
            raise AnnotationError(f"head_size must be finite and > 0, got {size}")
        if not np.isfinite(self.joints).all():
            raise AnnotationError("joint coordinates must be finite")

    @property
    def joint_count(self) -> int:
        return self.joints.shape[0]


@dataclass
class SyntheticSceneConfig:
    """How a synthetic figure is drawn; its joints are always ``default_skeleton()``'s."""

    seed: int = 0
    limb_thickness: float = 1.25
    blob_sigma: float = 1.6
    image_h: int = 64
    image_w: int = 64
    jitter: float = 6.0  # per-joint uniform jitter amplitude, pixels

    def __post_init__(self):
        if self.image_h < 8 or self.image_w < 8:
            raise ConfigError("synthetic images need at least 8x8 pixels")
        if not (0 < self.blob_sigma < math.inf and 0 < self.limb_thickness < math.inf
                and 0 <= self.jitter < math.inf):
            raise ConfigError(
                "blob_sigma/limb_thickness must be finite and > 0, jitter finite and >= 0")


def _template_in_pixels(h: int, w: int) -> np.ndarray:
    margin_x, margin_y = 0.10 * (w - 1), 0.02 * (h - 1)
    out = np.empty_like(TEMPLATE_POSE)
    out[:, 0] = margin_x + TEMPLATE_POSE[:, 0] * ((w - 1) - 2 * margin_x)
    out[:, 1] = margin_y + TEMPLATE_POSE[:, 1] * ((h - 1) - 2 * margin_y)
    return out


# np.exp(-t) is exactly 0.0, never a denormal, for every t >= this.
_EXP_UNDERFLOW = 746.0


def _window(canvas: np.ndarray, x_lo: float, x_hi: float, y_lo: float, y_hi: float,
            margin: int):
    """The canvas slice over [x_lo, x_hi] x [y_lo, y_hi] grown by ``margin``
    pixels, with its pixel coordinates ``yy, xx``."""
    h, w = canvas.shape
    x0, x1 = np.clip((math.floor(x_lo) - margin, math.ceil(x_hi) + margin + 1), 0, w)
    y0, y1 = np.clip((math.floor(y_lo) - margin, math.ceil(y_hi) + margin + 1), 0, h)
    yy, xx = np.mgrid[y0:y1, x0:x1]
    return canvas[y0:y1, x0:x1], yy, xx


def render_joint_blob(canvas: np.ndarray, x: float, y: float, sigma: float,
                      peak: float = 1.0) -> None:
    """Max-compose an unnormalized Gaussian blob centered at (x, y).

    Only pixels within ``sigma * sqrt(2 * _EXP_UNDERFLOW)`` (plus one) of the
    centre are computed: beyond that the blob is exactly 0.0.
    """
    margin = math.ceil(sigma * math.sqrt(2.0 * _EXP_UNDERFLOW)) + 1
    patch, yy, xx = _window(canvas, x, x, y, y, margin)
    blob = peak * np.exp(-((xx - x) ** 2 + (yy - y) ** 2) / (2.0 * sigma * sigma))
    np.maximum(patch, blob, out=patch)


def _render_segment(canvas: np.ndarray, a: np.ndarray, b: np.ndarray,
                    thickness: float, level: float) -> None:
    """Max-compose ``level`` on the pixels within ``thickness`` of segment ab;
    only the segment's bounding box grown by ``ceil(thickness) + 1`` is computed."""
    patch, yy, xx = _window(canvas, min(a[0], b[0]), max(a[0], b[0]),
                            min(a[1], b[1]), max(a[1], b[1]), math.ceil(thickness) + 1)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        dist2 = (xx - a[0]) ** 2 + (yy - a[1]) ** 2
    else:
        t = np.clip(((xx - a[0]) * ab[0] + (yy - a[1]) * ab[1]) / denom, 0.0, 1.0)
        dist2 = (xx - (a[0] + t * ab[0])) ** 2 + (yy - (a[1] + t * ab[1])) ** 2
    np.maximum(patch, np.where(dist2 <= thickness * thickness, level, 0.0), out=patch)


def render_scene(joints: np.ndarray, config: SyntheticSceneConfig) -> np.ndarray:
    """Rasterize one figure on ``default_skeleton()`` (single channel, values in [0, 1])."""
    canvas = np.zeros((config.image_h, config.image_w), dtype=np.float64)
    for a, b in default_skeleton().edges:
        _render_segment(canvas, joints[a], joints[b], config.limb_thickness, _LIMB_LEVEL)
    j = joints.shape[0]
    for idx in range(j):
        peak = 0.55 + 0.45 * (idx + 1) / j
        render_joint_blob(canvas, joints[idx, 0], joints[idx, 1], config.blob_sigma, peak)
    return canvas


def generate_sample(config: SyntheticSceneConfig, index: int):
    """One deterministic (image, Annotation) pair for (config.seed, index)."""
    template = _template_in_pixels(config.image_h, config.image_w)
    rng = sample_stream(config.seed, index)
    # Draw order is part of the format: joint 0 dx, dy, joint 1 dx, dy, ...
    jitter = rng.uniform_array(TEMPLATE_POSE.shape, -config.jitter, config.jitter)
    joints = template + jitter
    joints[:, 0] = np.clip(joints[:, 0], 1.0, config.image_w - 2.0)
    joints[:, 1] = np.clip(joints[:, 1], 1.0, config.image_h - 2.0)
    names = default_skeleton().names
    top, neck = joints[names.index("head-top")], joints[names.index("upper-neck")]
    head_size = max(float(np.linalg.norm(top - neck)), 1.0)
    image = render_scene(joints, config)
    ann = Annotation(
        joints=joints,
        visibility=np.ones(len(TEMPLATE_POSE), dtype=bool),
        head_size=head_size,
        image_ref=(config.seed, index),
    )
    return image, ann


def generate_synthetic(config: SyntheticSceneConfig, count: int):
    """Deterministic (image, Annotation) pairs; sample i depends only on (seed, i)."""
    return [generate_sample(config, index) for index in range(count)]


def render_target_heatmaps(ann: Annotation, heatmap_h: int, heatmap_w: int,
                           sigma: float, image_h: int, image_w: int) -> np.ndarray:
    """Per-joint Gaussian targets, peak 1, in heatmap resolution.

    Joint coordinates are scaled by (heatmap extent / image extent);
    invisible joints yield all-zero maps.
    """
    if not 0 < sigma < math.inf:
        raise ConfigError(f"target sigma must be finite and > 0, got {sigma}")
    j = ann.joint_count
    out = np.zeros((j, heatmap_h, heatmap_w), dtype=np.float64)
    sx, sy = heatmap_w / image_w, heatmap_h / image_h
    for idx in range(j):
        if ann.visibility[idx]:
            render_joint_blob(out[idx], ann.joints[idx, 0] * sx, ann.joints[idx, 1] * sy, sigma)
    return out


# ---------------------------------------------------------------------------
# Annotation files
# ---------------------------------------------------------------------------


def save_annotations(annotations, path) -> None:
    records = []
    for ann in annotations:
        if isinstance(ann.image_ref, tuple):
            image = {"seed": int(ann.image_ref[0]), "index": int(ann.image_ref[1])}
        else:
            image = str(ann.image_ref)
        records.append({
            "image": image,
            "joints": [[float(x), float(y)] for x, y in ann.joints],
            "visible": [bool(v) for v in ann.visibility],
            "head_size": float(ann.head_size),
        })
    with atomic_write(path) as fh:
        fh.write(json.dumps(records, indent=2) + "\n")


def load_annotations(path, image_h: int, image_w: int):
    """Parse and validate an annotation file.

    JSON types are checked, never coerced: an image ref's ``seed`` and
    ``index`` are integers, joint coordinates and ``head_size`` are numbers,
    ``visible`` flags are booleans and an image path is a string.  Shapes and
    ranges are ``Annotation``'s checks; their errors gain the record index.
    Every visible joint must lie inside the ``image_h`` x ``image_w`` image
    (the file format does not embed extents).
    """
    doc = read_json(path, AnnotationError)
    if not isinstance(doc, list):
        raise AnnotationError(f"{path}: top level must be an array")
    annotations = []
    for index, rec in enumerate(doc):
        try:
            image = rec["image"]
            ref = ((json_value(int, image["seed"], "image.seed", TypeError),
                    json_value(int, image["index"], "image.index", TypeError))
                   if isinstance(image, dict) else json_value(str, image, "image", TypeError))
            ann = Annotation(
                json_value(tuple[tuple[float, ...], ...], rec["joints"], "joints", TypeError),
                json_value(tuple[bool, ...], rec["visible"], "visible", TypeError),
                json_value(float, rec["head_size"], "head_size", TypeError), ref)
        except AnnotationError as exc:
            raise AnnotationError(str(exc), index=index) from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise AnnotationError(f"malformed record: {exc!r}", index=index) from exc
        vis = ann.joints[ann.visibility]
        inside = ((vis[:, 0] >= 0) & (vis[:, 0] <= image_w - 1)
                  & (vis[:, 1] >= 0) & (vis[:, 1] <= image_h - 1))
        if not inside.all():
            raise AnnotationError("visible joint outside image bounds", index=index)
        annotations.append(ann)
    return annotations
