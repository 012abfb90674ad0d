"""Full network assembly: patch front end, pruned encoder, graph stage, head.

The token sequence is [keypoint tokens, visual tokens].  The encoder mask
over the full sequence keeps every keypoint-involved entry at 1; only the
visual-by-visual block evolves.  ``forward`` runs the update loop: each
scheduled layer hands that block of its attention to ``apply_prune_schedule``.
After the encoder, the keypoint token rows pass through the graph stage (the same
block structure under the constant joint mask) and a head maps each
token to one heatmap: a layer norm, then ``tensor.mlp`` (width D, GELU,
then H_h * W_h outputs).

Only the keypoint rows of the last encoder layer's output are read, so
unless that layer's attention is recorded, it runs with the J x (J+N)
keypoint rows of the mask as queries: every token still supplies keys and
values, and only the J keypoint tokens are updated (TokenPose reads out
keypoint tokens the same way).  The heatmaps are bit-identical either way.

There is no CNN backbone: images are optionally average-pool downsampled
(emulating a stem's stride) and then patchified directly, so the sparsity
machinery under study is the whole model.
"""

from __future__ import annotations

import functools
import json
import math
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .attention import AttentionLayerParams, encoder_block
from .data import render_target_heatmaps
from .errors import AnnotationError, CheckpointError, ConfigError, FormatError, NonFiniteLossError
from .formats import load_tensor, save_tensor
from .masks import AttentionMask
from .pruning import MaskState, PruneSchedule, SparsityStats, apply_prune_schedule, sparsity_report
from .rng import SplitMix64
from .schema import from_json, read_json
from .tensor import ComputationTape, Tensor

POSITIONAL_MODES = ("learned", "sinusoidal")


@dataclass
class ModelConfig:
    """Architecture hyperparameters; defaults follow the reference scale
    (12 encoder layers, width 192, 8 heads, 8 graph layers, updates at 3/6/9)."""

    image_h: int = 256
    image_w: int = 256
    channels: int = 1
    downsample: int = 4
    patch_h: int = 4
    patch_w: int = 4
    embed_dim: int = 192
    heads: int = 8
    encoder_layers: int = 12
    graph_layers: int = 8
    joint_count: int = 16
    heatmap_h: int = 64
    heatmap_w: int = 64
    mlp_ratio: int = 3
    pos_encoding: str = "learned"
    schedule: PruneSchedule = field(default_factory=PruneSchedule)

    def __post_init__(self):
        self.validate()

    def validate(self) -> "ModelConfig":
        """ConfigError unless every setting is in range.  Each integer field is
        an extent or a count, so it must be at least 1."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and value < 1:
                raise ConfigError(f"{f.name} must be >= 1, got {value}")
        if self.image_h % self.downsample or self.image_w % self.downsample:
            raise ConfigError(
                f"downsample {self.downsample} does not divide image "
                f"{self.image_h}x{self.image_w}"
            )
        ph, pw = self.pooled_h, self.pooled_w
        if ph % self.patch_h or pw % self.patch_w:
            raise ConfigError(
                f"patch {self.patch_h}x{self.patch_w} does not divide grid {ph}x{pw}"
            )
        if self.embed_dim % self.heads:
            raise ConfigError(
                f"heads={self.heads} must evenly partition embed dim {self.embed_dim}"
            )
        if self.pos_encoding not in POSITIONAL_MODES:
            raise ConfigError(f"pos_encoding must be one of {POSITIONAL_MODES}")
        if self.pos_encoding == "sinusoidal" and self.embed_dim % 4:
            raise ConfigError("sinusoidal positional encoding needs embed_dim % 4 == 0")
        if self.schedule.update_layers and self.schedule.update_layers[-1] > self.encoder_layers:
            raise ConfigError(
                f"update layers {self.schedule.update_layers} exceed "
                f"encoder depth {self.encoder_layers}"
            )
        return self

    @property
    def pooled_h(self) -> int:
        return self.image_h // self.downsample

    @property
    def pooled_w(self) -> int:
        return self.image_w // self.downsample

    @property
    def grid_h(self) -> int:
        return self.pooled_h // self.patch_h

    @property
    def grid_w(self) -> int:
        return self.pooled_w // self.patch_w

    @property
    def num_patches(self) -> int:
        return self.grid_h * self.grid_w

    @property
    def patch_dim(self) -> int:
        return self.channels * self.patch_h * self.patch_w

    def to_json_dict(self) -> dict:
        return asdict(self)

    def with_keep_ratio(self, keep_ratio: float) -> "ModelConfig":
        return replace(self, schedule=replace(self.schedule, keep_ratio=keep_ratio))


def sinusoidal_encoding(grid_h: int, grid_w: int, embed_dim: int) -> np.ndarray:
    """Fixed 2D sin/cos table: quarters of D for sin x, cos x, sin y, cos y."""
    quarter = embed_dim // 4
    freqs = 1.0 / (10000.0 ** (np.arange(quarter) / quarter))
    ys, xs = np.mgrid[0:grid_h, 0:grid_w]
    xs = xs.reshape(-1, 1) * freqs
    ys = ys.reshape(-1, 1) * freqs
    return np.concatenate([np.sin(xs), np.cos(xs), np.sin(ys), np.cos(ys)], axis=1)


INIT_STD = 0.02  # standard deviation of every "normal" parameter's initial draws


def initial_array(fill: str, shape: tuple, rng: SplitMix64) -> np.ndarray:
    """A parameter's starting value: N(0, INIT_STD^2) draws from ``rng``, zeros or ones."""
    if fill == "normal":
        return rng.normal_array(shape, INIT_STD)
    return np.zeros(shape) if fill == "zeros" else np.ones(shape)


def parameter_layout(config: ModelConfig) -> list:
    """(name, shape, fill) of every trainable tensor, in ``named_parameters`` order.

    ``PoseModelParams.init`` draws the "normal" entries from one SplitMix64
    stream in this order, and ``load_checkpoint`` checks a checkpoint's
    names and shapes against it.  A sinusoidal positional table is fixed,
    so it is not listed.
    """
    d = config.embed_dim
    layout = [("patch_projection", (config.patch_dim, d), "normal")]
    if config.pos_encoding == "learned":
        layout.append(("positional_encoding", (config.num_patches, d), "normal"))
    layout.append(("keypoint_tokens", (config.joint_count, d), "normal"))
    block = AttentionLayerParams.layout(d, config.mlp_ratio)
    for stack, count in (("encoder", config.encoder_layers), ("graph", config.graph_layers)):
        layout.extend((f"{stack}.{i}.{name}", shape, fill)
                      for i in range(count) for name, shape, fill in block)
    out_dim = config.heatmap_h * config.heatmap_w
    layout.extend([
        ("head_norm_gain", (d,), "ones"),
        ("head_norm_bias", (d,), "zeros"),
        ("head_w1", (d, d), "normal"),
        ("head_b1", (d,), "zeros"),
        ("head_w2", (d, out_dim), "normal"),
        ("head_b2", (out_dim,), "zeros"),
    ])
    return layout


@dataclass
class PoseModelParams:
    """All trainable tensors.  Weights and keypoint tokens start from
    N(0, INIT_STD^2), with ``INIT_STD`` = 0.02."""

    patch_projection: Tensor
    positional_encoding: Tensor
    keypoint_tokens: Tensor
    encoder_blocks: list
    graph_blocks: list
    head_norm_gain: Tensor
    head_norm_bias: Tensor
    head_w1: Tensor
    head_b1: Tensor
    head_w2: Tensor
    head_b2: Tensor

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0) -> "PoseModelParams":
        rng = SplitMix64(seed)
        return cls.from_arrays(config, {
            name: initial_array(fill, shape, rng) for name, shape, fill in parameter_layout(config)
        })

    @classmethod
    def from_arrays(cls, config: ModelConfig, arrays: dict) -> "PoseModelParams":
        """Wrap one array per ``parameter_layout`` name as trainable tensors.

        A sinusoidal positional table is computed here, as a constant.
        """
        tensors = {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}
        if config.pos_encoding == "sinusoidal":
            tensors["positional_encoding"] = Tensor(
                sinusoidal_encoding(config.grid_h, config.grid_w, config.embed_dim))

        def stack(prefix, count):
            return [AttentionLayerParams(**{f.name: tensors[f"{prefix}.{i}.{f.name}"]
                                            for f in fields(AttentionLayerParams)})
                    for i in range(count)]

        return cls(encoder_blocks=stack("encoder", config.encoder_layers),
                   graph_blocks=stack("graph", config.graph_layers),
                   **{f.name: tensors[f.name] for f in fields(cls)
                      if not f.name.endswith("_blocks")})

    def named_parameters(self):
        """Deterministically ordered (name, tensor) pairs of trainable leaves.

        Field order; a block list ``<stack>_blocks`` yields ``<stack>.<i>.<field>``,
        and a tensor without ``requires_grad`` (the sinusoidal table) is skipped.
        """
        pairs = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_blocks"):
                stack = f.name[:-len("_blocks")]
                for i, block in enumerate(value):
                    pairs.extend(block.named(f"{stack}.{i}"))
            elif value.requires_grad:
                pairs.append((f.name, value))
        return pairs


@dataclass
class Diagnostics:
    """Per-forward bookkeeping: mask evolution, sparsity, optional attention."""

    mask_state: MaskState
    sparsity: SparsityStats
    records: list | None = None  # encoder then graph head-average arrays, if retained


def patchify_embed(image: Tensor, params: PoseModelParams, config: ModelConfig) -> Tensor:
    """Image (C, H, W) to position-encoded visual tokens (N_p, D)."""
    expected = (config.channels, config.image_h, config.image_w)
    if image.shape != expected:
        raise ConfigError(f"image shape {image.shape} does not match config {expected}")
    x = image
    if config.downsample > 1:
        x = T.avg_pool2d(x, config.downsample, config.downsample)
    c, gh, gw = config.channels, config.grid_h, config.grid_w
    x = T.reshape(x, (c, gh, config.patch_h, gw, config.patch_w))
    x = T.transpose(x, (1, 3, 0, 2, 4))  # row-major patch order, row-major inside
    x = T.reshape(x, (config.num_patches, config.patch_dim))
    x = T.matmul(x, params.patch_projection)
    return T.add(x, params.positional_encoding)


def full_token_mask(visual_mask: AttentionMask, joint_count: int) -> AttentionMask:
    """Embed the visual-block mask; keypoint rows and columns stay all-ones."""
    n = joint_count + visual_mask.rows
    bits = np.ones((n, n), dtype=np.uint8)
    bits[joint_count:, joint_count:] = visual_mask.bits
    return AttentionMask(bits)


def _as_image_tensor(image, config: ModelConfig) -> Tensor:
    """An image array as a (C, H, W) tensor; a 2-D image is one channel."""
    data = np.asarray(image, dtype=np.float64)
    if data.ndim == 2 and config.channels == 1:
        data = data[None, :, :]
    return Tensor(data)


def forward(image, params: PoseModelParams, config: ModelConfig,
            skeleton_mask: AttentionMask, keep_records: bool = False):
    """Run the full network on one image.

    Returns (heatmaps (J, H_h, W_h), Diagnostics).  ``skeleton_mask`` is the
    constant J x J joint mask for the graph stage.

    The last encoder layer updates only the J keypoint tokens, under the
    all-ones keypoint rows of the mask, unless it records attention: when
    it is a scheduled update layer or ``keep_records`` is set, it runs on
    every row.
    """
    j = config.joint_count
    if skeleton_mask.rows != j or skeleton_mask.cols != j:
        raise ConfigError(
            f"joint mask is {skeleton_mask.rows}x{skeleton_mask.cols}, config wants {j}x{j}"
        )
    img = _as_image_tensor(image, config)
    visual = patchify_embed(img, params, config)
    tokens = T.concat([params.keypoint_tokens, visual], axis=0)

    state = MaskState.dense(config.num_patches)
    records = [] if keep_records else None
    mask = full_token_mask(state.current, j)
    last = config.encoder_layers
    for layer in range(1, last + 1):
        update = layer in config.schedule.update_layers
        need_record = keep_records or update
        # Only the keypoint rows of the last layer's output are read, and
        # keypoint rows of the mask are all-ones.
        layer_mask = mask if need_record or layer < last else AttentionMask.ones(j, mask.cols)
        tokens, head_average = encoder_block(tokens, layer_mask, params.encoder_blocks[layer - 1],
                                             config.heads, need_record=need_record)
        if keep_records:
            records.append(head_average)
        if update:
            apply_prune_schedule(head_average[j:, j:], state, config.schedule)
            mask = full_token_mask(state.current, j)

    kp = T.narrow(tokens, 0, 0, j)
    for block in params.graph_blocks:
        kp, head_average = encoder_block(kp, skeleton_mask, block, config.heads,
                                         need_record=keep_records)
        if keep_records:
            records.append(head_average)

    kp = T.layer_norm(kp, params.head_norm_gain, params.head_norm_bias)
    h = T.mlp(kp, params.head_w1, params.head_b1, params.head_w2, params.head_b2)
    heatmaps = T.reshape(h, (j, config.heatmap_h, config.heatmap_w))

    return heatmaps, Diagnostics(state, sparsity_report(config), records)


def loss_mse(pred: Tensor, target, visibility) -> Tensor:
    """Mean squared error over visible joints; invisible joints contribute zero."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    if pred.shape != target_t.shape:
        raise ConfigError(f"prediction {pred.shape} vs target {target_t.shape}")
    vis = np.asarray(visibility, dtype=bool).reshape(-1)
    if vis.shape[0] != pred.shape[0]:
        raise ConfigError(f"{vis.shape[0]} visibility flags for {pred.shape[0]} joints")
    visible = int(vis.sum())
    if visible == 0:
        return Tensor(0.0)
    weights = np.zeros(pred.shape, dtype=np.float64)
    weights[vis] = 1.0
    diff = T.sub(pred, target_t)
    masked_sq = T.mul(T.mul(diff, diff), Tensor(weights))
    return T.scale(T.sum_all(masked_sq), 1.0 / (visible * pred.shape[1] * pred.shape[2]))


ADAM_BETA1 = 0.9  # decay of the first-moment average
ADAM_BETA2 = 0.999  # decay of the second-moment average
ADAM_EPS = 1e-8  # added to the root of the second moment
_ADAM_ELEMENT_WORK = 2 ** 7  # one element's update, counted in multiply-adds


def _adam_update(grad, p, m, v, buf, out, lr: float, bc1: float, bc2: float) -> None:
    """Adam's moment and parameter update on matching arrays; the new
    parameter goes to ``out``, which holds the denominator until then."""
    np.multiply(1.0 - ADAM_BETA1, grad, out=buf)
    m *= ADAM_BETA1
    m += buf
    np.multiply(1.0 - ADAM_BETA2, grad, out=buf)
    buf *= grad
    v *= ADAM_BETA2
    v += buf
    np.divide(v, bc2, out=out)
    np.sqrt(out, out=out)
    out += ADAM_EPS
    np.divide(m, bc1, out=buf)
    buf *= lr
    buf /= out
    np.subtract(p, buf, out=out)


@dataclass
class AdamState:
    """Adaptive-moment optimizer state at learning rate ``lr``."""

    lr: float = 1e-3
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def step(self, params: PoseModelParams) -> None:
        """One update of every parameter from its ``.grad`` (zeros if None).

        The moments ``m`` and ``v`` are updated in place, through one scratch
        array and the new parameter array, in the operation order of
        ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
        ``p - lr (m / bc1) / (sqrt(v / bc2) + eps)``, with b1, b2 and eps the
        ``ADAM_*`` constants, so they get the same bits.  ``p.data`` becomes
        a fresh array and ``p.grad`` is cleared.  Each update is a
        ``tensor._by_rows`` call that counts an element at
        ``_ADAM_ELEMENT_WORK`` multiply-adds, so it runs as two row halves
        at once when half the rows hold at least 2**15 elements: in the
        model, the parameters of at least 2**16.  Every operation is
        elementwise, so the bits stay.

        No rollback: ``step_count`` rises first, and a step that raises
        part-way leaves the parameters before it updated.  It raises only
        once no helper is still writing a half's moments.
        """
        self.step_count += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.step_count
        bc2 = 1.0 - ADAM_BETA2 ** self.step_count
        for name, p in params.named_parameters():
            grad = p.grad if p.grad is not None else np.zeros(p.shape)
            m = self.m.get(name)
            if m is None:
                m = self.m[name] = np.zeros(p.shape)
                v = self.v[name] = np.zeros(p.shape)
            else:
                v = self.v[name]
            out = np.empty(p.shape)
            T._by_rows(functools.partial(_adam_update, lr=self.lr, bc1=bc1, bc2=bc2),
                       (p.data[0].size * _ADAM_ELEMENT_WORK,),
                       grad, p.data, m, v, np.empty(p.shape), out)
            p.data = out
            p.grad = None


def _sample_backward(sample, index: int, weight: float, params: PoseModelParams,
                     config: ModelConfig, skeleton_mask) -> float:
    """Forward, loss and backward of one batch sample on its own tape.

    Adds ``weight`` times the sample loss's gradient into the parameters'
    ``.grad`` and returns the unweighted loss.  The tape and its arrays are
    freed on return.
    """
    image, target, visibility = sample
    with ComputationTape() as tape:
        heatmaps, _ = forward(image, params, config, skeleton_mask)
        loss = loss_mse(heatmaps, target, visibility)
        value = loss.item()
        if not math.isfinite(value):
            raise NonFiniteLossError(index, value)
        weighted = T.scale(loss, weight)
    T.backward(weighted, tape)
    return value


def train_step(batch, params: PoseModelParams, config: ModelConfig, skeleton_mask,
               optimizer: AdamState) -> float:
    """One gradient step over a batch of (image, target_heatmaps, visibility).

    Returns the mean sample loss.  Deterministic given the seed and batch
    order.

    Gradients are accumulated one sample at a time: each sample runs
    forward, loss and backward on its own tape, which is freed before the
    next sample starts, so memory does not grow with the batch size.  The
    samples run from last to first and each backward starts from
    ``loss / B``.  Each parameter gradient is therefore summed as
    ``(g[B-1] + ... + g[1]) + g[0]``, the order in which one tape over the
    whole batch would replay them, and the returned loss is the sample
    losses summed in index order, times ``1 / B``.  From cleared gradients
    (as ``AdamState.step`` leaves them), losses, parameters and optimizer
    moments are those of one whole-batch tape, to the bit.

    A non-finite sample loss aborts before the update with
    ``NonFiniteLossError``.  Since samples run last to first, it names the
    highest offending batch index.  A failure in a sample's forward, loss
    or backward leaves every ``.grad``, parameter and ``optimizer`` as they
    were on entry; one in ``optimizer.step`` does not (see there).
    """
    if not batch:
        raise ConfigError("empty training batch")
    leaves = [p for _, p in params.named_parameters()]
    held = [p.grad for p in leaves]
    weight = 1.0 / len(batch)
    losses = [0.0] * len(batch)
    try:
        for index in reversed(range(len(batch))):
            losses[index] = _sample_backward(batch[index], index, weight, params,
                                             config, skeleton_mask)
    except BaseException:
        for p, grad in zip(leaves, held):
            p.grad = grad
        raise
    optimizer.step(params)
    total = losses[0]
    for loss in losses[1:]:  # not sum(): Python 3.12+ compensates float sums
        total += loss
    return total * weight


@dataclass
class TrainingConfig:
    steps: int = 200
    batch_size: int = 8
    learning_rate: float = 1e-3
    seed: int = 0
    target_sigma: float = 1.5

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 1:
            raise ConfigError(f"need steps >= 0 and batch_size >= 1, got {self.steps} "
                              f"and {self.batch_size}")
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0 < self.target_sigma < math.inf:
            raise ConfigError(f"target_sigma must be finite and > 0, got {self.target_sigma}")


def train_model(train_samples, config: ModelConfig, skeleton_mask: AttentionMask,
                training: TrainingConfig, log_fn=None):
    """Train from scratch on (image, Annotation) pairs; returns (params, losses).

    Reads every field of ``training``: ``steps`` steps of ``batch_size``
    samples under Adam at ``learning_rate``, parameters drawn from
    ``seed``, and targets rendered with Gaussian width ``target_sigma``.
    Batches cycle through the dataset in order, so runs are a pure function
    of (seed, data, budget).  ``log_fn(step, loss, seconds)``, if given, is
    called after every step with that step's wall time.  An empty
    ``train_samples`` raises ``AnnotationError`` before any work.
    """
    if not train_samples:
        raise AnnotationError("training dataset is empty")
    params = PoseModelParams.init(config, seed=training.seed)
    optimizer = AdamState(lr=training.learning_rate)
    prepared = [
        (image,
         render_target_heatmaps(ann, config.heatmap_h, config.heatmap_w,
                                training.target_sigma, config.image_h, config.image_w),
         ann.visibility)
        for image, ann in train_samples
    ]
    losses = []
    cursor = 0
    for step in range(training.steps):
        batch = []
        for _ in range(training.batch_size):
            batch.append(prepared[cursor])
            cursor = (cursor + 1) % len(prepared)
        started = time.monotonic()
        loss = train_step(batch, params, config, skeleton_mask, optimizer)
        seconds = time.monotonic() - started
        losses.append(loss)
        if log_fn is not None:
            log_fn(step, loss, seconds)
    return params, losses


# ---------------------------------------------------------------------------
# Checkpoints: a directory of SPT1 tensors plus a manifest
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "spt-checkpoint-v1"


def save_checkpoint(directory, params: PoseModelParams, config: ModelConfig,
                    extra: dict | None = None) -> None:
    """Write a checkpoint directory, replacing any previous one by renames.

    Every file is written into a sibling temporary directory first, so an
    interrupted save leaves the previous checkpoint as it was and removes
    its own partial files.  Only a crash between the two final renames
    leaves no checkpoint at ``directory``.
    """
    directory = Path(directory)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "config": config.to_json_dict(),
        "params": {},
    }
    if extra:
        manifest.update(extra)
    directory.parent.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f".{directory.name}-", dir=directory.parent))
    try:
        staged, retired = scratch / "new", scratch / "old"
        staged.mkdir()
        for name, p in params.named_parameters():
            filename = name.replace(".", "_") + ".spt"
            save_tensor(staged / filename, p.data)
            manifest["params"][name] = filename
        (staged / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        if directory.exists():
            directory.rename(retired)
        staged.rename(directory)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def load_checkpoint(directory):
    """Rebuild (params, config, manifest) from a checkpoint directory.

    Every parameter must be a finite SPT1 tensor of its layout shape, in a
    file the manifest names inside ``directory``; anything else raises
    ``CheckpointError``.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise CheckpointError(f"{directory}: missing manifest.json")
    manifest = read_json(manifest_path, CheckpointError)
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{directory}: manifest.json is not a JSON object")
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{directory}: unknown format {manifest.get('format')!r}")
    absent = [key for key in ("config", "params") if key not in manifest]
    if absent:
        raise CheckpointError(f"{directory}: manifest.json lacks {absent}")
    stored = manifest["params"]
    if not isinstance(stored, dict) or not all(isinstance(f, str) for f in stored.values()):
        raise CheckpointError(f"{directory}: manifest params is not an object of file names")
    config = from_json(ModelConfig, manifest["config"], f"{manifest_path} config",
                       CheckpointError)
    expected = {name: shape for name, shape, _ in parameter_layout(config)}
    missing = sorted(set(expected) - set(stored))
    extra_names = sorted(set(stored) - set(expected))
    if missing or extra_names:
        raise CheckpointError(
            f"{directory}: manifest/config mismatch (missing {missing}, unexpected {extra_names})"
        )
    arrays = {}
    for name, shape in expected.items():
        filename = stored[name]
        path = directory / filename
        if Path(filename).name != filename or not path.is_file():
            raise CheckpointError(f"{directory}: parameter {name}: no tensor file {filename!r}")
        try:
            arr = load_tensor(path)
        except FormatError as exc:
            raise CheckpointError(f"{directory}: parameter {name}: {exc}") from exc
        if arr.shape != shape:
            raise CheckpointError(
                f"{directory}: parameter {name} has shape {arr.shape}, expected {shape}"
            )
        # NaN propagates through min and max, which allocate no mask.
        if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise CheckpointError(f"{directory}: parameter {name} holds non-finite values")
        arrays[name] = arr
    return PoseModelParams.from_arrays(config, arrays), config, manifest
