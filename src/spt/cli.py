"""Command-line entry point: gen-data, train, eval, masks, sweep.

Runs are config-driven and reproducible: flags override fields of the JSON
run config, and every artifact carries the config digest.  Each command
returns the run it ran, and ``main`` writes that merged config as
``run_config.json`` (itself a valid ``--config``) last, only for a command
that succeeded.  Training logs keep wall-clock fields, everything else is a
pure function of (config, inputs).

Each command takes only the flags it reads:

    gen-data  --config --out --count
    train     --config --out --seed --steps --akr --k-mode
    eval      --checkpoint --config --out --akr --k-mode --decoder --data --thresholds
    masks     --checkpoint --config --out --akr --k-mode --image --sample-index
    sweep     --config --out --seed --steps --akr RATIO... --k-mode --decoder

``eval`` and ``masks`` take the architecture from the checkpoint and the
schedule from the run config they write: the checkpoint's trained schedule
with ``--akr`` and ``--k-mode`` applied.  Their ``--config`` is optional.

Exit codes: 0 success, 1 any other ``SptError`` (such as a ``ShapeError``
from a library call), 2 config/usage error, 3 data validation error,
4 non-finite loss or value, 5 I/O error, 6 checkpoint incompatibility.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import (TEMPLATE_POSE, Annotation, SyntheticSceneConfig, generate_sample,
                   load_annotations, save_annotations)
from .errors import (AnnotationError, CheckpointError, ConfigError, FormatError,
                     NonFiniteLossError, NonFiniteValueError, SkeletonError, SptError)
from .evaluation import DEFAULT_ALPHAS, ablation_sweep, evaluate_model, pckh_table
from .formats import atomic_write, load_pgm, save_csv, save_pbm, save_pgm
from .model import (ModelConfig, TrainingConfig, forward, load_checkpoint, save_checkpoint,
                    train_model)
from .pruning import K_MODES, sparsity_report
from .schema import from_json, read_json
from .skeleton import compile_joint_mask, default_skeleton, load_skeleton

DECODERS = ("refined", "argmax")


@dataclass
class DataConfig:
    """The run config's ``data`` block: a synthetic scene or annotation files."""

    synthetic: SyntheticSceneConfig = field(default_factory=SyntheticSceneConfig)
    train_count: int = 64
    test_count: int = 16
    annotations: str | None = None
    test_annotations: str | None = None

    def __post_init__(self):
        if self.train_count < 0 or self.test_count < 0:
            raise ConfigError(f"need train_count and test_count >= 0, got "
                              f"{self.train_count} and {self.test_count}")


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    skeleton: str | None = None  # path to a skeleton JSON; None = built-in default
    data: dict = field(default_factory=lambda: {
        "synthetic": {}, "train_count": DataConfig.train_count,
        "test_count": DataConfig.test_count})
    training: TrainingConfig = field(default_factory=TrainingConfig)
    output_dir: str = "out"
    decoder: str = "refined"

    def __post_init__(self):
        if self.decoder not in DECODERS:
            raise ConfigError(f"decoder must be one of {DECODERS}, got {self.decoder!r}")
        self.data_config()
        synthetic = self.data.get("synthetic", {})  # _scene_config's extents default to the model's
        for axis in ("image_h", "image_w"):
            want = getattr(self.model, axis)
            if synthetic.get(axis, want) != want:
                raise ConfigError(f"data.synthetic.{axis} is {synthetic[axis]}, "
                                  f"but model.{axis} is {want}")

    def data_config(self) -> DataConfig:
        """The ``data`` block, checked; ``data`` itself stays as written."""
        return from_json(DataConfig, self.data, "data")

    def digest(self) -> str:
        # output_dir is where results land, not what they are; exclude it so
        # the same run written elsewhere hashes identically.
        doc = asdict(self)
        doc.pop("output_dir", None)
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def load_run_config(path) -> RunConfig:
    """A run config file; the ``config_digest`` of a ``run_config.json`` must match."""
    doc = read_json(path)
    has_digest = isinstance(doc, dict) and "config_digest" in doc
    recorded = doc.pop("config_digest") if has_digest else None
    run = from_json(RunConfig, doc, "run")
    if has_digest and recorded != run.digest():
        raise ConfigError(f"{path}: config_digest does not match; the file was edited "
                          "after it was written")
    return run


def _scene_config(run: RunConfig) -> SyntheticSceneConfig:
    """The synthetic scene, its extents defaulting to the model's.  A model whose joint
    count is not the template pose's is refused with ``ConfigError``."""
    if run.model.joint_count != len(TEMPLATE_POSE):
        raise ConfigError(f"synthetic scenes have {len(TEMPLATE_POSE)} joints, "
                          f"but model.joint_count is {run.model.joint_count}")
    scene = {"image_h": run.model.image_h, "image_w": run.model.image_w,
             **run.data.get("synthetic", {})}
    return from_json(SyntheticSceneConfig, scene, "data.synthetic")


def _skeleton(run: RunConfig):
    return load_skeleton(run.skeleton) if run.skeleton else default_skeleton()


def _load_image(path, model: ModelConfig) -> np.ndarray:
    """A PGM input image; FormatError unless the model takes its size."""
    image = load_pgm(path)
    if model.channels != 1 or image.shape != (model.image_h, model.image_w):
        raise FormatError(f"{path}: {image.shape[1]}x{image.shape[0]} grayscale image, but the "
                          f"model takes {model.channels}-channel {model.image_w}x{model.image_h}")
    return image


def _resolve_image(ann: Annotation, run: RunConfig, base_dir: Path) -> np.ndarray:
    if isinstance(ann.image_ref, tuple):
        scene = replace(_scene_config(run), seed=ann.image_ref[0])
        image, _ = generate_sample(scene, ann.image_ref[1])
        return image
    return _load_image(base_dir / ann.image_ref, run.model)


def _split(run: RunConfig, name: str, path=None):
    """The ``"train"`` or ``"test"`` list of (image, Annotation) from the annotation
    file ``path``, else from that split alone of the run's data block.  Synthetic
    test samples follow the train indices.  An empty split raises ``AnnotationError``."""
    data = run.data_config()
    train = name == "train"
    if path is None and data.annotations is not None:
        path = data.annotations if train else data.test_annotations
    if path is not None:
        anns = load_annotations(path, image_h=run.model.image_h, image_w=run.model.image_w)
        samples = [(_resolve_image(ann, run, Path(path).parent), ann) for ann in anns]
    elif data.annotations is not None:
        samples = []  # annotation files, but none for this split
    else:
        scene = _scene_config(run)
        first, count = (0, data.train_count) if train else (data.train_count, data.test_count)
        samples = [generate_sample(scene, index) for index in range(first, first + count)]
    if not samples:
        raise AnnotationError(f"the {name} split is empty")
    return samples


def _write_json(path: Path, doc: dict, digest: str) -> None:
    """``doc`` and its ``config_digest`` as indented JSON with sorted keys."""
    with atomic_write(path) as fh:
        fh.write(json.dumps({**doc, "config_digest": digest}, indent=2, sort_keys=True) + "\n")


def _apply_overrides(run: RunConfig, args) -> RunConfig:
    """``run`` with the field of each flag the command was given set from it."""
    def given(**flags):
        return {name: getattr(args, flag) for name, flag in flags.items()
                if getattr(args, flag, None) not in (None, "")}

    schedule = replace(run.model.schedule, **given(keep_ratio="akr", k_mode="k_mode"))
    return replace(run, model=replace(run.model, schedule=schedule),
                   data={**run.data, **given(train_count="count")},
                   training=replace(run.training, **given(steps="steps", seed="seed")),
                   **given(output_dir="out", decoder="decoder"))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> RunConfig:
    run = _apply_overrides(load_run_config(args.config), args)
    out_dir, digest = Path(run.output_dir), run.digest()
    scene = _scene_config(run)
    count = run.data_config().train_count
    annotations = []
    for index in range(count):
        image, ann = generate_sample(scene, index)
        ann.image_ref = f"img_{index:06d}.pgm"
        save_pgm(out_dir / ann.image_ref, image, comment=f"config {digest}")
        annotations.append(ann)
    save_annotations(annotations, out_dir / "annotations.json")
    hasher = hashlib.sha256()
    for name in sorted([ann.image_ref for ann in annotations] + ["annotations.json"]):
        hasher.update(name.encode())
        hasher.update((out_dir / name).read_bytes())
    print(f"wrote {count} samples to {out_dir}")
    print(f"dataset digest: sha256:{hasher.hexdigest()}")
    return run


def cmd_train(args) -> RunConfig:
    run = _apply_overrides(load_run_config(args.config), args)
    train_samples = _split(run, "train")
    joint_mask = compile_joint_mask(_skeleton(run))
    out_dir, digest, cfg = Path(run.output_dir), run.digest(), run.model
    log = []  # written once training has succeeded

    def log_step(step, loss, seconds):
        log.append(json.dumps({"step": step, "loss": loss, "wall_ms": 1000.0 * seconds,
                               "config_digest": digest}) + "\n")

    params, _ = train_model(train_samples, cfg, joint_mask, run.training, log_fn=log_step)
    with atomic_write(out_dir / "log.jsonl") as fh:
        fh.writelines(log)
    save_checkpoint(out_dir / "checkpoint", params, cfg, extra={"config_digest": digest})
    _write_json(out_dir / "sparsity.json", sparsity_report(cfg).to_json_dict(), digest)
    print(f"trained {run.training.steps} steps; checkpoint at {out_dir / 'checkpoint'}")
    return run


def _checkpoint_run(args):
    """The checkpoint's parameters, and its model under the run config and flags."""
    params, config, _ = load_checkpoint(args.checkpoint)
    run = load_run_config(args.config) if args.config else RunConfig()
    return params, _apply_overrides(replace(run, model=config), args)


def cmd_eval(args) -> RunConfig:
    params, run = _checkpoint_run(args)
    samples = _split(run, "test", args.data)
    for index, (_, ann) in enumerate(samples):
        if ann.joint_count != run.model.joint_count:
            raise CheckpointError(f"dataset record {index} has {ann.joint_count} joints, "
                                  f"checkpoint expects {run.model.joint_count}")
    skeleton = _skeleton(run)
    joint_mask = compile_joint_mask(skeleton)
    report = evaluate_model(params, run.model, joint_mask, samples, args.thresholds,
                            refine=run.decoder == "refined")
    out_dir, digest = Path(run.output_dir), run.digest()
    _write_json(out_dir / "report.json", report.to_json_dict(), digest)
    table = f"# config {digest}\n" + pckh_table([("checkpoint", report)], skeleton.names)
    with atomic_write(out_dir / "report.txt") as fh:
        fh.write(table)
    print(table, end="")
    return run


def cmd_masks(args) -> RunConfig:
    params, run = _checkpoint_run(args)
    joint_mask = compile_joint_mask(_skeleton(run))
    if args.image:
        image = _load_image(args.image, run.model)
    else:
        image, _ = generate_sample(_scene_config(run), args.sample_index)
    heatmaps, diag = forward(image, params, run.model, joint_mask, keep_records=True)
    out_dir, digest = Path(run.output_dir), run.digest()
    comment = f"config {digest}"
    for stage, mask in enumerate(diag.mask_state.masks[1:], start=1):
        save_pbm(out_dir / f"visual_mask_stage_{stage}.pbm", mask.bits, comment=comment)
    save_pbm(out_dir / "joint_mask.pbm", joint_mask.bits, comment=comment)
    for i, head_average in enumerate(diag.records, start=1):
        save_csv(out_dir / f"attention_layer_{i:02d}.csv", head_average, comment=comment)
    maps = heatmaps.data
    for j in range(maps.shape[0]):
        peak_range = maps[j].max() - maps[j].min()
        normalized = (maps[j] - maps[j].min()) / (peak_range if peak_range > 0 else 1.0)
        save_pgm(out_dir / f"heatmap_{j:02d}.pgm", normalized, comment=comment)
    history = diag.mask_state.history
    _write_json(out_dir / "masks_meta.json", {
        "stages": len(history),
        "stage_row_support": [h.tolist() for h in history],
        "sparsity": diag.sparsity.to_json_dict(),
    }, digest)
    print(f"wrote {len(history)} stage masks and {maps.shape[0]} heatmaps to {out_dir}")
    return run


def cmd_sweep(args) -> RunConfig:
    run = _apply_overrides(load_run_config(args.config), args)
    test_samples = _split(run, "test")
    train_samples = _split(run, "train")
    skeleton = _skeleton(run)
    rows = ablation_sweep(args.keep_ratios, run.model, compile_joint_mask(skeleton),
                          train_samples, test_samples, run.training,
                          refine=run.decoder == "refined")
    out_dir, digest = Path(run.output_dir), run.digest()
    table = f"# config {digest}\n" + pckh_table(
        [(f"akr={ratio:.2f}", report) for ratio, report in rows], skeleton.names)
    with atomic_write(out_dir / "sweep.txt") as fh:
        fh.write(table)
    _write_json(out_dir / "sweep.json", {"rows": [{
        "keep_ratio": ratio,
        "report": report.to_json_dict(),
        "sparsity": sparsity_report(run.model.with_keep_ratio(ratio)).to_json_dict(),
    } for ratio, report in rows]}, digest)
    print(table, end="")
    return run


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


# The flags several commands share; each command lists the ones it reads.
_FLAGS = {
    "--checkpoint": dict(required=True, help="checkpoint directory"),
    "--out": dict(help="output directory (overrides config)"),
    "--seed": dict(type=int, help="override training seed"),
    "--steps": dict(type=int, help="override training steps"),
    "--akr": dict(type=float, help="override attention keep ratio"),
    "--k-mode": dict(choices=K_MODES, dest="k_mode",
                     help="top-K basis: fraction of current row support, or of N "
                          "(prunes at the first update only)"),
    "--decoder": dict(choices=DECODERS, help="heatmap decoder variant"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spt",
        description="Sparse-attention pose estimation: data generation, training, "
                    "evaluation, mask inspection, and keep-ratio sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, flags, config_help=None):
        """Subcommand with ``--config`` (optional given ``config_help``) and ``flags``."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("--config", required=config_help is None,
                       help=config_help or "run config JSON")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    p = command("gen-data", cmd_gen_data, "write synthetic PGM images + annotations",
                ["--out"])
    p.add_argument("--count", type=int,
                   help="number of samples; sets data.train_count (default: the config's)")

    command("train", cmd_train, "train a model and write a checkpoint",
            ["--out", "--seed", "--steps", "--akr", "--k-mode"])

    p = command("eval", cmd_eval, "evaluate a checkpoint with PCKh",
                ["--checkpoint", "--out", "--akr", "--k-mode", "--decoder"],
                config_help="run config JSON whose data, skeleton, decoder and output_dir "
                            "eval reads; the model comes from the checkpoint")
    p.add_argument("--data", help="annotation JSON (default: config's test split)")
    p.add_argument("--thresholds", type=float, nargs="+", default=list(DEFAULT_ALPHAS))

    p = command("masks", cmd_masks, "export masks, attention maps, heatmaps",
                ["--checkpoint", "--out", "--akr", "--k-mode"],
                config_help="run config JSON whose data.synthetic (for the default "
                            "image), skeleton and output_dir masks reads; the model comes "
                            "from the checkpoint")
    p.add_argument("--image", help="input PGM (default: synthetic sample)")
    p.add_argument("--sample-index", type=int, default=0, dest="sample_index")

    p = command("sweep", cmd_sweep, "train/evaluate one model per keep ratio",
                ["--out", "--seed", "--steps", "--k-mode", "--decoder"])
    p.add_argument("--akr", type=float, nargs="+", required=True, dest="keep_ratios",
                   metavar="RATIO", help="keep ratios to sweep")
    return parser


_EXIT_CODES = (
    (ConfigError, 2),
    (SkeletonError, 3),
    (AnnotationError, 3),
    (FormatError, 3),
    (NonFiniteLossError, 4),
    (NonFiniteValueError, 4),
    (CheckpointError, 6),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = args.fn(args)
        _write_json(Path(run.output_dir) / "run_config.json", asdict(run), run.digest())
        return 0
    except SptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kind, code in _EXIT_CODES if isinstance(exc, kind)), 1)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
