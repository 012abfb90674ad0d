"""Command-line entry point: gen-data, train, eval, masks, sweep.

Runs are config-driven and reproducible: flags override fields of the JSON
run config, the merged effective config is always persisted next to the
outputs, and every artifact carries the config digest.  Training logs keep
wall-clock fields, everything else is a pure function of (config, inputs).

Exit codes: 0 success, 2 config/usage error, 3 data validation error,
4 non-finite loss, 5 I/O error, 6 checkpoint incompatibility.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import (Annotation, SyntheticSceneConfig, generate_sample,
                   generate_synthetic, load_annotations, save_annotations)
from .errors import (AnnotationError, CheckpointError, ConfigError, FormatError,
                     NonFiniteLossError, SkeletonError, SptError)
from .evaluation import ablation_sweep, evaluate_model, report_table, sweep_table
from .formats import load_pgm, save_csv, save_pbm, save_pgm
from .model import ModelConfig, forward, load_checkpoint, save_checkpoint, train_model
from .pruning import K_MODES
from .schema import from_json, read_json
from .skeleton import compile_joint_mask, default_skeleton, load_skeleton

DECODERS = ("refined", "argmax")


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


@dataclass
class DataConfig:
    """The run config's ``data`` block: a synthetic scene or annotation files."""

    synthetic: SyntheticSceneConfig = field(default_factory=SyntheticSceneConfig)
    train_count: int = 64
    test_count: int = 16
    annotations: str | None = None
    test_annotations: str | None = None


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    skeleton: str | None = None  # path to a skeleton JSON; None = built-in default
    data: dict = field(default_factory=lambda: {"synthetic": {}, "train_count": 64,
                                                "test_count": 16})
    training: TrainingConfig = field(default_factory=TrainingConfig)
    output_dir: str = "out"
    decoder: str = "refined"

    def __post_init__(self):
        if self.decoder not in DECODERS:
            raise ConfigError(f"decoder must be one of {DECODERS}, got {self.decoder!r}")
        self.data_config()

    def data_config(self) -> DataConfig:
        """The ``data`` block, checked; ``data`` itself stays as written."""
        return from_json(DataConfig, self.data, "data")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RunConfig":
        return from_json(cls, doc, "run")

    def digest(self) -> str:
        # output_dir is where results land, not what they are; exclude it so
        # the same run written elsewhere hashes identically.
        doc = asdict(self)
        doc.pop("output_dir", None)
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def load_run_config(path) -> RunConfig:
    return RunConfig.from_json_dict(read_json(path))


def _scene_config(run: RunConfig) -> SyntheticSceneConfig:
    """The synthetic scene; extents and joint count default to the model's."""
    scene = {"image_h": run.model.image_h, "image_w": run.model.image_w,
             "joint_count": run.model.joint_count, **run.data.get("synthetic", {})}
    return from_json(SyntheticSceneConfig, scene, "data.synthetic")


def _skeleton(run: RunConfig):
    return load_skeleton(run.skeleton) if run.skeleton else default_skeleton()


def _resolve_image(ann: Annotation, run: RunConfig, base_dir: Path) -> np.ndarray:
    if isinstance(ann.image_ref, tuple):
        scene = replace(_scene_config(run), seed=ann.image_ref[0])
        image, _ = generate_sample(scene, ann.image_ref[1])
        return image
    return load_pgm(base_dir / ann.image_ref)


def _dataset(run: RunConfig):
    """(train, test) lists of (image, Annotation) from the run's data block."""
    data = run.data_config()
    if data.annotations is not None:
        train = _file_samples(run, data.annotations)
        test = (_file_samples(run, data.test_annotations)
                if data.test_annotations is not None else [])
        return train, test
    samples = generate_synthetic(_scene_config(run), data.train_count + data.test_count)
    return samples[:data.train_count], samples[data.train_count:]


def _file_samples(run: RunConfig, path):
    path = Path(path)
    anns = load_annotations(path, image_h=run.model.image_h, image_w=run.model.image_w)
    return [(_resolve_image(ann, run, path.parent), ann) for ann in anns]


def _write_run_config(run: RunConfig, out_dir: Path) -> str:
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = run.digest()
    doc = asdict(run)
    doc["config_digest"] = digest
    (out_dir / "run_config.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return digest


def _apply_overrides(run: RunConfig, args) -> RunConfig:
    model = run.model
    if getattr(args, "akr", None) is not None and not isinstance(args.akr, list):
        model = model.with_keep_ratio(args.akr)
    if getattr(args, "k_mode", None):
        model = replace(model, schedule=replace(model.schedule, k_mode=args.k_mode))
    training = run.training
    if getattr(args, "steps", None) is not None:
        training = replace(training, steps=args.steps)
    if getattr(args, "seed", None) is not None:
        training = replace(training, seed=args.seed)
    run = replace(run, model=model, training=training)
    if getattr(args, "out", None):
        run = replace(run, output_dir=args.out)
    if getattr(args, "decoder", None):
        run = replace(run, decoder=args.decoder)
    return run


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    run = _apply_overrides(load_run_config(args.config), args)
    out_dir = Path(args.out or run.output_dir)
    digest = _write_run_config(run, out_dir)
    scene = _scene_config(run)
    count = args.count if args.count is not None else run.data_config().train_count
    annotations = []
    files = []
    for index in range(count):
        image, ann = generate_sample(scene, index)
        name = f"img_{index:06d}.pgm"
        save_pgm(out_dir / name, image, comment=f"config {digest}")
        ann.image_ref = name
        annotations.append(ann)
        files.append(name)
    save_annotations(annotations, out_dir / "annotations.json")
    files.append("annotations.json")
    hasher = hashlib.sha256()
    for name in sorted(files):
        hasher.update(name.encode())
        hasher.update((out_dir / name).read_bytes())
    print(f"wrote {count} samples to {out_dir}")
    print(f"dataset digest: sha256:{hasher.hexdigest()}")
    return 0


def cmd_train(args) -> int:
    run = _apply_overrides(load_run_config(args.config), args)
    out_dir = Path(run.output_dir)
    digest = _write_run_config(run, out_dir)
    joint_mask = compile_joint_mask(_skeleton(run))
    train_samples, _ = _dataset(run)
    if not train_samples:
        raise AnnotationError("training dataset is empty")
    cfg, tr = run.model, run.training
    with open(out_dir / "log.jsonl", "w") as log:
        def log_step(step, loss, seconds):
            log.write(json.dumps({"step": step, "loss": loss, "wall_ms": 1000.0 * seconds,
                                  "config_digest": digest}) + "\n")

        params, _ = train_model(train_samples, cfg, joint_mask, tr.steps, tr.batch_size,
                                tr.learning_rate, tr.seed, tr.target_sigma, log_fn=log_step)
    save_checkpoint(out_dir / "checkpoint", params, cfg, extra={"config_digest": digest})
    _, diag = forward(train_samples[0][0], params, cfg, joint_mask)
    stats = diag.sparsity.to_json_dict()
    stats["config_digest"] = digest
    (out_dir / "sparsity.json").write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    print(f"trained {tr.steps} steps; checkpoint at {out_dir / 'checkpoint'}")
    return 0


def _samples_for_eval(args, run: RunConfig):
    if args.data:
        samples = _file_samples(run, args.data)
    else:
        _, samples = _dataset(run)
    if not samples:
        raise AnnotationError("evaluation dataset is empty")
    return samples


def _run_for_checkpoint(args, config: ModelConfig) -> RunConfig:
    if args.config:
        run = load_run_config(args.config)
        return replace(run, model=config)
    return RunConfig(model=config)


def cmd_eval(args) -> int:
    params, config, manifest = load_checkpoint(args.checkpoint)
    run = _apply_overrides(_run_for_checkpoint(args, config), args)
    samples = _samples_for_eval(args, run)
    if samples[0][1].joint_count != config.joint_count:
        raise CheckpointError(
            f"dataset has {samples[0][1].joint_count} joints, checkpoint expects "
            f"{config.joint_count}"
        )
    joint_mask = compile_joint_mask(_skeleton(run))
    alphas = tuple(args.thresholds)
    report = evaluate_model(params, config, joint_mask, samples, alphas,
                            refine=run.decoder == "refined")
    out_dir = Path(args.out or run.output_dir)
    digest = _write_run_config(run, out_dir)
    doc = report.to_json_dict()
    doc["config_digest"] = digest
    (out_dir / "report.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    names = _skeleton(run).names
    table = f"# config {digest}\n" + report_table(report, names, label="checkpoint")
    (out_dir / "report.txt").write_text(table)
    print(table, end="")
    return 0


def cmd_masks(args) -> int:
    params, config, manifest = load_checkpoint(args.checkpoint)
    run = _apply_overrides(_run_for_checkpoint(args, config), args)
    joint_mask = compile_joint_mask(_skeleton(run))
    if args.image:
        image = load_pgm(args.image)
    else:
        image, _ = generate_sample(_scene_config(run), args.sample_index)
    out_dir = Path(args.out or run.output_dir)
    digest = _write_run_config(run, out_dir)
    heatmaps, diag = forward(image, params, config, joint_mask, keep_records=True)

    comment = f"config {digest}"
    for stage, mask in enumerate(diag.mask_state.masks[1:], start=1):
        save_pbm(out_dir / f"visual_mask_stage_{stage}.pbm", mask.bits, comment=comment)
    save_pbm(out_dir / "joint_mask.pbm", joint_mask.bits, comment=comment)
    for i, record in enumerate(diag.records, start=1):
        save_csv(out_dir / f"attention_layer_{i:02d}.csv", record.head_average,
                 comment=comment)
    maps = heatmaps.data
    for j in range(maps.shape[0]):
        peak_range = maps[j].max() - maps[j].min()
        normalized = (maps[j] - maps[j].min()) / (peak_range if peak_range > 0 else 1.0)
        save_pgm(out_dir / f"heatmap_{j:02d}.pgm", normalized, comment=comment)
    meta = {
        "config_digest": digest,
        "stages": diag.mask_state.stage,
        "stage_row_support": [h.tolist() for h in diag.mask_state.history],
        "sparsity": diag.sparsity.to_json_dict(),
    }
    (out_dir / "masks_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"wrote {diag.mask_state.stage} stage masks and {maps.shape[0]} heatmaps to {out_dir}")
    return 0


def cmd_sweep(args) -> int:
    run = _apply_overrides(load_run_config(args.config), args)
    out_dir = Path(run.output_dir)
    digest = _write_run_config(run, out_dir)
    skeleton = _skeleton(run)
    train_samples, test_samples = _dataset(run)
    if not test_samples:
        raise AnnotationError("sweep needs a non-empty test split")
    tr = run.training
    rows = ablation_sweep(
        args.akr, run.model, train_samples, test_samples, tr.steps,
        batch_size=tr.batch_size, learning_rate=tr.learning_rate, seed=tr.seed,
        skeleton=skeleton, target_sigma=tr.target_sigma,
        refine=run.decoder == "refined",
    )
    table = f"# config {digest}\n" + sweep_table(rows, skeleton.names)
    (out_dir / "sweep.txt").write_text(table)
    doc = {
        "config_digest": digest,
        "rows": [{
            "keep_ratio": row.keep_ratio,
            "report": row.report.to_json_dict(),
            "sparsity": row.sparsity.to_json_dict(),
        } for row in rows],
    }
    (out_dir / "sweep.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spt",
        description="Sparse-attention pose estimation: data generation, training, "
                    "evaluation, mask inspection, and keep-ratio sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True, single_akr=True):
        if needs_config:
            p.add_argument("--config", required=True, help="run config JSON")
        else:
            p.add_argument("--config", help="run config JSON (for data/decoder options)")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="override training seed")
        p.add_argument("--steps", type=int, help="override training steps")
        if single_akr:
            p.add_argument("--akr", type=float, help="override attention keep ratio")
        p.add_argument("--k-mode", choices=K_MODES, dest="k_mode",
                       help="top-K basis: fraction of current row support, or of N")
        p.add_argument("--decoder", choices=DECODERS,
                       help="heatmap decoder variant")

    p = sub.add_parser("gen-data", help="write synthetic PGM images + annotations")
    common(p)
    p.add_argument("--count", type=int, help="number of samples (default: train_count)")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint with PCKh")
    common(p, needs_config=False)
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.add_argument("--data", help="annotation JSON (default: config's test split)")
    p.add_argument("--thresholds", type=float, nargs="+", default=[0.5, 0.1])
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("masks", help="export masks, attention maps, heatmaps")
    common(p, needs_config=False)
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.add_argument("--image", help="input PGM (default: synthetic sample)")
    p.add_argument("--sample-index", type=int, default=0, dest="sample_index")
    p.set_defaults(fn=cmd_masks)

    p = sub.add_parser("sweep", help="train/evaluate one model per keep ratio")
    common(p, single_akr=False)
    p.add_argument("--akr", type=float, nargs="+", required=True,
                   help="keep ratios to sweep")
    p.set_defaults(fn=cmd_sweep)

    return parser


_EXIT_CODES = (
    (ConfigError, 2),
    (SkeletonError, 3),
    (AnnotationError, 3),
    (FormatError, 3),
    (NonFiniteLossError, 4),
    (CheckpointError, 6),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SptError as exc:
        for kind, code in _EXIT_CODES:
            if isinstance(exc, kind):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
