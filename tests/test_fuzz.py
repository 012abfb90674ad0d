"""Fixed-seed bit-flip fuzz of every file the CLI reads.

Each case flips one bit of a valid input file and runs the command that
reads it.  The run must end cleanly (the flip left a valid file: a digit,
a name character, a comment byte) or in a typed ``SptError`` with the exit
code documented for that kind of file, never in a traceback or another
exit code.  A flip in an SPT1 header always leaves an invalid file.

Every integer field of every config dataclass is also loaded at 0 and at
-1: the result is a config or a ``ConfigError``, never another exception.
"""

import json
from dataclasses import asdict, fields
from typing import get_type_hints

import numpy as np
import pytest

from spt.cli import DataConfig, build_parser, main
from spt.data import SyntheticSceneConfig, generate_synthetic, save_annotations
from spt.errors import (AnnotationError, CheckpointError, ConfigError, FormatError,
                        SkeletonError, SptError)
from spt.formats import save_pgm
from spt.model import ModelConfig, TrainingConfig
from spt.schema import from_json
from spt.skeleton import default_skeleton, save_skeleton

from test_cli import write_run_config

FLIPS = 24


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A tiny checkpoint plus one valid file of every other kind the CLI reads."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = write_run_config(root)
    assert main(["train", "--config", str(cfg), "--steps", "0"]) == 0
    scene = SyntheticSceneConfig(image_h=32, image_w=32, seed=11, jitter=3.0, blob_sigma=1.2)
    samples = generate_synthetic(scene, 2)
    save_annotations([ann for _, ann in samples], root / "annotations.json")
    save_skeleton(default_skeleton(), root / "skeleton.json")
    save_pgm(root / "image.pgm", samples[0][0])
    doc = json.loads(cfg.read_text())
    doc["skeleton"] = str(root / "skeleton.json")
    (root / "run_skeleton.json").write_text(json.dumps(doc))
    return root


def _eval(root, *flags, config="run.json"):
    return ["eval", "--checkpoint", str(root / "out" / "checkpoint"),
            "--config", str(root / config), "--out", str(root / "eval"), *flags]


# kind: (file under the fixture root, argv of the run that reads it, error, exit code)
KINDS = {
    "annotation_json": ("annotations.json",
                        lambda root: _eval(root, "--data", str(root / "annotations.json")),
                        AnnotationError, 3),
    "skeleton_json": ("skeleton.json", lambda root: _eval(root, config="run_skeleton.json"),
                      SkeletonError, 3),
    "checkpoint_manifest": ("out/checkpoint/manifest.json", _eval, CheckpointError, 6),
    "spt1_matrix": ("out/checkpoint/encoder_0_mlp_w1.spt", _eval, CheckpointError, 6),
    "spt1_vector": ("out/checkpoint/head_b1.spt", _eval, CheckpointError, 6),
    "pgm": ("image.pgm",
            lambda root: ["masks", "--checkpoint", str(root / "out" / "checkpoint"),
                          "--config", str(root / "run.json"), "--image", str(root / "image.pgm"),
                          "--out", str(root / "masks")],
            FormatError, 3),
}


def _header_length(kind, blob):
    """Bytes a flip may land in: the header of binary formats, all of a JSON file."""
    if kind.startswith("spt1"):
        return 8 + 4 * int.from_bytes(blob[4:8], "little")
    if kind == "pgm":
        return blob.index(b"255\n") + 4
    return len(blob)


@pytest.mark.parametrize("kind", list(KINDS))
def test_bit_flips_end_cleanly_or_in_the_documented_error(inputs, kind):
    name, argv_of, error, code = KINDS[kind]
    path = inputs / name
    original = path.read_bytes()
    span = _header_length(kind, original)
    rng = np.random.default_rng(sorted(KINDS).index(kind))
    argv = argv_of(inputs)
    failed = 0
    try:
        for _ in range(FLIPS):
            damaged = bytearray(original)
            at = int(rng.integers(span))
            damaged[at] ^= 1 << int(rng.integers(8))
            path.write_bytes(bytes(damaged))
            args = build_parser().parse_args(argv)
            try:
                args.fn(args)
            except SptError as exc:
                assert isinstance(exc, error), (at, exc)
                assert main(argv) == code, (at, exc)
                failed += 1
    finally:
        path.write_bytes(original)
    if kind.startswith("spt1"):
        assert failed == FLIPS
    else:
        assert failed >= FLIPS // 2


# (config class, integer field, value) for each config dataclass the run config holds.
LOW_INTEGERS = [(cls, f.name, value)
                for cls in (ModelConfig, TrainingConfig, DataConfig, SyntheticSceneConfig)
                for f in fields(cls) if get_type_hints(cls)[f.name] is int
                for value in (0, -1)]


@pytest.mark.parametrize("cls, name, value", LOW_INTEGERS,
                         ids=[f"{cls.__name__}.{name}={value}"
                              for cls, name, value in LOW_INTEGERS])
def test_low_integer_fields_load_or_raise_config_error(cls, name, value):
    try:
        from_json(cls, {**asdict(cls()), name: value}, "config")
    except ConfigError:
        pass
