"""Run a fixed set of CLI commands and write a manifest of what they produce.

usage: PYTHONPATH=src python tests/cli_manifest.py OUT    (OUT must not exist)

Writes the ``tests/test_cli.py`` run config to ``OUT/run.json`` and runs, each
into its own directory under ``OUT``: ``gen-data``; ``train`` in support mode
and with ``--k-mode total --akr 0.3``; ``eval`` of both checkpoints on the
config's test split and of the first with ``--data`` on the generated
annotations; ``masks`` of both checkpoints; ``sweep --akr 1.0 0.6 0.1``; and
``train`` from files, under ``OUT/run_files.json``: the same config with its
skeleton read from ``OUT/skeleton.json`` (the default skeleton, saved) and both
annotation splits read from the ``annotations.json`` that ``gen-data`` wrote.
The commands run with ``OUT`` as the working directory, so those file paths are
relative and the config digest does not depend on where ``OUT`` is.

``OUT/manifest.txt`` then lists ``path sha256`` for every file written and for
each command's stdout (as ``<dir>/stdout``, with ``OUT`` spelled ``OUT``),
sorted by path.  ``wall_ms`` is dropped from ``log.jsonl`` lines and
``output_dir`` from ``run_config.json`` before hashing: they say when and where
a run happened, not what it computed.  Two builds of the program compare with
one ``diff`` of their manifests made on one host; the hashes depend on the
host's numpy and BLAS, so they are never committed as known answers.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from spt.cli import main
from spt.skeleton import default_skeleton, save_skeleton

from test_cli import write_run_config


def _commands(out: Path):
    """(directory, argv) of each command, in the order they run."""
    cfg = ["--config", str(out / "run.json")]
    support, total = out / "train_support" / "checkpoint", out / "train_total" / "checkpoint"
    return [
        ("data", ["gen-data", *cfg]),
        ("train_support", ["train", *cfg]),
        ("train_total", ["train", *cfg, "--k-mode", "total", "--akr", "0.3"]),
        ("eval_support", ["eval", *cfg, "--checkpoint", str(support)]),
        ("eval_total", ["eval", *cfg, "--checkpoint", str(total)]),
        ("eval_data", ["eval", *cfg, "--checkpoint", str(support),
                       "--data", str(out / "data" / "annotations.json")]),
        ("masks_support", ["masks", *cfg, "--checkpoint", str(support)]),
        ("masks_total", ["masks", *cfg, "--checkpoint", str(total)]),
        ("sweep", ["sweep", *cfg, "--akr", "1.0", "0.6", "0.1"]),
        ("train_files", ["train", "--config", str(out / "run_files.json")]),
    ]


def _write_file_inputs(out: Path) -> None:
    """``run_files.json``: the run config with a skeleton file and annotation files,
    named relative to ``out``."""
    save_skeleton(default_skeleton(), out / "skeleton.json")
    doc = json.loads((out / "run.json").read_text())
    annotations = "data/annotations.json"
    doc.update(skeleton="skeleton.json",
               data={"annotations": annotations, "test_annotations": annotations})
    (out / "run_files.json").write_text(json.dumps(doc))


def _canonical(path: Path) -> bytes:
    """The bytes of ``path``, less the fields that record when and where it ran."""
    if path.name == "log.jsonl":
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        for line in lines:
            line.pop("wall_ms")
        return "".join(json.dumps(line) + "\n" for line in lines).encode()
    if path.name == "run_config.json":
        doc = json.loads(path.read_text())
        doc.pop("output_dir")
        return json.dumps(doc, indent=2, sort_keys=True).encode()
    return path.read_bytes()


def write_manifest(out) -> list:
    """Run the command set under ``out``; write and return the manifest lines."""
    out = Path(out).absolute()  # the commands run with ``out`` as working directory
    out.mkdir(parents=True)  # a fresh directory, so no earlier file is listed
    write_run_config(out)
    _write_file_inputs(out)
    entries = {}
    for name, argv in _commands(out):
        stdout, cwd = io.StringIO(), os.getcwd()
        os.chdir(out)  # not contextlib.chdir, which needs Python 3.11
        try:
            with contextlib.redirect_stdout(stdout):
                code = main([*argv, "--out", str(out / name)])
        finally:
            os.chdir(cwd)
        if code != 0:
            raise SystemExit(f"spt {' '.join(argv)} exited {code}")
        entries[f"{name}/stdout"] = stdout.getvalue().replace(str(out), "OUT").encode()
        for path in (out / name).rglob("*"):
            if path.is_file():
                entries[path.relative_to(out).as_posix()] = _canonical(path)
    lines = [f"{path} {hashlib.sha256(data).hexdigest()}" for path, data in sorted(entries.items())]
    (out / "manifest.txt").write_text("".join(line + "\n" for line in lines))
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    print(f"{len(write_manifest(sys.argv[1]))} entries in {Path(sys.argv[1]) / 'manifest.txt'}")
