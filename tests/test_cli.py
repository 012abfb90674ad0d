"""End-to-end CLI runs against a temp directory."""

import argparse
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spt.cli
import spt.evaluation
from spt.cli import RunConfig, build_parser, main
from spt.data import SyntheticSceneConfig, generate_sample, generate_synthetic
from spt.errors import SptError
from spt.formats import load_pgm, save_pgm
from spt.model import (ModelConfig, PoseModelParams, TrainingConfig, forward,
                       load_checkpoint, train_model)
from spt.pruning import sparsity_report
from spt.schema import from_json
from spt.skeleton import compile_joint_mask, default_skeleton, save_skeleton


def write_run_config(tmp_path, **overrides):
    doc = {
        "model": {
            "image_h": 32, "image_w": 32, "channels": 1, "downsample": 1,
            "patch_h": 8, "patch_w": 8, "embed_dim": 16, "heads": 2,
            "encoder_layers": 3, "graph_layers": 1, "joint_count": 16,
            "heatmap_h": 8, "heatmap_w": 8, "mlp_ratio": 2,
            "pos_encoding": "learned",
            "schedule": {"update_layers": [1, 2], "keep_ratio": 0.6,
                         "k_mode": "support"},
        },
        "skeleton": None,
        "data": {"synthetic": {"seed": 11, "jitter": 3.0, "blob_sigma": 1.2},
                 "train_count": 6, "test_count": 3},
        "training": {"steps": 2, "batch_size": 2, "learning_rate": 1e-3,
                     "seed": 0, "target_sigma": 1.2},
        "output_dir": str(tmp_path / "out"),
        "decoder": "refined",
    }
    doc.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


def read_stdout(capsys):
    return capsys.readouterr().out


def scene_of(cfg):
    """The synthetic scene of the run config at ``cfg``."""
    synthetic = json.loads(Path(cfg).read_text())["data"]["synthetic"]
    return SyntheticSceneConfig(image_h=32, image_w=32, **synthetic)


def spy(monkeypatch, name, owner=spt.cli):
    """Calls of ``owner.<name>`` as (args, kwargs), passed on to the real function."""
    real, calls = getattr(owner, name), []

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


def pbm_rows(path):
    """Bit rows of a P1 file, skipping magic, comments, and dimensions."""
    lines = [l for l in Path(path).read_text().splitlines()
             if l and not l.startswith("#")]
    assert lines[0] == "P1"
    return lines[2:]


class TestGenData:
    def test_count_zero_writes_valid_empty_file(self, tmp_path, capsys):
        cfg = write_run_config(tmp_path)
        assert main(["gen-data", "--config", str(cfg), "--count", "0",
                     "--out", str(tmp_path / "d")]) == 0
        annotations = json.loads((tmp_path / "d" / "annotations.json").read_text())
        assert annotations == []

    def test_same_config_same_digest(self, tmp_path, capsys):
        cfg = write_run_config(tmp_path)
        main(["gen-data", "--config", str(cfg), "--count", "3", "--out",
              str(tmp_path / "a")])
        first = read_stdout(capsys)
        main(["gen-data", "--config", str(cfg), "--count", "3", "--out",
              str(tmp_path / "b")])
        second = read_stdout(capsys)
        digest = [l for l in first.splitlines() if l.startswith("dataset digest")]
        assert digest == [l for l in second.splitlines() if l.startswith("dataset digest")]

    def test_digest_changes_with_seed(self, tmp_path, capsys):
        cfg_a = write_run_config(tmp_path)
        main(["gen-data", "--config", str(cfg_a), "--count", "3", "--out",
              str(tmp_path / "a")])
        first = read_stdout(capsys)
        doc = json.loads(cfg_a.read_text())
        doc["data"]["synthetic"]["seed"] = 99
        cfg_a.write_text(json.dumps(doc))
        main(["gen-data", "--config", str(cfg_a), "--count", "3", "--out",
              str(tmp_path / "b")])
        second = read_stdout(capsys)
        assert [l for l in first.splitlines() if l.startswith("dataset digest")] != \
            [l for l in second.splitlines() if l.startswith("dataset digest")]

    def test_count_is_recorded_in_run_config_and_digest(self, tmp_path, capsys):
        cfg = write_run_config(tmp_path)  # train_count 6
        runs = {}
        for name, flags in (("plain", []), ("four", ["--count", "4"]),
                            ("six", ["--count", "6"])):
            out = tmp_path / name
            assert main(["gen-data", "--config", str(cfg), "--out", str(out), *flags]) == 0
            header = (out / "img_000000.pgm").read_bytes().split(b"\n")[1]
            written = json.loads((out / "run_config.json").read_text())
            assert written.pop("output_dir") == str(out)
            runs[name] = (written, header)
        four, header = runs["four"]
        assert four["data"]["train_count"] == 4
        assert len(json.loads((tmp_path / "four" / "annotations.json").read_text())) == 4
        assert header == f"# config {four['config_digest']}".encode()
        assert header != runs["six"][1]
        assert runs["six"] == runs["plain"]

    def test_images_and_annotations_consistent(self, tmp_path):
        cfg = write_run_config(tmp_path)
        main(["gen-data", "--config", str(cfg), "--count", "2", "--out",
              str(tmp_path / "d")])
        anns = json.loads((tmp_path / "d" / "annotations.json").read_text())
        assert len(anns) == 2
        for rec in anns:
            img = load_pgm(tmp_path / "d" / rec["image"])
            assert img.shape == (32, 32)


class TestTrain:
    def test_zero_steps_checkpoint_equals_init(self, tmp_path):
        cfg = write_run_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--steps", "0"]) == 0
        params, config, _ = load_checkpoint(tmp_path / "out" / "checkpoint")
        fresh = PoseModelParams.init(config, seed=0)
        for (name, a), (_, b) in zip(params.named_parameters(),
                                     fresh.named_parameters()):
            assert np.array_equal(a.data, b.data), name

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_run_config(tmp_path)
        main(["train", "--config", str(cfg)])
        ckpt_dir = tmp_path / "out" / "checkpoint"
        first = {p.name: p.read_bytes() for p in sorted(ckpt_dir.iterdir())}
        main(["train", "--config", str(cfg)])
        second = {p.name: p.read_bytes() for p in sorted(ckpt_dir.iterdir())}
        assert first == second

    def test_log_line_count_equals_steps(self, tmp_path):
        cfg = write_run_config(tmp_path)
        main(["train", "--config", str(cfg), "--steps", "3"])
        lines = (tmp_path / "out" / "log.jsonl").read_text().splitlines()
        assert len(lines) == 3
        records = [json.loads(l) for l in lines]
        assert [r["step"] for r in records] == [0, 1, 2]
        assert all(sorted(r) == ["config_digest", "loss", "step", "wall_ms"]
                   for r in records)

    def test_interrupted_run_keeps_the_previous_log(self, tmp_path, monkeypatch):
        cfg = write_run_config(tmp_path)
        main(["train", "--config", str(cfg), "--steps", "3"])
        log = tmp_path / "out" / "log.jsonl"
        before = log.read_bytes()

        def interrupted(*args, log_fn, **kwargs):
            log_fn(0, 1.0, 0.1)
            raise KeyboardInterrupt

        monkeypatch.setattr(spt.cli, "train_model", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["train", "--config", str(cfg), "--steps", "3"])
        assert log.read_bytes() == before
        assert not [p.name for p in log.parent.iterdir() if p.name.endswith(".tmp")]

    def test_cli_and_library_train_identically(self, tmp_path):
        # 4 steps of batch 2 over 6 samples: the batch cursor wraps once.
        cfg = write_run_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--steps", "4"]) == 0
        doc = json.loads(cfg.read_text())
        train = generate_synthetic(scene_of(cfg), 9)[:6]
        params, losses = train_model(
            train, from_json(ModelConfig, doc["model"], "model"),
            compile_joint_mask(default_skeleton()),
            TrainingConfig(**{**doc["training"], "steps": 4}),
        )
        cli_params, _, _ = load_checkpoint(tmp_path / "out" / "checkpoint")
        for (name, a), (_, b) in zip(cli_params.named_parameters(),
                                     params.named_parameters()):
            assert np.array_equal(a.data, b.data), name
        log = (tmp_path / "out" / "log.jsonl").read_text().splitlines()
        assert [json.loads(l)["loss"] for l in log] == losses

    def test_sparsity_artifact_written(self, tmp_path):
        cfg = write_run_config(tmp_path)
        main(["train", "--config", str(cfg)])
        doc = json.loads((tmp_path / "out" / "sparsity.json").read_text())
        assert doc["stages"] == 2
        assert "config_digest" in doc

    def test_sparsity_is_predicted_without_a_forward(self, tmp_path, monkeypatch):
        cfg = write_run_config(tmp_path)
        forwards = spy(monkeypatch, "forward")
        assert main(["train", "--config", str(cfg), "--steps", "0"]) == 0
        assert forwards == []
        doc = json.loads((tmp_path / "out" / "sparsity.json").read_text())
        config = from_json(RunConfig, json.loads(cfg.read_text()), "run").model
        assert doc == {**sparsity_report(config).to_json_dict(),
                       "config_digest": doc["config_digest"]}


class TestEval:
    def checkpoint(self, tmp_path):
        cfg = write_run_config(tmp_path)
        main(["train", "--config", str(cfg), "--steps", "1"])
        return cfg, tmp_path / "out" / "checkpoint"

    def test_report_files_with_both_thresholds(self, tmp_path, capsys):
        cfg, ckpt = self.checkpoint(tmp_path)
        out = tmp_path / "evalout"
        assert main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["per_joint"]) == {"0.5", "0.1"}
        table = (out / "report.txt").read_text()
        assert table.startswith("# config ")
        assert "Mean@0.5" in table and "Mean@0.1" in table

    def test_empty_dataset_is_an_error(self, tmp_path):
        cfg, ckpt = self.checkpoint(tmp_path)
        doc = json.loads(Path(cfg).read_text())
        doc["data"]["test_count"] = 0
        cfg.write_text(json.dumps(doc))
        code = main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg),
                     "--out", str(tmp_path / "e")])
        assert code == 3

    def test_joint_count_mismatch_is_incompatibility(self, tmp_path):
        cfg, ckpt = self.checkpoint(tmp_path)
        anns = [{"image": {"seed": 11, "index": 0}, "joints": [[1.0, 1.0]] * 4,
                 "visible": [True] * 4, "head_size": 2.0}]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(anns))
        code = main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg),
                     "--data", str(bad), "--out", str(tmp_path / "e")])
        assert code == 6

    def test_no_visible_joint_reports_null_and_dash(self, tmp_path):
        cfg, ckpt = self.checkpoint(tmp_path)
        data = tmp_path / "hidden.json"
        data.write_text(json.dumps([{"image": {"seed": 11, "index": 0},
                                     "joints": [[5.0, 5.0]] * 16, "visible": [False] * 16,
                                     "head_size": 3.0}]))
        out = tmp_path / "e"
        assert main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg),
                     "--data", str(data), "--out", str(out)]) == 0

        def not_json(name):
            raise AssertionError(f"report.json holds {name}")
        report = json.loads((out / "report.json").read_text(), parse_constant=not_json)
        assert report["mean"] == {"0.5": None, "0.1": None}
        row = (out / "report.txt").read_text().splitlines()[2].split()
        assert row == ["checkpoint"] + ["-"] * 18  # 16 joints, Mean@0.5, Mean@0.1

    def test_skeleton_file_is_read_once(self, tmp_path, monkeypatch):
        # The joint mask and the table's joint names come from one read.
        path = tmp_path / "skeleton.json"
        save_skeleton(default_skeleton(), path)
        cfg = write_run_config(tmp_path, skeleton=str(path))
        assert main(["train", "--config", str(cfg), "--steps", "1"]) == 0
        loads = spy(monkeypatch, "load_skeleton")
        assert main(["eval", "--checkpoint", str(tmp_path / "out" / "checkpoint"),
                     "--config", str(cfg), "--out", str(tmp_path / "e")]) == 0
        assert [args for args, _ in loads] == [(str(path),)]


class TestMasks:
    def test_stage_files_and_popcounts(self, tmp_path):
        cfg = write_run_config(tmp_path)
        main(["train", "--config", str(cfg), "--steps", "1"])
        out = tmp_path / "masksout"
        assert main(["masks", "--checkpoint", str(tmp_path / "out" / "checkpoint"),
                     "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads((out / "masks_meta.json").read_text())
        stage_files = sorted(out.glob("visual_mask_stage_*.pbm"))
        assert len(stage_files) == 2  # |update_layers|
        assert meta["stages"] == 2
        for path, supports in zip(stage_files, meta["stage_row_support"]):
            popcounts = [sum(int(v) for v in row.split()) for row in pbm_rows(path)]
            assert popcounts == supports
        assert (out / "joint_mask.pbm").exists()
        assert len(list(out.glob("heatmap_*.pgm"))) == 16
        assert len(list(out.glob("attention_layer_*.csv"))) == 4  # 3 encoder + 1 graph

    def test_keep_all_masks_are_dense(self, tmp_path):
        cfg = write_run_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["model"]["schedule"]["keep_ratio"] = 1.0
        cfg.write_text(json.dumps(doc))
        main(["train", "--config", str(cfg), "--steps", "1"])
        out = tmp_path / "masksout"
        main(["masks", "--checkpoint", str(tmp_path / "out" / "checkpoint"),
              "--config", str(cfg), "--out", str(out)])
        for path in out.glob("visual_mask_stage_*.pbm"):
            assert all(set(row.split()) == {"1"} for row in pbm_rows(path))


class TestSweep:
    def test_rows_and_byte_identical_rerun(self, tmp_path):
        cfg = write_run_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--akr", "0.5", "1.0",
                     "--steps", "1"]) == 0
        table_path = tmp_path / "out" / "sweep.txt"
        first = table_path.read_bytes()
        first_json = (tmp_path / "out" / "sweep.json").read_bytes()
        assert main(["sweep", "--config", str(cfg), "--akr", "0.5", "1.0",
                     "--steps", "1"]) == 0
        assert table_path.read_bytes() == first
        assert (tmp_path / "out" / "sweep.json").read_bytes() == first_json
        lines = first.decode().splitlines()
        assert lines[0].startswith("# config ")
        assert len(lines) == 4  # digest + header + 2 ratios
        doc = json.loads(first_json)
        assert [line.split()[0] for line in lines[2:]] == ["akr=0.50", "akr=1.00"]
        assert [row["keep_ratio"] for row in doc["rows"]] == [0.5, 1.0]
        assert all("sparsity" in row for row in doc["rows"])


class TestCommandsRunWhatTheyRecord:
    """``eval`` and ``masks`` run the checkpoint's model under the recorded schedule."""

    def checkpoint(self, tmp_path):
        cfg = write_run_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--steps", "1"]) == 0
        return cfg, tmp_path / "out" / "checkpoint"

    def test_eval_runs_the_flag_schedule(self, tmp_path, monkeypatch):
        cfg, ckpt = self.checkpoint(tmp_path)
        calls = spy(monkeypatch, "evaluate_model")
        assert main(["eval", "--checkpoint", str(ckpt), "--config", str(cfg),
                     "--out", str(tmp_path / "e"), "--akr", "0.1", "--k-mode", "total"]) == 0
        [(args, _)] = calls
        assert (args[1].schedule.keep_ratio, args[1].schedule.k_mode) == (0.1, "total")

    def test_masks_follow_the_flag_keep_ratio(self, tmp_path):
        cfg, ckpt = self.checkpoint(tmp_path)
        out = tmp_path / "m"
        assert main(["masks", "--checkpoint", str(ckpt), "--config", str(cfg),
                     "--out", str(out), "--akr", "0.1"]) == 0
        params, config, _ = load_checkpoint(ckpt)
        image, _ = generate_sample(scene_of(cfg), 0)
        joint_mask = compile_joint_mask(default_skeleton())
        supports = {}
        for ratio in (0.1, config.schedule.keep_ratio):
            _, diag = forward(image, params, config.with_keep_ratio(ratio), joint_mask,
                              keep_records=True)
            supports[ratio] = [h.tolist() for h in diag.mask_state.history]
        assert supports[0.1] != supports[config.schedule.keep_ratio]
        stage_files = sorted(out.glob("visual_mask_stage_*.pbm"))
        popcounts = [[sum(int(v) for v in row.split()) for row in pbm_rows(path)]
                     for path in stage_files]
        assert popcounts == supports[0.1]

    def test_run_config_names_the_schedule_that_ran(self, tmp_path, monkeypatch):
        cfg, ckpt = self.checkpoint(tmp_path)
        flags = ["--akr", "0.3", "--k-mode", "total"]
        # The function that runs the model, where its config is, and the command.
        runs = [
            ("train_model", 1, ["train", "--config", str(cfg), "--steps", "1"]),
            ("evaluate_model", 1, ["eval", "--checkpoint", str(ckpt), "--config", str(cfg)]),
            ("forward", 2, ["masks", "--checkpoint", str(ckpt), "--config", str(cfg)]),
        ]
        for fn, position, argv in runs:
            out = tmp_path / fn
            calls = spy(monkeypatch, fn)
            assert main(argv + flags + ["--out", str(out)]) == 0
            recorded = json.loads((out / "run_config.json").read_text())["model"]
            schedule = from_json(ModelConfig, recorded, "model").schedule
            assert (schedule.keep_ratio, schedule.k_mode) == (0.3, "total")
            assert [args[position].schedule for args, _ in calls] == [schedule], fn
            monkeypatch.undo()


class TestManifest:
    def test_a_rerun_writes_the_same_bytes(self, tmp_path):
        # The script in its own process, then in this one under the suite's
        # NaN/Inf guard: every file and stdout must hash the same.
        from cli_manifest import write_manifest  # it imports this module

        script = Path(__file__).with_name("cli_manifest.py")
        env = {**os.environ, "PYTHONPATH": str(Path(spt.cli.__file__).parents[1])}
        subprocess.run([sys.executable, str(script), str(tmp_path / "a")], env=env,
                       check=True, capture_output=True, timeout=120)
        lines = write_manifest(tmp_path / "b")
        assert (tmp_path / "a" / "manifest.txt").read_text().splitlines() == lines
        assert len(lines) > 100 and any(line.startswith("sweep/stdout ") for line in lines)

    def test_blas_thread_settings_write_the_same_bytes(self, tmp_path, monkeypatch):
        # With one BLAS thread the helper threads may take work; with BLAS at
        # its default thread count they take none.  Then, in this process,
        # every call is offered and run on a helper where the sizes allow
        # (row halves keep their size floor).  All three hash the same.
        from cli_manifest import write_manifest
        from test_threads import run_on_helpers

        script = Path(__file__).with_name("cli_manifest.py")
        base = {name: value for name, value in os.environ.items()
                if name not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        base["PYTHONPATH"] = str(Path(spt.cli.__file__).parents[1])
        manifests = []
        for name, env in (("pinned", {**base, "OPENBLAS_NUM_THREADS": "1"}), ("default", base)):
            subprocess.run([sys.executable, str(script), str(tmp_path / name)], env=env,
                           check=True, capture_output=True, timeout=120)
            manifests.append((tmp_path / name / "manifest.txt").read_text().splitlines())
        run_on_helpers(monkeypatch)
        manifests.append(write_manifest(tmp_path / "helpers"))
        assert manifests[0] == manifests[1] == manifests[2]


class TestSplits:
    """Each command renders only the synthetic split it reads."""

    def test_train_renders_only_the_train_split(self, tmp_path, monkeypatch):
        cfg = write_run_config(tmp_path)
        calls = spy(monkeypatch, "generate_sample")
        assert main(["train", "--config", str(cfg), "--steps", "0"]) == 0
        assert [args[1] for args, _ in calls] == list(range(6))

    def test_eval_renders_only_the_test_split(self, tmp_path, monkeypatch):
        cfg = write_run_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--steps", "0"]) == 0
        renders = spy(monkeypatch, "generate_sample")
        evals = spy(monkeypatch, "evaluate_model")
        assert main(["eval", "--checkpoint", str(tmp_path / "out" / "checkpoint"),
                     "--config", str(cfg), "--out", str(tmp_path / "e")]) == 0
        assert [args[1] for args, _ in renders] == [6, 7, 8]
        [(args, _)] = evals
        expected = generate_synthetic(scene_of(cfg), 9)[6:]
        assert len(args[3]) == len(expected)
        for (image, ann), (want_image, want_ann) in zip(args[3], expected):
            assert np.array_equal(image, want_image)
            assert np.array_equal(ann.joints, want_ann.joints)

    @pytest.mark.parametrize("command, count", [("train", "train_count"),
                                                ("sweep", "test_count")])
    def test_empty_split_is_refused_before_any_output(self, tmp_path, monkeypatch,
                                                      command, count):
        cfg = write_run_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["data"][count] = 0
        cfg.write_text(json.dumps(doc))
        renders = spy(monkeypatch, "generate_sample")
        assert main([command, "--config", str(cfg), "--akr", "0.6"]) == 3
        assert not (tmp_path / "out").exists()
        assert renders == []  # the sweep reads its empty test split first

    def test_sweep_refused_keep_ratio_writes_nothing(self, tmp_path):
        cfg = write_run_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--akr", "0.6", "0"]) == 2
        assert not (tmp_path / "out").exists()


# The options each subcommand takes; every one of them is read by its command.
OPTIONS = {
    "gen-data": "--config --out --count",
    "train": "--config --out --seed --steps --akr --k-mode",
    "eval": "--checkpoint --config --out --akr --k-mode --decoder --data --thresholds",
    "masks": "--checkpoint --config --out --akr --k-mode --image --sample-index",
    "sweep": "--config --out --seed --steps --akr --k-mode --decoder",
}


class TestOptions:
    def test_option_inventory(self):
        [subparsers] = [action for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction)]
        found = {name: sorted(option for action in parser._actions
                              for option in action.option_strings
                              if option not in ("-h", "--help"))
                 for name, parser in subparsers.choices.items()}
        assert found == {name: sorted(flags.split()) for name, flags in OPTIONS.items()}
        assert sum(len(options) for options in found.values()) == 31

    @pytest.mark.parametrize("command, flag, value", [
        ("gen-data", "--seed", "1"), ("gen-data", "--steps", "1"),
        ("gen-data", "--akr", "0.5"), ("gen-data", "--k-mode", "total"),
        ("gen-data", "--decoder", "argmax"), ("train", "--decoder", "argmax"),
        ("eval", "--seed", "1"), ("eval", "--steps", "1"),
        ("masks", "--seed", "1"), ("masks", "--steps", "1"), ("masks", "--decoder", "argmax"),
    ])
    def test_dropped_flag_is_a_usage_error(self, command, flag, value, capsys):
        source = ["--checkpoint", "ckpt"] if command in ("eval", "masks") else ["--config", "c"]
        with pytest.raises(SystemExit) as exc:
            main([command, *source, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


class TestRunConfig:
    def test_persisted_config_reruns_identically(self, tmp_path):
        cfg = write_run_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--akr", "0.3", "--seed", "4"]) == 0
        first = tmp_path / "out"
        assert main(["train", "--config", str(first / "run_config.json"),
                     "--out", str(tmp_path / "again")]) == 0
        second = tmp_path / "again"
        assert (json.loads((first / "run_config.json").read_text())["config_digest"]
                == json.loads((second / "run_config.json").read_text())["config_digest"])
        for path in sorted((first / "checkpoint").iterdir()):
            assert path.read_bytes() == (second / "checkpoint" / path.name).read_bytes()

    def test_digest_known_answers(self, tmp_path):
        doc = json.loads(write_run_config(tmp_path).read_text())
        assert from_json(RunConfig, doc, "run").digest() == \
            "5c653a0049503e6f58a726b315d9a4caac0acdbe46df25028716e50588b570ce"
        assert RunConfig().digest() == \
            "cd7ad8278f2c9b6f840fe7a5b13627965e51a8f7b0c73b29ff8c6905c2bce7b1"

    def test_scene_check_leaves_models_the_scene_refuses_alone(self):
        # Annotation-file runs may use joint counts and extents that the
        # synthetic scene refuses; only a scene extent set unlike the model's is.
        run = from_json(RunConfig, {"model": {"image_h": 4, "image_w": 4, "downsample": 1,
                                              "patch_h": 1, "patch_w": 1, "joint_count": 4}},
                        "run")
        assert run.model.joint_count == 4

    def test_int_in_float_field_is_stored_as_float(self):
        run = from_json(RunConfig, {"training": {"learning_rate": 1}}, "run")
        assert type(run.training.learning_rate) is float


def assign(doc, path, value):
    """Set the value at a dotted key path of a JSON document."""
    *outer, key = path.split(".")
    for name in outer:
        doc = doc[name]
    doc[key] = value


def run_value(path, value, **model):
    """A train run whose config has ``value`` at the dotted key ``path``, and each
    ``model`` keyword's value at that key of the model block."""
    def setup(tmp_path):
        cfg = write_run_config(tmp_path)
        doc = json.loads(cfg.read_text())
        assign(doc, path, value)
        for key, model_value in model.items():
            assign(doc, f"model.{key}", model_value)
        cfg.write_text(json.dumps(doc))
        return ["train", "--config", str(cfg)]
    return setup


def skeleton_file(edit):
    """A train run on a skeleton file whose JSON text went through ``edit``."""
    def setup(tmp_path):
        path = tmp_path / "skeleton.json"
        save_skeleton(default_skeleton(), path)
        path.write_text(edit(path.read_text()))
        return run_value("skeleton", str(path))(tmp_path)
    return setup


def annotation_record(**fields):
    """A train run on a one-record annotation file with ``fields`` replaced."""
    def setup(tmp_path):
        record = {"image": {"seed": 11, "index": 0}, "joints": [[5.0, 5.0]] * 16,
                  "visible": [True] * 16, "head_size": 3.0, **fields}
        path = tmp_path / "annotations.json"
        path.write_text(json.dumps([record]))
        return run_value("data", {"annotations": str(path)})(tmp_path)
    return setup


def eval_data(doc):
    """An eval run on an annotation file holding the JSON document ``doc``."""
    def setup(tmp_path):
        cfg = write_run_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--steps", "0"]) == 0
        path = tmp_path / "annotations.json"
        path.write_text(json.dumps(doc))
        return ["eval", "--checkpoint", str(tmp_path / "out" / "checkpoint"), "--config",
                str(cfg), "--data", str(path), "--out", str(tmp_path / "e")]
    return setup


def eval_annotations(joint_counts):
    """An eval run on an annotation file with one record per joint count."""
    return eval_data([{"image": {"seed": 11, "index": i}, "joints": [[5.0, 5.0]] * n,
                       "visible": [True] * n, "head_size": 3.0}
                      for i, n in enumerate(joint_counts)])


def edited_checkpoint(name, edit):
    """An eval run on a checkpoint whose file ``name`` had its bytes go through ``edit``."""
    def setup(tmp_path):
        cfg = write_run_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--steps", "0"]) == 0
        path = tmp_path / "out" / "checkpoint" / name
        path.write_bytes(edit(path.read_bytes()))
        return ["eval", "--checkpoint", str(path.parent), "--config", str(cfg),
                "--out", str(tmp_path / "e")]
    return setup


def eval_flags(*flags):
    """An eval run on a freshly written checkpoint with ``flags`` added."""
    unedited = edited_checkpoint("manifest.json", lambda blob: blob)
    return lambda tmp_path: unedited(tmp_path) + list(flags)


def flipped(at, bit):
    """An edit that flips bit ``bit`` of byte ``at``."""
    return lambda blob: blob[:at] + bytes([blob[at] ^ 1 << bit]) + blob[at + 1:]


def first_value(value):
    """An edit that replaces an SPT1 tensor's first value by ``value``."""
    def edit(blob):
        offset = 8 + 4 * int.from_bytes(blob[4:8], "little")
        return blob[:offset] + struct.pack("<d", value) + blob[offset + 8:]
    return edit


def edited_manifest(edit):
    """An eval run on a checkpoint whose manifest text went through ``edit``."""
    return edited_checkpoint("manifest.json", lambda blob: edit(blob.decode()).encode())


def without(key):
    def edit(text):
        doc = json.loads(text)
        del doc[key]
        return json.dumps(doc)
    return edit


def replaced(path, value):
    def edit(text):
        doc = json.loads(text)
        assign(doc, path, value)
        return json.dumps(doc)
    return edit


def as_command(command, setup, *flags):
    """The train run ``setup`` gives, as ``command`` with ``flags``."""
    return lambda tmp_path: [command, *setup(tmp_path)[1:], *flags]


def on_checkpoint(command, setup):
    """``command`` on a freshly written checkpoint, with the config of the train
    run ``setup`` gives."""
    def make(tmp_path):
        assert main(["train", "--config", str(write_run_config(tmp_path)), "--steps", "0"]) == 0
        return [command, "--checkpoint", str(tmp_path / "out" / "checkpoint"),
                *setup(tmp_path)[1:]]
    return make


def gen_data(*flags):
    """A gen-data run on the tests' run config with ``flags`` added."""
    def setup(tmp_path):
        return ["gen-data", "--config", str(write_run_config(tmp_path)), *flags]
    return setup


def edited_run_config(edit):
    """A train run on the ``run_config.json`` of a first run, its text put through ``edit``."""
    def setup(tmp_path):
        assert main(["train", "--config", str(write_run_config(tmp_path)), "--steps", "0"]) == 0
        path = tmp_path / "out" / "run_config.json"
        path.write_text(edit(path.read_text()))
        return ["train", "--config", str(path), "--out", str(tmp_path / "again")]
    return setup


def image_file(edit=lambda blob: blob, shape=(32, 32)):
    """A masks run on a ``shape`` PGM, its bytes put through ``edit``."""
    def setup(tmp_path):
        cfg = write_run_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--steps", "0"]) == 0
        image = tmp_path / "cut.pgm"
        save_pgm(image, np.full(shape, 0.5))
        image.write_bytes(edit(image.read_bytes()))
        return ["masks", "--checkpoint", str(tmp_path / "out" / "checkpoint"),
                "--config", str(cfg), "--image", str(image), "--out", str(tmp_path / "m")]
    return setup


MALFORMED = [
    ("unknown_model_key", run_value("model.depth", 1), 2),
    ("unknown_training_key", run_value("training.epochs", 1), 2),
    ("truncated_manifest", edited_manifest(lambda text: text[: len(text) // 2]), 6),
    ("manifest_without_config", edited_manifest(without("config")), 6),
    ("manifest_without_params", edited_manifest(without("params")), 6),
    ("manifest_params_not_object", edited_manifest(replaced("params", 5)), 6),
    ("manifest_config_not_object", edited_manifest(replaced("config", 5)), 6),
    ("manifest_array", edited_manifest(lambda text: f"[{text}]"), 6),
    ("manifest_format_v2", edited_manifest(replaced("format", "spt-checkpoint-v2")), 6),
    ("tensor_cut_to_10_bytes", edited_checkpoint("head_b1.spt", lambda blob: blob[:10]), 6),
    ("tensor_trailing_byte", edited_checkpoint("head_b1.spt", lambda blob: blob + b"\0"), 6),
    ("tensor_rank_bit_flipped", edited_checkpoint("head_w2.spt", flipped(5, 1)), 6),
    ("tensor_nan_payload", edited_checkpoint("head_w2.spt", first_value(math.nan)), 6),
    ("tensor_inf_payload", edited_checkpoint("head_w2.spt", first_value(math.inf)), 6),
    ("tensor_neg_inf_payload", edited_checkpoint("head_w2.spt", first_value(-math.inf)), 6),
    ("manifest_names_missing_file", edited_manifest(replaced("params.head_b1", "gone.spt")), 6),
    ("manifest_names_outside_file", edited_manifest(replaced("params.head_b1", "../run.json")), 6),
    ("training_steps_string", run_value("training.steps", "3"), 2),
    ("training_seed_bool", run_value("training.seed", True), 2),
    ("pgm_truncated_header", image_file(lambda blob: blob[:6]), 3),
    ("pgm_truncated_body", image_file(lambda blob: blob[:100]), 3),
    ("pgm_wrong_size", image_file(shape=(32, 12)), 3),
    ("pgm_sample_above_maxval", image_file(lambda blob: blob.replace(b"\n255\n", b"\n15\n")), 3),
    ("pgm_maxval_zero", image_file(lambda blob: blob.replace(b"\n255\n", b"\n0\n")), 3),
    ("pgm_maxval_16_bit", image_file(lambda blob: blob.replace(b"\n255\n", b"\n300\n")), 3),
    ("model_value_string", run_value("model.embed_dim", "16"), 2),
    ("model_float_for_int", run_value("model.heads", 2.0), 2),
    ("model_heads_zero", run_value("model.heads", 0), 2),
    ("model_embed_dim_zero", run_value("model.embed_dim", 0, heads=1), 2),
    ("model_patch_h_zero", run_value("model.patch_h", 0), 2),
    ("model_not_object", run_value("model", []), 2),
    ("model_downsample_not_dividing", run_value("model.downsample", 3, image_h=16, image_w=16), 2),
    ("model_pos_encoding_unknown", run_value("model.pos_encoding", "rope"), 2),
    ("model_sinusoidal_width_6",
     run_value("model.pos_encoding", "sinusoidal", embed_dim=6), 2),
    ("schedule_not_object", run_value("model.schedule", 5), 2),
    ("unknown_schedule_key", run_value("model.schedule.keepratio", 0.3), 2),
    ("keep_ratio_string", run_value("model.schedule.keep_ratio", "0.5"), 2),
    ("keep_ratio_bool", run_value("model.schedule.keep_ratio", True), 2),
    ("update_layer_float", run_value("model.schedule.update_layers", [1.7]), 2),
    ("skeleton_not_string", run_value("skeleton", 5), 2),
    ("unknown_decoder", run_value("decoder", "refine"), 2),
    ("output_dir_not_string", run_value("output_dir", 5), 2),
    ("data_not_object", run_value("data", 5), 2),
    ("unknown_data_key", run_value("data.tarin_count", 5), 2),
    ("data_count_float", run_value("data.train_count", 5.9), 2),
    ("synthetic_not_object", run_value("data.synthetic", 5), 2),
    ("unknown_synthetic_key", run_value("data.synthetic.blur", 1), 2),
    ("synthetic_joint_count", run_value("data.synthetic.joint_count", 16), 2),
    ("synthetic_value_string", run_value("data.synthetic.jitter", "3"), 2),
    ("synthetic_jitter_nan", run_value("data.synthetic.jitter", math.nan), 2),
    ("synthetic_blob_sigma_infinite", run_value("data.synthetic.blob_sigma", math.inf), 2),
    ("synthetic_limb_thickness_nan", run_value("data.synthetic.limb_thickness", math.nan), 2),
    ("negative_training_steps", run_value("training.steps", -1), 2),
    ("learning_rate_nan", run_value("training.learning_rate", math.nan), 2),
    ("learning_rate_infinite", run_value("training.learning_rate", math.inf), 2),
    ("learning_rate_negative", run_value("training.learning_rate", -1e-3), 2),
    ("target_sigma_nan", run_value("training.target_sigma", math.nan), 2),
    ("target_sigma_infinite", run_value("training.target_sigma", math.inf), 2),
    ("target_sigma_zero", run_value("training.target_sigma", 0.0), 2),
    ("negative_train_count", run_value("data.train_count", -1), 2),
    ("negative_test_count", run_value("data.test_count", -1), 2),
    ("negative_gen_data_count", gen_data("--count", "-3"), 2),
    ("sweep_empty_train_split",
     as_command("sweep", run_value("data.train_count", 0), "--akr", "0.6"), 3),
    ("run_config_edited_after_writing", edited_run_config(replaced("training.steps", 1)), 2),
    ("run_config_digest_null", edited_run_config(replaced("config_digest", None)), 2),
    ("skeleton_pair_string", skeleton_file(replaced("edges", [["a", 1]])), 3),
    ("skeleton_pair_triple", skeleton_file(replaced("symmetric_pairs", [[0, 5, 1]])), 3),
    ("skeleton_count_string", skeleton_file(replaced("joint_count", "16")), 3),
    ("skeleton_unparsable", skeleton_file(lambda text: text[:20]), 3),
    ("annotation_ref_without_index", annotation_record(image={"seed": 1}), 3),
    ("annotation_ref_seed_string", annotation_record(image={"seed": "x", "index": 0}), 3),
    ("annotation_visible_strings", annotation_record(visible=["yes"] * 16), 3),
    ("annotation_ref_seed_numeric_string",
     annotation_record(image={"seed": "5", "index": 0}), 3),
    ("annotation_ref_index_bool", annotation_record(image={"seed": 5, "index": True}), 3),
    ("annotation_image_path_number", annotation_record(image=5), 3),
    ("annotation_joint_numeric_string", annotation_record(joints=[["1.5", 5.0]] * 16), 3),
    ("annotation_joint_bool", annotation_record(joints=[[5.0, True]] * 16), 3),
    ("annotation_head_size_numeric_string", annotation_record(head_size="3"), 3),
    ("annotation_head_size_bool", annotation_record(head_size=True), 3),
    ("annotation_head_size_infinite", annotation_record(head_size=float("inf")), 3),
    ("eval_record_joint_count_differs", eval_annotations((16, 15)), 6),
    ("eval_data_object", eval_data({"records": []}), 3),
    ("manifest_config_value_string", edited_manifest(replaced("config.heads", "2")), 6),
    ("manifest_schedule_not_object", edited_manifest(replaced("config.schedule", 5)), 6),
    ("manifest_config_out_of_range", edited_manifest(replaced("config.heads", 3)), 6),
    ("eval_thresholds_repeated", eval_flags("--thresholds", "0.5", "0.5"), 2),
    ("eval_threshold_nan", eval_flags("--thresholds", "nan"), 2),
    ("eval_threshold_infinite", eval_flags("--thresholds", "0.5", "inf"), 2),
]


# A well-formed skeleton whose joint count the tests' 16-joint model does not take.
THREE_JOINTS = skeleton_file(lambda text: json.dumps(
    {"joint_count": 3, "names": ["a", "b", "c"], "edges": [[0, 1]], "symmetric_pairs": []}))

# Runs refused while reading their inputs, or at their first forward or training step.
REFUSED = [
    ("gen_data_scene_joint_count",
     as_command("gen-data", run_value("model.joint_count", 14)), 2),
    ("train_skeleton_joint_count", THREE_JOINTS, 2),
    ("masks_skeleton_joint_count", on_checkpoint("masks", THREE_JOINTS), 2),
    ("train_annotation_joint_count",
     annotation_record(joints=[[5.0, 5.0]] * 14, visible=[True] * 14), 2),
    ("sweep_skeleton_joint_count", as_command("sweep", THREE_JOINTS, "--akr", "0.6"), 2),
    ("eval_skeleton_joint_count", on_checkpoint("eval", THREE_JOINTS), 2),
    ("eval_data_empty", eval_annotations(()), 3),
    ("eval_config_without_test_annotations", on_checkpoint("eval", annotation_record()), 3),
    ("eval_record_joint_count_differs", eval_annotations((16, 15)), 6),
]


class TestErrors:
    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["train", "--config", str(path)]) == 2

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"bogus": 1}))
        assert main(["train", "--config", str(path)]) == 2

    @pytest.mark.parametrize("setup, code", [case[1:] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_malformed_input_exit_codes(self, tmp_path, setup, code):
        argv = setup(tmp_path)
        args = build_parser().parse_args(argv)
        with pytest.raises(SptError):
            args.fn(args)
        assert main(argv) == code

    @pytest.mark.parametrize("name, setup", [
        ("heads", run_value("model.heads", 0)),
        ("embed_dim", run_value("model.embed_dim", 0, heads=1)),
        ("patch_h", run_value("model.patch_h", 0)),
    ])
    def test_degenerate_model_extent_error_names_the_field(self, tmp_path, capsys,
                                                           name, setup):
        assert main(setup(tmp_path)) == 2
        assert capsys.readouterr().err == f"error: run.model: {name} must be >= 1, got 0\n"

    @pytest.mark.parametrize("thresholds", [["nan"], ["0"], ["0.5", "0.5"]])
    def test_eval_checks_thresholds_before_any_forward(self, tmp_path, monkeypatch,
                                                       thresholds):
        argv = eval_flags("--thresholds", *thresholds)(tmp_path)
        forwards = spy(monkeypatch, "forward", owner=spt.evaluation)
        assert main(argv) == 2
        assert forwards == []

    # numpy warns as the weights overflow on the way to the non-finite value.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("update_layers", [[1, 2], []])
    def test_diverged_run_exits_4_under_any_schedule(self, tmp_path, update_layers):
        # Pruned, the non-finite value first shows in a prune layer's
        # attention scores; dense, in the loss.
        cfg = write_run_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["model"]["schedule"]["update_layers"] = update_layers
        doc["training"].update(learning_rate=1e300, steps=8)
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 4

    @pytest.mark.parametrize("axis", ["image_h", "image_w"])
    def test_scene_sized_unlike_the_model_is_refused_before_output(self, tmp_path, capsys,
                                                                  axis):
        assert main(run_value(f"data.synthetic.{axis}", 64)(tmp_path)) == 2
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err == (
            f"error: run: data.synthetic.{axis} is 64, but model.{axis} is 32\n")

    @pytest.mark.parametrize("setup, code", [case[1:] for case in REFUSED],
                             ids=[case[0] for case in REFUSED])
    def test_refused_run_leaves_no_output_directory(self, tmp_path, setup, code):
        out = tmp_path / "refused"
        assert main(setup(tmp_path) + ["--out", str(out)]) == code
        assert not out.exists()

    def test_sweep_checks_every_ratio_before_training(self, tmp_path, monkeypatch):
        trainings = spy(monkeypatch, "train_model", owner=spt.evaluation)
        assert main(["sweep", "--config", str(write_run_config(tmp_path)),
                     "--akr", "0.6", "0"]) == 2
        assert trainings == []

    def test_sweep_refuses_a_repeated_keep_ratio_before_training(self, tmp_path, monkeypatch,
                                                                  capsys):
        # Both runs would train the same model and write the same row twice.
        trainings = spy(monkeypatch, "train_model", owner=spt.evaluation)
        assert main(["sweep", "--config", str(write_run_config(tmp_path)),
                     "--akr", "0.6", "0.60"]) == 2
        assert trainings == []
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err == "error: keep ratios must be distinct: (0.6, 0.6)\n"
