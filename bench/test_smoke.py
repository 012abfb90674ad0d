"""Smoke run of the benchmark at the tiny config: every workload path, traced
and untraced, the self-time arithmetic, and the output checks catching a
perturbed output.  Runs in a few seconds:

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spt  # noqa: E402

import tracer as tr  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(tmp_path, workload, trace=False, seconds=0.1):
    return workloads.run_workload(spt, workload, 3, seconds, trace, tmp_path, scale="tiny")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_clean_and_reports_declared_metrics(tmp_path, workload, trace):
    result = tiny_run(tmp_path, workload, trace)
    assert result.correct, result.report["problems"]
    assert result.attempted >= 2 and result.failed == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: u for k, (_, u) in result.metrics.items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace:
        assert result.report["trace"]["nesting_errors"] == 0
    else:
        assert all(v > 0 for v, _ in result.metrics.values())


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_pruned_kept_cells_per_stage(tmp_path):
    result = tiny_run(tmp_path, "ref_infer_pruned", trace=True)
    n = 16  # tiny config: 16 patches, K = round(0.6 * 16) = 10 per row after layer 1
    assert result.metrics["pruning.kept_cells.stage1"][0] == n * 10
    assert result.metrics["pruning.kept_cells.stage2"][0] == n * n


def test_self_time_arithmetic():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    t = tr.Tracer(clock=lambda: next(ticks))
    root = t.begin("root")
    a = t.begin("a")
    leaf = t.begin("leaf")
    t.end(leaf)
    t.end(a)
    b = t.begin("b")
    t.end(b)
    t.end(root)
    assert tr.self_times(t.spans) == [10.0 - 3.0 - 4.0, 2.0, 1.0, 4.0]
    assert sum(tr.self_times(t.spans)) == root[tr.END] - root[tr.START]
    assert tr.roots_of(t.spans) == [0, 0, 0, 0]
    assert tr.nesting_errors(t.spans) == 0
    totals = tr.totals_by_root(t.spans, "root")[0]
    assert totals["a"] == [2.0, 3.0, 1, 0]


def test_overlapping_siblings_are_nesting_errors():
    spans = [["root", 0.0, 10.0, -1, None], ["a", 1.0, 5.0, 0, None],
             ["b", 4.0, 6.0, 0, None], ["c", 9.0, 11.0, 0, None]]
    assert tr.nesting_errors(spans) == 2


def test_perturbed_heatmaps_fail_every_request(tmp_path, monkeypatch):
    forward = spt.evaluation.forward

    def nudged(*args, **kwargs):
        heatmaps, diagnostics = forward(*args, **kwargs)
        return spt.tensor.Tensor(heatmaps.data + 1e-9), diagnostics

    monkeypatch.setattr(spt.evaluation, "forward", nudged)
    result = tiny_run(tmp_path, "ref_infer_pruned")
    assert not result.correct
    assert result.failed == result.attempted > 0
    assert "heatmaps off" in result.report["requests_detail"][-1]["error"]


def test_perturbed_update_fails_train_steps(tmp_path, monkeypatch):
    step = spt.model.AdamState.step

    def nudged(self, params):
        self.lr = 1.001e-3
        step(self, params)

    monkeypatch.setattr(spt.model.AdamState, "step", nudged)
    result = tiny_run(tmp_path, "ref_train")
    assert not result.correct
    assert result.failed == result.attempted > 0  # the warm-up step already diverged


def test_library_errors_count_as_failed_requests(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise spt.ConfigError("refused")

    monkeypatch.setattr(spt.evaluation, "evaluate_model", refuse)
    result = tiny_run(tmp_path, "ref_infer_dense")
    assert not result.correct
    assert result.failed == result.attempted > 0


def test_benchmark_spec_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        assert unit.match(m["unit"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and unit.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= SPEC["run_seconds"] <= 60


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ref_train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
