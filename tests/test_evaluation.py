"""Heatmap decoding, PCKh scoring, and the keep-ratio sweep protocol."""

import hashlib
import math

import numpy as np
import pytest

import spt.evaluation
import spt.tensor as T
from spt.data import Annotation, SyntheticSceneConfig, generate_synthetic, \
    render_target_heatmaps
from spt.errors import ConfigError
from spt.evaluation import (ablation_sweep, decode_heatmaps,
                            evaluate_model, pckh, pckh_table)
from spt.model import ModelConfig, PoseModelParams, TrainingConfig, forward
from spt.pruning import PruneSchedule, sparsity_report
from spt.skeleton import compile_joint_mask, default_skeleton


def make_ann(joints, visible=None, head_size=4.0):
    joints = np.asarray(joints, dtype=np.float64)
    visible = np.ones(len(joints), bool) if visible is None else np.asarray(visible)
    return Annotation(joints, visible, head_size, "x")


def decode_one(grid, image_h, image_w, refine=True):
    """``decode_heatmaps`` of the one-map stack [grid], as an (x, y) pair."""
    ((x, y),) = decode_heatmaps(np.asarray(grid)[None], image_h, image_w, refine)
    return x, y


def decode_stacks(count=400, seed=19):
    """Seeded (maps, image_h, image_w): J 1-16, H and W 1-8, half of them
    small-integer maps full of ties, with NaN, inf and -inf cells."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        j = int(rng.integers(1, 17))
        h, w = (int(v) for v in rng.integers(1, 9, size=2))
        if rng.uniform() < 0.5:
            maps = rng.integers(0, 3, size=(j, h, w)).astype(np.float64)
        else:
            maps = rng.normal(size=(j, h, w))
        special = rng.uniform(size=maps.shape)
        maps[special < 0.04] = np.nan
        maps[(special >= 0.04) & (special < 0.07)] = np.inf
        maps[(special >= 0.07) & (special < 0.09)] = -np.inf
        yield maps, int(rng.integers(1, 65)), int(rng.integers(1, 65))


def pckh_cases(count=100, seed=23):
    """Seeded (predictions, annotations): 1-8 samples of 1-16 joints, some
    invisible, some predictions on the alpha=0.5 boundary and some NaN."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        j, samples = int(rng.integers(1, 17)), int(rng.integers(1, 9))
        anns, preds = [], []
        for _ in range(samples):
            joints = rng.uniform(0, 64, size=(j, 2))
            head = float(rng.uniform(0.5, 12.0))
            anns.append(Annotation(joints, rng.uniform(size=j) < 0.7, head, "x"))
            pred = joints + rng.normal(scale=head * 0.4, size=(j, 2))
            pick = rng.uniform(size=j)
            pred[pick < 0.15] = joints[pick < 0.15] + [0.5 * head, 0.0]
            pred[(pick >= 0.15) & (pick < 0.2)] = np.nan
            preds.append(pred)
        yield preds, anns


class TestDecode:
    def test_one_hot_scales_exactly(self):
        grid = np.zeros((8, 8))
        grid[5, 2] = 1.0
        x, y = decode_one(grid, image_h=32, image_w=32)
        assert (x, y) == (2 * 4.0, 5 * 4.0)  # neighbors equal, no shift

    def test_uniform_map_decodes_to_origin(self):
        x, y = decode_one(np.ones((6, 6)), image_h=6, image_w=6)
        assert (x, y) == (0.0, 0.0)

    def test_quarter_shift_toward_larger_neighbor(self):
        grid = np.zeros((3, 3))
        grid[1, 1] = 1.0
        grid[1, 2] = 0.5  # right neighbor larger than left (0.2)
        grid[1, 0] = 0.2
        x, y = decode_one(grid, image_h=3, image_w=3)
        assert x == 1.25 and y == 1.0
        x, y = decode_one(grid, image_h=3, image_w=3, refine=False)
        assert x == 1.0 and y == 1.0

    def test_edge_peak_skips_shift(self):
        grid = np.zeros((3, 3))
        grid[0, 0] = 1.0
        grid[0, 1] = 0.9
        assert decode_one(grid, 3, 3) == (0.0, 0.0)

    def test_empty_map_rejected(self):
        with pytest.raises(ConfigError):
            decode_heatmaps(np.zeros((1, 0, 3)), 4, 4)
        with pytest.raises(ConfigError):
            decode_heatmaps(np.zeros((3, 3)), 4, 4)  # one map, not a stack

    def test_nan_neighbor_gives_no_shift(self):
        # argmax takes the first NaN as the peak; a NaN neighbor compares
        # false both ways, like a tie, so the keypoint stays finite.
        grid = np.zeros((3, 3))
        grid[1, 1] = grid[1, 2] = np.nan
        grid[2, 1] = 5.0
        assert decode_one(grid, 3, 3) == (1.0, 1.25)

    def test_render_then_decode_within_one_pixel(self):
        # sigma=2 interior joints, heatmap at input resolution
        rng = np.random.default_rng(0)
        for _ in range(25):
            joint = rng.uniform(6, 26, size=2)
            ann = make_ann([joint])
            maps = render_target_heatmaps(ann, 32, 32, sigma=2.0,
                                          image_h=32, image_w=32)
            x, y = decode_heatmaps(maps[:1], image_h=32, image_w=32)[0]
            assert abs(x - joint[0]) <= 1.0
            assert abs(y - joint[1]) <= 1.0

    @pytest.mark.parametrize("refine, digest", [
        (True, "be01412e8be35b03a4eb223a960f9f316ac86d18b8064fabf90f72b2b898d7e4"),
        (False, "62b5f6fb1f4b217f21eae7ff730e741a594db517997b0b056c9656f85f8f0382"),
    ])
    def test_known_answer_digest(self, refine, digest):
        # Taken from the per-map decoder this one replaced.
        hasher = hashlib.sha256()
        for maps, image_h, image_w in decode_stacks():
            hasher.update(decode_heatmaps(maps, image_h, image_w, refine=refine).tobytes())
        assert hasher.hexdigest() == digest


class TestPckh:
    @pytest.mark.filterwarnings("ignore:Mean of empty slice:RuntimeWarning")
    def test_known_answer_digest(self):
        # Taken from the per-sample scorer this one replaced.
        hasher = hashlib.sha256()
        for preds, anns in pckh_cases():
            report = pckh(preds, anns, alphas=(0.5, 0.1, 0.25))
            for a in report.alphas:
                hasher.update(report.per_joint[a].tobytes())
                hasher.update(np.float64(report.mean[a]).tobytes())
        assert hasher.hexdigest() == (
            "745011619667a0c50a00789a55d75e9ec35e2675b08127387477c4b5a1258c64")

    def test_exact_predictions_score_one(self):
        anns = [make_ann([[3.0, 4.0], [10.0, 2.0]]) for _ in range(4)]
        preds = [ann.joints.copy() for ann in anns]
        report = pckh(preds, anns)
        assert report.mean[0.5] == 1.0
        assert report.mean[0.1] == 1.0
        assert report.sample_count == 4

    def test_boundary_distance_counts_as_correct(self):
        ann = make_ann([[10.0, 10.0]], head_size=4.0)
        pred = np.array([[10.0 + 0.5 * 4.0, 10.0]])  # exactly alpha * head_size
        report = pckh([pred], [ann], alphas=(0.5,))
        assert report.per_joint[0.5][0] == 1.0
        just_outside = np.array([[10.0 + 0.5 * 4.0 + 1e-9, 10.0]])
        report = pckh([just_outside], [ann], alphas=(0.5,))
        assert report.per_joint[0.5][0] == 0.0

    def test_half_rate_counting(self):
        anns = [make_ann([[0.0, 0.0]]), make_ann([[0.0, 0.0]])]
        preds = [np.array([[0.0, 0.0]]), np.array([[50.0, 50.0]])]
        report = pckh(preds, anns, alphas=(0.5,))
        assert report.per_joint[0.5][0] == 0.5

    def test_invisible_joints_excluded_from_both_sides(self):
        anns = [make_ann([[0.0, 0.0], [5.0, 5.0]], visible=[True, False])]
        preds = [np.array([[0.0, 0.0], [99.0, 99.0]])]
        report = pckh(preds, anns, alphas=(0.5,))
        assert report.per_joint[0.5][0] == 1.0
        assert np.isnan(report.per_joint[0.5][1])
        assert report.mean[0.5] == 1.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        j = 5
        anns, preds = [], []
        for _ in range(100):
            joints = rng.uniform(0, 40, size=(j, 2))
            visible = rng.uniform(size=j) < 0.8
            head = float(rng.uniform(1.0, 8.0))
            anns.append(make_ann(joints, visible, head))
            pred = joints + rng.normal(scale=3.0, size=(j, 2))
            if rng.uniform() < 0.3:  # force exact-boundary cases
                pred[0] = joints[0] + np.array([0.5 * head, 0.0])
            preds.append(pred)
        report = pckh(preds, anns, alphas=(0.5, 0.1))
        for alpha in (0.5, 0.1):
            correct = np.zeros(j)
            seen = np.zeros(j)
            for pred, ann in zip(preds, anns):
                for joint in range(j):
                    if not ann.visibility[joint]:
                        continue
                    seen[joint] += 1
                    dist = float(np.hypot(*(pred[joint] - ann.joints[joint])))
                    if dist <= alpha * ann.head_size:
                        correct[joint] += 1
            for joint in range(j):
                expected = correct[joint] / seen[joint] if seen[joint] else np.nan
                got = report.per_joint[alpha][joint]
                assert (np.isnan(expected) and np.isnan(got)) or expected == got

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(2)
        anns = [make_ann(rng.uniform(0, 30, size=(4, 2))) for _ in range(20)]
        preds = [ann.joints + rng.normal(scale=2.0, size=(4, 2)) for ann in anns]
        report = pckh(preds, anns, alphas=(0.1, 0.5))
        assert (report.per_joint[0.1] <= report.per_joint[0.5]).all()

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        anns = [make_ann(rng.uniform(0, 30, size=(4, 2))) for _ in range(10)]
        preds = [ann.joints + rng.normal(scale=2.0, size=(4, 2)) for ann in anns]
        base = pckh(preds, anns, alphas=(0.5,))
        offset = np.array([13.0, -7.0])
        moved_anns = [make_ann(ann.joints + offset, ann.visibility, ann.head_size)
                      for ann in anns]
        moved_preds = [p + offset for p in preds]
        moved = pckh(moved_preds, moved_anns, alphas=(0.5,))
        assert np.array_equal(base.per_joint[0.5], moved.per_joint[0.5])

    def test_length_mismatch_and_empty(self):
        ann = make_ann([[0.0, 0.0]])
        with pytest.raises(ConfigError):
            pckh([], [ann])
        with pytest.raises(ConfigError):
            pckh([], [])

    def test_repeated_threshold_rejected(self):
        # Listed twice, one hit would count twice: a rate of 2.0.
        ann = make_ann([[0.0, 0.0]])
        with pytest.raises(ConfigError, match="distinct"):
            pckh([np.array([[0.0, 0.0]])], [ann], alphas=(0.5, 0.5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_or_non_positive_threshold_rejected(self, bad):
        # NaN would head a Mean@nan column and write bare NaN into
        # report.json; inf would count every visible joint as correct.
        ann = make_ann([[0.0, 0.0]])
        with pytest.raises(ConfigError, match="finite and > 0"):
            pckh([np.array([[0.0, 0.0]])], [ann], alphas=(0.5, bad))


JOINT_MASK = compile_joint_mask(default_skeleton())


def sweep_fixture_config():
    return ModelConfig(
        image_h=32, image_w=32, channels=1, downsample=1, patch_h=8, patch_w=8,
        embed_dim=16, heads=2, encoder_layers=3, graph_layers=1, joint_count=16,
        heatmap_h=8, heatmap_w=8, mlp_ratio=2,
        schedule=PruneSchedule(update_layers=(2,), keep_ratio=0.6),
    ).validate()


class TestSweep:
    def test_budget_zero_rows_are_identical(self):
        cfg = sweep_fixture_config()
        scene = SyntheticSceneConfig(seed=0, image_h=32, image_w=32, jitter=3.0,
                                     blob_sigma=1.2)
        samples = generate_synthetic(scene, 6)
        rows = ablation_sweep([0.5, 1.0], cfg, JOINT_MASK, samples[:4], samples[4:],
                              TrainingConfig(steps=0, seed=7))
        assert [ratio for ratio, _ in rows] == [0.5, 1.0]
        (_, a), (_, b) = rows
        for alpha in a.per_joint:
            assert np.array_equal(a.per_joint[alpha], b.per_joint[alpha])

    def test_single_ratio_equals_plain_evaluation(self):
        cfg = sweep_fixture_config().with_keep_ratio(1.0)
        scene = SyntheticSceneConfig(seed=1, image_h=32, image_w=32, jitter=3.0,
                                     blob_sigma=1.2)
        samples = generate_synthetic(scene, 6)
        rows = ablation_sweep([1.0], cfg, JOINT_MASK, samples[:4], samples[4:],
                              TrainingConfig(steps=0, seed=9))
        [(ratio, report)] = rows
        assert ratio == 1.0
        params = PoseModelParams.init(cfg, seed=9)
        joint_mask = compile_joint_mask(default_skeleton())
        direct = evaluate_model(params, cfg, joint_mask, samples[4:])
        for alpha in direct.per_joint:
            assert np.array_equal(report.per_joint[alpha], direct.per_joint[alpha])
        assert sparsity_report(cfg).mac_ratio == 1.0

    def test_one_forward_per_ratio_and_test_sample(self, monkeypatch):
        # Sparsity follows from the config, so the sweep runs no forward of
        # its own beyond evaluation.
        real, calls = spt.evaluation.forward, []
        monkeypatch.setattr(spt.evaluation, "forward",
                            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        scene = SyntheticSceneConfig(seed=3, image_h=32, image_w=32)
        samples = generate_synthetic(scene, 5)
        ablation_sweep([0.5, 1.0], sweep_fixture_config(), JOINT_MASK, samples[:2],
                       samples[2:], TrainingConfig(steps=0))
        assert len(calls) == 2 * 3

    def test_table_layout(self):
        cfg = sweep_fixture_config()
        scene = SyntheticSceneConfig(seed=2, image_h=32, image_w=32, jitter=3.0,
                                     blob_sigma=1.2)
        samples = generate_synthetic(scene, 4)
        rows = ablation_sweep([0.6, 1.0], cfg, JOINT_MASK, samples[:2], samples[2:],
                              TrainingConfig(steps=0, seed=3))
        names = default_skeleton().names
        table = pckh_table([(f"akr={ratio:.2f}", report) for ratio, report in rows], names)
        lines = table.strip().splitlines()
        assert len(lines) == 3  # header + one row per ratio
        header = lines[0].split()
        assert header[0] == "method"
        assert header[1:17] == list(names)
        assert header[17:] == ["Mean@0.5", "Mean@0.1"]
        assert lines[1].startswith("akr=0.60")
        assert lines[2].startswith("akr=1.00")

    @pytest.mark.parametrize("alphas, cells", [
        ((0.2, 0.3), ["100.00", "0.00", "50.00", "-"]),
        ((0.2, 0.5), ["100.00", "100.00", "100.00", "-"]),
        ((0.2, 0.1), ["100.00", "0.00", "50.00", "50.00"]),
    ])
    def test_mean_is_taken_at_the_per_joint_threshold(self, alphas, cells):
        # Joint errors of 0 and 1 px at head size 4: the second joint is
        # correct from alpha 0.25 on.
        ann = make_ann([[0.0, 0.0], [10.0, 10.0]], head_size=4.0)
        report = pckh([np.array([[0.0, 0.0], [10.0, 11.0]])], [ann], alphas)
        row = pckh_table([("model", report)], ["a", "b"]).splitlines()[1].split()
        assert row == ["model"] + cells

    @pytest.mark.parametrize("alphas, mean", [((0.2, 0.3), "Mean@0.2"),
                                              ((0.3, 0.2), "Mean@0.3"),
                                              ((0.2, 0.5), "Mean@0.5")])
    def test_mean_column_names_its_threshold(self, alphas, mean):
        ann = make_ann([[0.0, 0.0]])
        report = pckh([np.array([[0.0, 0.0]])], [ann], alphas)
        header = pckh_table([("model", report)], ["a"]).splitlines()[0].split()
        assert header == ["method", "a", mean, "Mean@0.1"]

    def test_rows_at_different_thresholds_rejected(self):
        ann = make_ann([[0.0, 0.0]])
        reports = [pckh([np.array([[0.0, 0.0]])], [ann], alphas) for alphas in ((0.5,), (0.2,))]
        with pytest.raises(ConfigError, match="one threshold"):
            pckh_table(list(zip("ab", reports)), ["j"])


class TestEvaluateModel:
    def test_parallel_matches_sequential(self):
        cfg = sweep_fixture_config()
        params = PoseModelParams.init(cfg, seed=4)
        joint_mask = compile_joint_mask(default_skeleton())
        scene = SyntheticSceneConfig(seed=5, image_h=32, image_w=32, jitter=3.0,
                                     blob_sigma=1.2)
        samples = generate_synthetic(scene, 6)
        seq = evaluate_model(params, cfg, joint_mask, samples, workers=1)
        par = evaluate_model(params, cfg, joint_mask, samples, workers=4)
        for alpha in seq.per_joint:
            assert np.array_equal(seq.per_joint[alpha], par.per_joint[alpha])

    def test_workers_run_under_the_callers_finite_guard(self, monkeypatch):
        cfg = sweep_fixture_config()
        params = PoseModelParams.init(cfg, seed=4)
        joint_mask = compile_joint_mask(default_skeleton())
        scene = SyntheticSceneConfig(seed=5, image_h=32, image_w=32, jitter=3.0,
                                     blob_sigma=1.2)
        samples = generate_synthetic(scene, 4)
        seen = set()

        def spy(*args, **kwargs):
            seen.add(T.finite_checks_enabled())
            return forward(*args, **kwargs)

        monkeypatch.setattr(spt.evaluation, "forward", spy)
        for enabled in (True, False):
            seen.clear()
            with T.finite_checks(enabled):
                evaluate_model(params, cfg, joint_mask, samples, workers=2)
            assert seen == {enabled}

    def test_decode_heatmaps_stacks(self):
        cfg = sweep_fixture_config()
        params = PoseModelParams.init(cfg, seed=6)
        joint_mask = compile_joint_mask(default_skeleton())
        heatmaps, _ = forward(np.zeros((32, 32)), params, cfg, joint_mask)
        coords = decode_heatmaps(heatmaps, cfg.image_h, cfg.image_w)
        assert coords.shape == (16, 2)
