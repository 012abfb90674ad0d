"""Model assembly: patchify, forward, loss, training step, checkpoints."""

import numpy as np
import pytest

import spt.model
import spt.tensor as T
from spt.attention import encoder_block
from spt.errors import CheckpointError, ConfigError, NonFiniteLossError
from spt.formats import save_tensor
from spt.masks import AttentionMask
from spt.model import (AdamState, ModelConfig, PoseModelParams, forward,
                       full_token_mask, load_checkpoint, loss_mse,
                       patchify_embed, save_checkpoint, train_step)
from spt.pruning import PruneSchedule
from spt.rng import SplitMix64
from spt.skeleton import SkeletonSpec, compile_joint_mask, default_skeleton
from spt.tensor import Tensor

from dense_reference import ref_forward
from gradcheck import finite_difference_check


def tiny_config(**kw):
    base = dict(
        image_h=16, image_w=16, channels=1, downsample=1, patch_h=4, patch_w=4,
        embed_dim=8, heads=2, encoder_layers=2, graph_layers=1, joint_count=4,
        heatmap_h=4, heatmap_w=4, mlp_ratio=2,
        schedule=PruneSchedule(update_layers=(), keep_ratio=1.0),
    )
    base.update(kw)
    return ModelConfig(**base).validate()


def chain_skeleton(j):
    """Simple chain with one symmetric pair, for toy joint counts."""
    return SkeletonSpec(
        joint_count=j,
        names=tuple(f"j{i}" for i in range(j)),
        edges=tuple((i, i + 1) for i in range(j - 1)),
        symmetric_pairs=((0, j - 1),) if j >= 2 else (),
    )


def dense_joint_mask(j):
    return AttentionMask.ones(j)


class TestConfig:
    def test_patch_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            tiny_config(patch_h=5)

    def test_heads_must_partition_embed_dim(self):
        with pytest.raises(ConfigError):
            tiny_config(embed_dim=9)

    def test_schedule_must_fit_depth(self):
        with pytest.raises(ConfigError):
            tiny_config(schedule=PruneSchedule(update_layers=(5,), keep_ratio=0.5))

    def test_default_arithmetic(self):
        cfg = ModelConfig().validate()
        assert (cfg.encoder_layers, cfg.embed_dim, cfg.heads, cfg.graph_layers) == \
            (12, 192, 8, 8)
        assert cfg.schedule.update_layers == (3, 6, 9)
        assert cfg.num_patches == 256  # 256/4 pooled to 64, patched by 4
        assert cfg.heatmap_h * cfg.heatmap_w == 4096

    def test_num_patches_recomputed_independently(self):
        cfg = ModelConfig(image_h=256, image_w=256, channels=3, downsample=4,
                          patch_h=4, patch_w=4).validate()
        pooled = 256 // 4
        assert cfg.num_patches == (pooled // 4) * (pooled // 4)
        assert cfg.patch_dim == 3 * 4 * 4

    def test_json_round_trip(self):
        cfg = tiny_config(schedule=PruneSchedule(update_layers=(1, 2), keep_ratio=0.3))
        back = ModelConfig.from_json_dict(cfg.to_json_dict())
        assert back == cfg


class TestPatchify:
    def test_row_major_patch_layout(self):
        # 1x4x4 image in 2x2 patches: patch vectors are the row-major flattens,
        # in row-major patch order; identity projection and zero encoding expose them
        cfg = tiny_config(image_h=4, image_w=4, patch_h=2, patch_w=2, embed_dim=4,
                          heads=1, joint_count=2)
        params = PoseModelParams.init(cfg, seed=0)
        params.patch_projection = Tensor(np.eye(4), requires_grad=True)
        params.positional_encoding = Tensor(np.zeros((4, 4)), requires_grad=True)
        image = Tensor(np.arange(16.0).reshape(1, 4, 4))
        tokens = patchify_embed(image, params, cfg)
        expected = np.array([
            [0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15],
        ], dtype=np.float64)
        assert np.array_equal(tokens.data, expected)

    def test_zero_image_zero_encoding_gives_zero_tokens(self):
        cfg = tiny_config()
        params = PoseModelParams.init(cfg, seed=0)
        params.positional_encoding = Tensor(np.zeros(params.positional_encoding.shape),
                                            requires_grad=True)
        tokens = patchify_embed(Tensor(np.zeros((1, 16, 16))), params, cfg)
        assert np.array_equal(tokens.data, np.zeros(tokens.shape))

    def test_extent_mismatch(self):
        cfg = tiny_config()
        params = PoseModelParams.init(cfg, seed=0)
        with pytest.raises(ConfigError):
            patchify_embed(Tensor(np.zeros((1, 8, 8))), params, cfg)

    def test_downsample_path(self):
        cfg = tiny_config(image_h=32, image_w=32, downsample=2)
        params = PoseModelParams.init(cfg, seed=0)
        tokens = patchify_embed(Tensor(np.ones((1, 32, 32))), params, cfg)
        assert tokens.shape == (cfg.num_patches, cfg.embed_dim)

    def test_sinusoidal_encoding_is_constant(self):
        cfg = tiny_config(pos_encoding="sinusoidal")
        params = PoseModelParams.init(cfg, seed=0)
        assert not params.positional_encoding.requires_grad
        names = [n for n, _ in params.named_parameters()]
        assert "positional_encoding" not in names


class TestForward:
    def test_output_shape(self):
        cfg = tiny_config()
        params = PoseModelParams.init(cfg, seed=1)
        heatmaps, diag = forward(np.zeros((16, 16)), params, cfg,
                                 compile_joint_mask(chain_skeleton(4)))
        assert heatmaps.shape == (4, 4, 4)
        assert diag.mask_state.stage == 0

    def test_dense_settings_match_reference_forward(self):
        cfg = tiny_config(
            image_h=32, image_w=32, patch_h=4, patch_w=4, embed_dim=16, heads=2,
            encoder_layers=3, graph_layers=2, joint_count=5, heatmap_h=8,
            heatmap_w=8,
            schedule=PruneSchedule(update_layers=(2,), keep_ratio=1.0),
        )
        params = PoseModelParams.init(cfg, seed=2)
        rng = np.random.default_rng(3)
        image = rng.uniform(size=(32, 32))
        ours, _ = forward(image, params, cfg, dense_joint_mask(5))
        reference = ref_forward(image, params, cfg)
        assert np.abs(ours.data - reference).max() <= 1e-12

    def test_keypoint_rows_and_columns_stay_dense(self):
        cfg = tiny_config(
            image_h=16, image_w=16, patch_h=4, embed_dim=8, heads=2,
            encoder_layers=3, joint_count=4,
            schedule=PruneSchedule(update_layers=(1, 2), keep_ratio=0.5),
        )
        params = PoseModelParams.init(cfg, seed=4)
        _, diag = forward(np.ones((16, 16)), params, cfg,
                          compile_joint_mask(chain_skeleton(4)))
        assert diag.mask_state.stage == 2
        assert len(diag.mask_state.masks) == 3
        for stage_mask in diag.mask_state.masks[1:]:
            full = full_token_mask(stage_mask, 4)
            assert (full.bits[:4, :] == 1).all()
            assert (full.bits[:, :4] == 1).all()

    def test_records_retained_only_on_request(self):
        cfg = tiny_config(encoder_layers=2, graph_layers=1)
        params = PoseModelParams.init(cfg, seed=5)
        mask = compile_joint_mask(chain_skeleton(4))
        _, no_records = forward(np.zeros((16, 16)), params, cfg, mask)
        assert no_records.records is None
        _, with_records = forward(np.zeros((16, 16)), params, cfg, mask,
                                  keep_records=True)
        assert len(with_records.records) == 3  # 2 encoder + 1 graph

    def test_keypoint_only_last_layer_matches_full_rows(self):
        # Without records the last encoder layer computes only the keypoint
        # rows; keep_records=True runs it on every row.  Heatmaps agree bitwise.
        cfg = tiny_config(encoder_layers=3, joint_count=4,
                          schedule=PruneSchedule(update_layers=(1, 2), keep_ratio=0.5))
        params = PoseModelParams.init(cfg, seed=30)
        mask = compile_joint_mask(chain_skeleton(4))
        image = np.random.default_rng(31).uniform(size=(16, 16))
        fast, diag_fast = forward(image, params, cfg, mask)
        full, diag_full = forward(image, params, cfg, mask, keep_records=True)
        assert np.array_equal(fast.data, full.data)
        for a, b in zip(diag_fast.mask_state.masks, diag_full.mask_state.masks):
            assert a.same_bits(b)
        assert diag_full.records[2].head_average.shape == (20, 20)

    def test_last_encoder_layer_gradients_match_finite_differences(self):
        cfg = tiny_config(schedule=PruneSchedule(update_layers=(1,), keep_ratio=0.5))
        params = PoseModelParams.init(cfg, seed=32)
        mask = compile_joint_mask(chain_skeleton(4))
        rng = np.random.default_rng(33)
        image = rng.uniform(size=(16, 16))
        target = rng.uniform(size=(4, 4, 4))
        last = params.encoder_blocks[-1]

        def build():
            heatmaps, _ = forward(image, params, cfg, mask)
            return loss_mse(heatmaps, target, np.ones(4, bool))

        finite_difference_check(build, [last.mlp_w1, last.qkv_projection],
                                rtol=1e-3, max_coords=12)

    def test_head_last_layer_linearity(self):
        cfg = tiny_config()
        params = PoseModelParams.init(cfg, seed=6)
        mask = compile_joint_mask(chain_skeleton(4))
        image = np.random.default_rng(7).uniform(size=(16, 16))
        base, _ = forward(image, params, cfg, mask)
        params.head_w2 = Tensor(params.head_w2.data * 2.0, requires_grad=True)
        params.head_b2 = Tensor(params.head_b2.data * 2.0, requires_grad=True)
        doubled, _ = forward(image, params, cfg, mask)
        assert np.array_equal(doubled.data, 2.0 * base.data)

    def test_identity_joint_mask_isolates_tokens_in_graph_stage(self):
        # run the graph stage alone: with an identity mask, perturbing one
        # token leaves every other token's block output bit-identical
        rng = np.random.default_rng(8)
        d, j = 8, 5
        from spt.attention import AttentionLayerParams

        block = AttentionLayerParams.init(d, 2, SplitMix64(9))
        x = rng.normal(size=(j, d))
        out_a, _ = encoder_block(Tensor(x), AttentionMask.identity(j), block, heads=2)
        perturbed = x.copy()
        perturbed[2] += 5.0
        out_b, _ = encoder_block(Tensor(perturbed), AttentionMask.identity(j), block,
                                 heads=2)
        others = [i for i in range(j) if i != 2]
        assert np.array_equal(out_a.data[others], out_b.data[others])
        assert not np.array_equal(out_a.data[2], out_b.data[2])

    def test_wrong_joint_mask_size(self):
        cfg = tiny_config()
        params = PoseModelParams.init(cfg, seed=10)
        with pytest.raises(ConfigError):
            forward(np.zeros((16, 16)), params, cfg, dense_joint_mask(7))


class TestLoss:
    def test_zero_when_equal(self):
        pred = Tensor(np.random.default_rng(0).uniform(size=(3, 4, 4)))
        loss = loss_mse(pred, pred.data.copy(), np.ones(3, bool))
        assert loss.item() == 0.0

    def test_zero_when_all_invisible(self):
        rng = np.random.default_rng(1)
        pred = Tensor(rng.uniform(size=(3, 4, 4)))
        target = rng.uniform(size=(3, 4, 4))
        assert loss_mse(pred, target, np.zeros(3, bool)).item() == 0.0

    def test_single_pixel_closed_form(self):
        # one visible joint differs by d at one pixel: loss = d^2 / (V * H * W)
        j, h, w = 4, 3, 5
        target = np.zeros((j, h, w))
        pred = target.copy()
        d = 0.37
        pred[1, 2, 4] += d
        vis = np.array([True, True, True, False])
        loss = loss_mse(Tensor(pred), target, vis)
        assert abs(loss.item() - d * d / (3 * h * w)) <= 1e-15

    def test_invisible_joints_carry_no_gradient(self):
        rng = np.random.default_rng(2)
        pred = Tensor(rng.uniform(size=(2, 3, 3)), requires_grad=True)
        target = rng.uniform(size=(2, 3, 3))
        with T.ComputationTape() as tape:
            loss = loss_mse(pred, target, np.array([True, False]))
        T.backward(loss, tape)
        assert np.all(pred.grad[1] == 0.0)
        assert np.any(pred.grad[0] != 0.0)


class TestTrainStep:
    def batch(self, cfg, rng, size=2):
        return [
            (rng.uniform(size=(cfg.image_h, cfg.image_w)),
             rng.uniform(size=(cfg.joint_count, cfg.heatmap_h, cfg.heatmap_w)),
             np.ones(cfg.joint_count, bool))
            for _ in range(size)
        ]

    def test_zero_learning_rate_keeps_params(self):
        cfg = tiny_config()
        params = PoseModelParams.init(cfg, seed=11)
        snapshot = {n: p.data.copy() for n, p in params.named_parameters()}
        rng = np.random.default_rng(12)
        train_step(self.batch(cfg, rng), params, cfg,
                   compile_joint_mask(chain_skeleton(4)), AdamState(lr=0.0))
        for name, p in params.named_parameters():
            assert np.array_equal(p.data, snapshot[name]), name

    def test_loss_decreases_on_one_batch(self):
        cfg = tiny_config()
        params = PoseModelParams.init(cfg, seed=13)
        mask = compile_joint_mask(chain_skeleton(4))
        rng = np.random.default_rng(14)
        batch = self.batch(cfg, rng, size=1)
        opt = AdamState(lr=3e-3)
        losses = [train_step(batch, params, cfg, mask, opt) for _ in range(200)]
        for k in range(len(losses) - 50):
            assert losses[k + 50] < losses[k]

    def test_keypoint_token_gradients_match_finite_differences(self):
        cfg = tiny_config()
        params = PoseModelParams.init(cfg, seed=15)
        mask = compile_joint_mask(chain_skeleton(4))
        rng = np.random.default_rng(16)
        image = rng.uniform(size=(16, 16))
        target = rng.uniform(size=(4, 4, 4))
        vis = np.ones(4, bool)

        def build():
            heatmaps, _ = forward(image, params, cfg, mask)
            return loss_mse(heatmaps, target, vis)

        finite_difference_check(build, [params.keypoint_tokens],
                                rtol=1e-3, max_coords=12)

    def test_determinism_across_runs(self):
        cfg = tiny_config()
        mask = compile_joint_mask(chain_skeleton(4))

        def run():
            params = PoseModelParams.init(cfg, seed=17)
            opt = AdamState(lr=1e-3)
            rng = np.random.default_rng(18)
            batch = self.batch(cfg, rng)
            for _ in range(3):
                train_step(batch, params, cfg, mask, opt)
            return {n: p.data.copy() for n, p in params.named_parameters()}

        a, b = run(), run()
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_non_finite_loss_reports_batch_index(self):
        cfg = tiny_config()
        params = PoseModelParams.init(cfg, seed=19)
        mask = compile_joint_mask(chain_skeleton(4))
        rng = np.random.default_rng(20)
        batch = self.batch(cfg, rng)
        bad_target = np.full((4, 4, 4), np.nan)
        batch.append((batch[0][0], bad_target, np.ones(4, bool)))
        with T.finite_checks(False), pytest.raises(NonFiniteLossError) as err:
            train_step(batch, params, cfg, mask, AdamState())
        assert err.value.batch_index == 2

    def test_empty_batch_rejected(self):
        cfg = tiny_config()
        params = PoseModelParams.init(cfg, seed=21)
        with pytest.raises(ConfigError):
            train_step([], params, cfg, compile_joint_mask(chain_skeleton(4)),
                       AdamState())


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config(schedule=PruneSchedule(update_layers=(1,), keep_ratio=0.5))
        params = PoseModelParams.init(cfg, seed=22)
        save_checkpoint(tmp_path / "ckpt", params, cfg, extra={"config_digest": "d"})
        loaded, cfg_back, manifest = load_checkpoint(tmp_path / "ckpt")
        assert cfg_back == cfg
        assert manifest["config_digest"] == "d"
        for (name_a, a), (name_b, b) in zip(params.named_parameters(),
                                            loaded.named_parameters()):
            assert name_a == name_b
            assert np.array_equal(a.data, b.data)

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        params = PoseModelParams.init(cfg, seed=28)
        save_checkpoint(tmp_path / "ckpt", params, cfg)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(SplitMix64, "normal_array", no_draws)
        loaded, _, _ = load_checkpoint(tmp_path / "ckpt")
        for (name_a, a), (name_b, b) in zip(params.named_parameters(),
                                            loaded.named_parameters()):
            assert name_a == name_b
            assert np.array_equal(a.data, b.data) and b.requires_grad

    def test_sinusoidal_round_trip_recomputes_the_table(self, tmp_path):
        cfg = tiny_config(pos_encoding="sinusoidal")
        params = PoseModelParams.init(cfg, seed=29)
        save_checkpoint(tmp_path / "ckpt", params, cfg)
        assert not (tmp_path / "ckpt" / "positional_encoding.spt").exists()
        loaded, cfg_back, _ = load_checkpoint(tmp_path / "ckpt")
        assert cfg_back == cfg
        assert np.array_equal(loaded.positional_encoding.data, params.positional_encoding.data)
        assert not loaded.positional_encoding.requires_grad
        assert [n for n, _ in loaded.named_parameters()] == \
            [n for n, _ in params.named_parameters()]

    def test_wrong_parameter_shape(self, tmp_path):
        cfg = tiny_config()
        save_checkpoint(tmp_path / "ckpt", PoseModelParams.init(cfg, seed=34), cfg)
        save_tensor(tmp_path / "ckpt" / "head_b1.spt", np.zeros(3))
        with pytest.raises(CheckpointError, match=r"head_b1 has shape \(3,\), expected \(8,\)"):
            load_checkpoint(tmp_path / "ckpt")

    def test_interrupted_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        old = PoseModelParams.init(cfg, seed=24)
        save_checkpoint(tmp_path / "ckpt", old, cfg)
        real_save = spt.model.save_tensor
        calls = []

        def failing_save(path, array):
            calls.append(path)
            if len(calls) == 5:
                raise OSError("disk full")
            real_save(path, array)

        monkeypatch.setattr(spt.model, "save_tensor", failing_save)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(tmp_path / "ckpt", PoseModelParams.init(cfg, seed=25), cfg)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        loaded, _, _ = load_checkpoint(tmp_path / "ckpt")
        for (_, a), (_, b) in zip(old.named_parameters(), loaded.named_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_save_replaces_a_previous_checkpoint(self, tmp_path):
        cfg = tiny_config()
        save_checkpoint(tmp_path / "ckpt", PoseModelParams.init(cfg, seed=26), cfg)
        new = PoseModelParams.init(cfg, seed=27)
        save_checkpoint(tmp_path / "ckpt", new, cfg)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        loaded, _, _ = load_checkpoint(tmp_path / "ckpt")
        for (_, a), (_, b) in zip(new.named_parameters(), loaded.named_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope")

    def test_manifest_param_mismatch(self, tmp_path):
        cfg = tiny_config()
        params = PoseModelParams.init(cfg, seed=23)
        save_checkpoint(tmp_path / "ckpt", params, cfg)
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        import json

        manifest = json.loads(manifest_path.read_text())
        manifest["params"].pop("keypoint_tokens")
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="keypoint_tokens"):
            load_checkpoint(tmp_path / "ckpt")
