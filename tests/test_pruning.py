"""Top-K mask extraction, the update schedule, and sparsity accounting."""

import numpy as np
import pytest

from spt.errors import ConfigError, NonFiniteValueError
from spt.masks import AttentionMask
from spt.model import ModelConfig, PoseModelParams, forward
from spt.pruning import (K_MODES, MaskState, PruneSchedule, apply_prune_schedule,
                         round_half_up, sparsity_report, topk_row_mask)

from mask_helpers import same_bits


def brute_force_topk_row(values, kept_columns, k):
    """Oracle: sort candidates by (-value, column), take the first k."""
    ranked = sorted(kept_columns, key=lambda c: (-values[c], c))
    return set(ranked[:k])


class TestRounding:
    def test_half_away_from_zero(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(1.5) == 2
        assert round_half_up(2.5) == 3  # not bankers rounding
        assert round_half_up(2.4999) == 2


class TestTopkRowMask:
    def test_ordered_values_top_two(self):
        attn = np.array([[0.5, 0.3, 0.15, 0.05]])
        out = topk_row_mask(attn, AttentionMask.ones(1, 4), PruneSchedule(keep_ratio=0.5))
        assert np.array_equal(out.bits, [[1, 1, 0, 0]])

    def test_keep_ratio_one_is_identity(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(6, 6)).astype(np.uint8)
        bits[:, 0] = 1
        prev = AttentionMask(bits)
        attn = rng.uniform(size=(6, 6))
        out = topk_row_mask(attn, prev, PruneSchedule(keep_ratio=1.0))
        assert same_bits(out, prev)

    def test_tie_breaks_toward_lower_column(self):
        # K = max(1, round(0.34 * 3)) = max(1, round(1.02)) = 1; columns 0 and 1
        # tie at 0.4, so column 0 wins
        attn = np.array([[0.4, 0.4, 0.2]])
        out = topk_row_mask(attn, AttentionMask.ones(1, 3), PruneSchedule(keep_ratio=0.34))
        assert np.array_equal(out.bits, [[1, 0, 0]])

    def test_selection_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            # quantized scores force frequent ties
            attn = rng.integers(0, 4, size=(n, n)) / 4.0
            bits = rng.integers(0, 2, size=(n, n)).astype(np.uint8)
            bits[np.arange(n), rng.integers(0, n, size=n)] = 1
            prev = AttentionMask(bits)
            keep_ratio = float(rng.uniform(0.05, 1.0))
            out = topk_row_mask(attn, prev, PruneSchedule(keep_ratio=keep_ratio))
            for i in range(n):
                kept_before = np.flatnonzero(prev.bits[i])
                k = min(kept_before.size,
                        max(1, round_half_up(keep_ratio * kept_before.size)))
                expected = brute_force_topk_row(attn[i], kept_before.tolist(), k)
                assert set(np.flatnonzero(out.bits[i]).tolist()) == expected

    @pytest.mark.parametrize("k_mode", ["support", "total"])
    def test_matches_per_row_loop_reference(self, k_mode):
        # The reference elects each row on its own, as a Python loop; rows
        # of the previous mask keep 1 to N columns, and scores on a coarse
        # grid plant ties inside every row.
        rng = np.random.default_rng(6)
        for n in (1, 2, 5, 16, 33):
            support = np.resize(np.arange(1, n + 1), n)
            bits = np.zeros((n, n), dtype=np.uint8)
            for i in range(n):
                bits[i, rng.choice(n, size=support[i], replace=False)] = 1
            prev = AttentionMask(bits)
            scores = rng.integers(0, 3, size=(n, n)) / 3.0
            for keep_ratio in (0.05, 0.25, 0.5, 0.6, 1.0):
                schedule = PruneSchedule(keep_ratio=keep_ratio, k_mode=k_mode)
                out = topk_row_mask(scores, prev, schedule)
                expected = np.zeros((n, n), dtype=np.uint8)
                for i in range(n):
                    kept = np.flatnonzero(prev.bits[i]).tolist()
                    basis = len(kept) if k_mode == "support" else n
                    k = min(len(kept), max(1, round_half_up(keep_ratio * basis)))
                    expected[i, sorted(brute_force_topk_row(scores[i], kept, k))] = 1
                assert np.array_equal(out.bits, expected), (n, keep_ratio)

    def test_rows_tied_at_their_kth_score_among_untied_rows(self):
        # Every third row ties its K-th and (K+1)-th largest kept scores;
        # the other rows hold distinct scores, some with ties above the
        # K-th.  Only the tied rows keep more than K columns at or above
        # the K-th score.
        rng = np.random.default_rng(12)
        n, keep_ratio = 12, 0.5
        bits = (rng.random((n, n)) < 0.7).astype(np.uint8)
        bits[:, :4] = 1
        prev = AttentionMask(bits)
        scores = np.empty((n, n))
        tied_rows = []
        for i in range(n):
            scores[i] = rng.permutation(n) / n
            kept = np.flatnonzero(bits[i])
            k = max(1, round_half_up(keep_ratio * kept.size))
            ranked = kept[np.argsort(-scores[i, kept])]
            if i % 3 == 1:
                scores[i, ranked[k]] = scores[i, ranked[k - 1]]
                tied_rows.append(i)
            elif i % 3 == 2:
                scores[i, ranked[0]] = scores[i, ranked[1]]
        out = topk_row_mask(scores, prev, PruneSchedule(keep_ratio=keep_ratio))
        expected = np.zeros((n, n), dtype=np.uint8)
        for i in range(n):
            kept = np.flatnonzero(bits[i])
            k = max(1, round_half_up(keep_ratio * kept.size))
            kth = np.sort(scores[i, kept])[::-1][k - 1]
            assert ((scores[i, kept] >= kth).sum() > k) == (i in tied_rows)
            expected[i, sorted(brute_force_topk_row(scores[i], kept.tolist(), k))] = 1
        assert np.array_equal(out.bits, expected)

    def test_subset_of_previous_support(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=(8, 8)).astype(np.uint8)
        np.fill_diagonal(bits, 1)
        prev = AttentionMask(bits)
        out = topk_row_mask(rng.uniform(size=(8, 8)), prev, PruneSchedule(keep_ratio=0.4))
        assert ((out.bits == 1) <= (prev.bits == 1)).all()

    def test_minimum_support_one_even_for_equal_rows(self):
        attn = np.full((4, 4), 0.25)
        out = topk_row_mask(attn, AttentionMask.ones(4), PruneSchedule(keep_ratio=0.01))
        assert (out.row_support == 1).all()

    def test_determinism(self):
        rng = np.random.default_rng(3)
        attn = rng.uniform(size=(7, 7))
        prev = AttentionMask.ones(7)
        a = topk_row_mask(attn, prev, PruneSchedule(keep_ratio=0.37))
        b = topk_row_mask(attn.copy(), prev, PruneSchedule(keep_ratio=0.37))
        assert same_bits(a, b)

    def test_keep_ratio_out_of_range(self):
        # the keep ratio is checked where the schedule is built, so an
        # out-of-range ratio never reaches the selection
        with pytest.raises(ConfigError):
            topk_row_mask(np.ones((2, 2)), AttentionMask.ones(2), PruneSchedule(keep_ratio=0.0))
        with pytest.raises(ConfigError):
            topk_row_mask(np.ones((2, 2)), AttentionMask.ones(2), PruneSchedule(keep_ratio=1.5))

    def test_scores_shaped_unlike_the_mask_are_rejected(self):
        with pytest.raises(ConfigError, match="does not match"):
            topk_row_mask(np.ones((2, 3)), AttentionMask.ones(2), PruneSchedule(keep_ratio=0.5))

    def test_non_finite_scores_are_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            attn = np.full((2, 3), 0.25)
            attn[1, 2] = bad
            with pytest.raises(NonFiniteValueError, match="finite"):
                topk_row_mask(attn, AttentionMask.ones(2, 3), PruneSchedule(keep_ratio=0.5))

    def test_total_mode_uses_fraction_of_n(self):
        rng = np.random.default_rng(4)
        attn = rng.uniform(size=(10, 10))
        total = PruneSchedule(keep_ratio=0.6, k_mode="total")
        first = topk_row_mask(attn, AttentionMask.ones(10), total)
        assert (first.row_support == 6).all()
        # second pass keeps K = round(0.6 * 10) = 6 again: a no-op
        second = topk_row_mask(attn, first, total)
        assert same_bits(second, first)


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PruneSchedule(update_layers=(3, 3))
        with pytest.raises(ConfigError):
            PruneSchedule(update_layers=(0, 2))
        with pytest.raises(ConfigError):
            PruneSchedule(keep_ratio=0.0)
        with pytest.raises(ConfigError):
            PruneSchedule(keep_ratio=1.5)
        with pytest.raises(ConfigError):
            PruneSchedule(k_mode="bogus")

    @pytest.mark.parametrize("layers", [(1.5,), (1, 2.0), (True,), (1, "2")])
    def test_update_layers_must_be_integers(self, layers):
        with pytest.raises(ConfigError, match="integers"):
            PruneSchedule(update_layers=layers)

    def test_numpy_integer_update_layers_accepted(self):
        assert PruneSchedule(update_layers=(np.int64(1), 2)).update_layers == (1, 2)

    def test_single_update_row_support(self):
        rng = np.random.default_rng(5)
        state = MaskState.dense(10)
        schedule = PruneSchedule(update_layers=(3, 6, 9), keep_ratio=0.6)
        apply_prune_schedule(rng.uniform(size=(10, 10)), state, schedule)
        assert len(state.history) == 1
        assert (state.current.row_support == 6).all()

    def test_iterated_supports_60_36_22(self):
        rng = np.random.default_rng(6)
        n = 100
        state = MaskState.dense(n)
        schedule = PruneSchedule(update_layers=(3, 6, 9), keep_ratio=0.6)
        expected = (60, 36, 22)  # round(0.6*100), round(0.6*60), round(0.6*36)
        for support in expected:
            apply_prune_schedule(rng.uniform(size=(n, n)), state, schedule)
            assert (state.current.row_support == support).all()
        assert [int(h[0]) for h in state.history] == list(expected)

    def test_monotone_set_inclusion_per_row(self):
        rng = np.random.default_rng(7)
        n = 30
        state = MaskState.dense(n)
        schedule = PruneSchedule(update_layers=(1, 2, 3), keep_ratio=0.7)
        previous = state.current
        for _ in range(3):
            apply_prune_schedule(rng.uniform(size=(n, n)), state, schedule)
            assert ((state.current.bits == 1) <= (previous.bits == 1)).all()
            previous = state.current

    def test_keypoint_offset_restricts_to_visual_block(self):
        # Each stage mask of a forward is the top-K election, under the
        # previous stage, of its update layer's record restricted to the
        # visual-by-visual block (keypoint rows and columns come first).
        j = 3
        schedule = PruneSchedule(update_layers=(1, 3), keep_ratio=0.5)
        cfg = ModelConfig(image_h=8, image_w=8, channels=1, downsample=1, patch_h=2,
                          patch_w=2, embed_dim=8, heads=2, encoder_layers=3, graph_layers=1,
                          joint_count=j, heatmap_h=4, heatmap_w=4, schedule=schedule)
        params = PoseModelParams.init(cfg, seed=8)
        image = np.random.default_rng(8).uniform(size=(8, 8))
        _, diag = forward(image, params, cfg, AttentionMask.ones(j), keep_records=True)
        masks = diag.mask_state.masks
        assert len(masks) == 3
        for stage, layer in enumerate(schedule.update_layers, start=1):
            record = diag.records[layer - 1]
            assert record.shape == (j + 16, j + 16)
            expected = topk_row_mask(record[j:, j:], masks[stage - 1], schedule)
            assert same_bits(masks[stage], expected)
        assert (masks[2].row_support == 4).all()  # 16 -> 8 -> 4


class TestSparsityStats:
    def config(self, n_side, layers, schedule):
        return ModelConfig(
            image_h=n_side, image_w=n_side, channels=1, downsample=1,
            patch_h=1, patch_w=1, embed_dim=16, heads=2, encoder_layers=layers,
            graph_layers=1, joint_count=4, heatmap_h=4, heatmap_w=4,
            schedule=schedule,
        ).validate()

    def test_keep_all_reports_dense(self):
        schedule = PruneSchedule(update_layers=(3, 6, 9), keep_ratio=1.0)
        stats = sparsity_report(self.config(10, 12, schedule))
        assert stats.per_stage_density == [1.0, 1.0, 1.0]
        assert stats.mac_ratio == 1.0

    def test_exact_halving(self):
        schedule = PruneSchedule(update_layers=(1,), keep_ratio=0.5)
        stats = sparsity_report(self.config(4, 2, schedule))  # N = 16, even
        assert stats.per_stage_density == [0.5]

    def test_layer_weighted_density_reference_case(self):
        # N=100, keep 0.6, updates at 3/6/9 over 12 layers:
        # (3*1.0 + 3*0.60 + 3*0.36 + 3*0.22) / 12 = 0.545
        schedule = PruneSchedule(update_layers=(3, 6, 9), keep_ratio=0.6)
        stats = sparsity_report(self.config(10, 12, schedule))
        expected = (3 * 1.0 + 3 * 0.60 + 3 * 0.36 + 3 * 0.22) / 12
        assert abs(stats.mac_ratio - expected) <= 1e-12

    def test_json_fields(self):
        schedule = PruneSchedule(update_layers=(1,), keep_ratio=0.5)
        doc = sparsity_report(self.config(4, 2, schedule)).to_json_dict()
        assert sorted(doc) == ["mac_ratio", "per_stage_density", "stages"]
        assert doc["stages"] == 1

    @pytest.mark.parametrize("k_mode", K_MODES)
    @pytest.mark.parametrize("keep_ratio", [1.0, 0.6, 0.37, 0.1, 0.01])
    def test_prediction_matches_the_masks_of_a_forward(self, keep_ratio, k_mode):
        for update_layers in [(), (1,), (4,), (2, 4), (1, 2, 3), (1, 2, 3, 4)]:
            config = ModelConfig(
                image_h=8, image_w=8, channels=1, downsample=1, patch_h=1, patch_w=1,
                embed_dim=8, heads=2, encoder_layers=4, graph_layers=1, joint_count=4,
                heatmap_h=2, heatmap_w=2, mlp_ratio=1,
                schedule=PruneSchedule(update_layers, keep_ratio, k_mode),
            )
            params = PoseModelParams.init(config, seed=len(update_layers))
            predicted = sparsity_report(config).to_json_dict()
            for seed in (1, 2):
                image = np.random.default_rng(seed).uniform(size=(8, 8))
                _, diag = forward(image, params, config, AttentionMask.ones(4))
                assert diag.sparsity.to_json_dict() == predicted
                assert measured_sparsity(diag.mask_state, config) == predicted


def measured_sparsity(state, config):
    """The stats counted from the stage masks of one forward, as a JSON dict."""
    n, layers = config.num_patches, config.encoder_layers
    live = [int(mask.row_support.sum()) for mask in state.masks]
    per_layer = [live[sum(u < layer for u in config.schedule.update_layers)]
                 for layer in range(1, layers + 1)]
    return {"stages": len(state.history),
            "per_stage_density": [cells / (float(n) * float(n)) for cells in live[1:]],
            "mac_ratio": sum(2 * cells * config.embed_dim for cells in per_layer)
            / (2 * n * n * config.embed_dim * layers)}
