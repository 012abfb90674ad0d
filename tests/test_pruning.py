"""Top-K mask extraction, the update schedule, and sparsity accounting."""

import numpy as np
import pytest

from spt.attention import AttentionRecord
from spt.errors import ConfigError
from spt.masks import AttentionMask
from spt.model import ModelConfig
from spt.pruning import (MaskState, PruneSchedule, apply_prune_schedule,
                         round_half_up, sparsity_report, topk_row_mask)
from spt.tensor import Tensor


def record_from(avg: np.ndarray) -> AttentionRecord:
    return AttentionRecord(head_average=Tensor(avg))


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
        out = topk_row_mask(attn, AttentionMask.ones(1, 4), keep_ratio=0.5)
        assert np.array_equal(out.bits, [[1, 1, 0, 0]])

    def test_keep_ratio_one_is_identity(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(6, 6)).astype(np.uint8)
        bits[:, 0] = 1
        prev = AttentionMask(bits)
        attn = rng.uniform(size=(6, 6))
        out = topk_row_mask(attn, prev, keep_ratio=1.0)
        assert out.same_bits(prev)

    def test_tie_breaks_toward_lower_column(self):
        # K = max(1, round(0.34 * 3)) = max(1, round(1.02)) = 1; columns 0 and 1
        # tie at 0.4, so column 0 wins
        attn = np.array([[0.4, 0.4, 0.2]])
        out = topk_row_mask(attn, AttentionMask.ones(1, 3), keep_ratio=0.34)
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
            out = topk_row_mask(attn, prev, keep_ratio)
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
                out = topk_row_mask(scores, prev, keep_ratio, k_mode=k_mode)
                expected = np.zeros((n, n), dtype=np.uint8)
                for i in range(n):
                    kept = np.flatnonzero(prev.bits[i]).tolist()
                    basis = len(kept) if k_mode == "support" else n
                    k = min(len(kept), max(1, round_half_up(keep_ratio * basis)))
                    expected[i, sorted(brute_force_topk_row(scores[i], kept, k))] = 1
                assert np.array_equal(out.bits, expected), (n, keep_ratio)

    def test_subset_of_previous_support(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=(8, 8)).astype(np.uint8)
        np.fill_diagonal(bits, 1)
        prev = AttentionMask(bits)
        out = topk_row_mask(rng.uniform(size=(8, 8)), prev, keep_ratio=0.4)
        assert ((out.bits == 1) <= (prev.bits == 1)).all()

    def test_minimum_support_one_even_for_equal_rows(self):
        attn = np.full((4, 4), 0.25)
        out = topk_row_mask(attn, AttentionMask.ones(4), keep_ratio=0.01)
        assert (out.row_support == 1).all()

    def test_determinism(self):
        rng = np.random.default_rng(3)
        attn = rng.uniform(size=(7, 7))
        prev = AttentionMask.ones(7)
        a = topk_row_mask(attn, prev, 0.37)
        b = topk_row_mask(attn.copy(), prev.copy(), 0.37)
        assert a.same_bits(b)

    def test_keep_ratio_out_of_range(self):
        with pytest.raises(ConfigError):
            topk_row_mask(np.ones((2, 2)), AttentionMask.ones(2), keep_ratio=0.0)
        with pytest.raises(ConfigError):
            topk_row_mask(np.ones((2, 2)), AttentionMask.ones(2), keep_ratio=1.5)

    def test_non_finite_scores_are_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            attn = np.full((2, 3), 0.25)
            attn[1, 2] = bad
            with pytest.raises(ConfigError, match="finite"):
                topk_row_mask(attn, AttentionMask.ones(2, 3), keep_ratio=0.5)

    def test_total_mode_uses_fraction_of_n(self):
        rng = np.random.default_rng(4)
        attn = rng.uniform(size=(10, 10))
        first = topk_row_mask(attn, AttentionMask.ones(10), 0.6, k_mode="total")
        assert (first.row_support == 6).all()
        # second pass keeps K = round(0.6 * 10) = 6 again: a no-op
        second = topk_row_mask(attn, first, 0.6, k_mode="total")
        assert second.same_bits(first)


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PruneSchedule(update_layers=(3, 3))
        with pytest.raises(ConfigError):
            PruneSchedule(update_layers=(0, 2))
        with pytest.raises(ConfigError):
            PruneSchedule(keep_ratio=0.0)
        with pytest.raises(ConfigError):
            PruneSchedule(k_mode="bogus")

    def test_non_update_layer_leaves_state_alone(self):
        state = MaskState.dense(5)
        before = state.current.copy()
        schedule = PruneSchedule(update_layers=(3, 6, 9), keep_ratio=0.5)
        apply_prune_schedule(2, None, state, schedule)
        assert state.stage == 0
        assert state.current.same_bits(before)

    def test_update_layer_without_record_is_a_contract_error(self):
        state = MaskState.dense(5)
        schedule = PruneSchedule(update_layers=(3,), keep_ratio=0.5)
        with pytest.raises(ConfigError):
            apply_prune_schedule(3, None, state, schedule)

    def test_single_update_row_support(self):
        rng = np.random.default_rng(5)
        state = MaskState.dense(10)
        schedule = PruneSchedule(update_layers=(3, 6, 9), keep_ratio=0.6)
        apply_prune_schedule(3, record_from(rng.uniform(size=(10, 10))), state, schedule)
        assert state.stage == 1
        assert (state.current.row_support == 6).all()

    def test_iterated_supports_60_36_22(self):
        rng = np.random.default_rng(6)
        n = 100
        state = MaskState.dense(n)
        schedule = PruneSchedule(update_layers=(3, 6, 9), keep_ratio=0.6)
        expected = (60, 36, 22)  # round(0.6*100), round(0.6*60), round(0.6*36)
        for layer, support in zip((3, 6, 9), expected):
            apply_prune_schedule(layer, record_from(rng.uniform(size=(n, n))),
                                 state, schedule)
            assert (state.current.row_support == support).all()
        assert [int(h[0]) for h in state.history] == list(expected)

    def test_monotone_set_inclusion_per_row(self):
        rng = np.random.default_rng(7)
        n = 30
        state = MaskState.dense(n)
        schedule = PruneSchedule(update_layers=(1, 2, 3), keep_ratio=0.7)
        previous = state.current.copy()
        for layer in (1, 2, 3):
            apply_prune_schedule(layer, record_from(rng.uniform(size=(n, n))),
                                 state, schedule)
            assert ((state.current.bits == 1) <= (previous.bits == 1)).all()
            previous = state.current.copy()

    def test_keypoint_offset_restricts_to_visual_block(self):
        rng = np.random.default_rng(8)
        j, n = 3, 6
        state = MaskState.dense(n)
        schedule = PruneSchedule(update_layers=(1,), keep_ratio=0.5)
        full = rng.uniform(size=(j + n, j + n))
        apply_prune_schedule(1, record_from(full), state, schedule, keypoint_count=j)
        expected = topk_row_mask(full[j:, j:], AttentionMask.ones(n), 0.5)
        assert state.current.same_bits(expected)


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
        config = self.config(10, 12, schedule)
        state = MaskState.dense(100)
        rng = np.random.default_rng(9)
        for layer in (3, 6, 9):
            apply_prune_schedule(layer, record_from(rng.uniform(size=(100, 100))),
                                 state, schedule)
        stats = sparsity_report(state, config)
        assert stats.per_stage_density == [1.0, 1.0, 1.0]
        assert stats.layer_weighted_density == 1.0
        assert stats.mac_ratio == 1.0

    def test_exact_halving(self):
        schedule = PruneSchedule(update_layers=(1,), keep_ratio=0.5)
        config = self.config(4, 2, schedule)  # N = 16, even
        state = MaskState.dense(16)
        rng = np.random.default_rng(10)
        apply_prune_schedule(1, record_from(rng.uniform(size=(16, 16))), state, schedule)
        stats = sparsity_report(state, config)
        assert stats.per_stage_density == [0.5]

    def test_layer_weighted_density_reference_case(self):
        # N=100, keep 0.6, updates at 3/6/9 over 12 layers:
        # (3*1.0 + 3*0.60 + 3*0.36 + 3*0.22) / 12 = 0.545
        schedule = PruneSchedule(update_layers=(3, 6, 9), keep_ratio=0.6)
        config = self.config(10, 12, schedule)
        state = MaskState.dense(100)
        rng = np.random.default_rng(11)
        for layer in (3, 6, 9):
            apply_prune_schedule(layer, record_from(rng.uniform(size=(100, 100))),
                                 state, schedule)
        stats = sparsity_report(state, config)
        expected = (3 * 1.0 + 3 * 0.60 + 3 * 0.36 + 3 * 0.22) / 12
        assert abs(stats.layer_weighted_density - expected) <= 1e-12
        assert abs(stats.mac_ratio - expected) <= 1e-12

    def test_json_fields(self):
        schedule = PruneSchedule(update_layers=(1,), keep_ratio=0.5)
        config = self.config(4, 2, schedule)
        state = MaskState.dense(16)
        rng = np.random.default_rng(12)
        apply_prune_schedule(1, record_from(rng.uniform(size=(16, 16))), state, schedule)
        doc = sparsity_report(state, config).to_json_dict()
        assert sorted(doc) == ["layer_weighted_density", "mac_ratio",
                               "per_stage_density", "stages"]
        assert doc["stages"] == 1
