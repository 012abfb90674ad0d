"""AttentionMask construction: value checks, ownership of the bits, cached gate."""

import numpy as np
import pytest

from spt.errors import ConfigError, ShapeError, SptError
from spt.masks import AttentionMask

from mask_helpers import identity_mask


class TestConstruction:
    @pytest.mark.parametrize("bad", [0.5, 1.7, 2, -1])
    def test_non_binary_entries_are_rejected(self, bad):
        with pytest.raises(ConfigError, match="0 or 1") as err:
            AttentionMask([[1, bad]])
        assert isinstance(err.value, SptError)

    def test_binary_floats_and_bools_are_accepted(self):
        assert AttentionMask([[1.0, 0.0]]).bits.tolist() == [[1, 0]]
        assert AttentionMask(np.array([[True, False]])).bits.tolist() == [[1, 0]]

    def test_one_dimensional_input_is_rejected(self):
        with pytest.raises(ShapeError):
            AttentionMask([1, 0])


class TestFrozenBits:
    def test_write_into_bits_raises(self):
        mask = AttentionMask.ones(3)
        with pytest.raises(ValueError):
            mask.bits[0, 0] = 0

    def test_callers_array_is_not_aliased(self):
        bits = np.ones((2, 3), dtype=np.uint8)
        mask = AttentionMask(bits)
        bits[0, :] = 0
        assert mask.bits.tolist() == [[1, 1, 1], [1, 1, 1]]
        assert bits.flags.writeable


class TestDerived:
    def test_all_ones_flag(self):
        assert AttentionMask.ones(2, 5).all_ones
        assert not identity_mask(3).all_ones

    def test_gate_bias_is_cached_and_matches_bits(self):
        mask = AttentionMask([[1, 0, 1], [0, 1, 0]])
        gate, bias = mask.gate_bias()
        assert mask.gate_bias()[0] is gate
        assert gate.tolist() == [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        assert np.array_equal(bias == 0.0, mask.bits == 1)
        assert np.isneginf(bias[mask.bits == 0]).all()
