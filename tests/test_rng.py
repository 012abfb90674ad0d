"""Known answers that pin the SplitMix64 stream on every platform."""

import tracemalloc

import numpy as np
import pytest

from spt.rng import CHUNK_PAIRS, SplitMix64, sample_stream

# The first three outputs of SplitMix64 seeded with 0, as published with
# the algorithm.
SEED0_WORDS = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_seed_zero_raw_words():
    assert [int(w) for w in SplitMix64(0)._raw_block(3)] == SEED0_WORDS


def test_seed_zero_uniforms_are_top_53_bits():
    # Drawn as 1 + 2 values: consecutive draws continue the same stream.
    rng = SplitMix64(0)
    values = np.concatenate([rng.uniform_array((1,)), rng.uniform_array((2,))])
    expected = [float.fromhex("0x1.c4415072f63b9p-1"),
                float.fromhex("0x1.b9e279aa86e58p-2"),
                float.fromhex("0x1.b117462002500p-6")]
    assert values.tolist() == expected
    assert expected == [(w >> 11) * 2.0**-53 for w in SEED0_WORDS]


def test_sample_stream_first_word():
    assert int(sample_stream(7, 3)._raw_block(1)[0]) == 0x3AEFE697E45F2CFA


def one_shot_normals(rng, shape, sigma):
    """The Box-Muller draw over the whole stream at once: the reference
    that the chunked ``normal_array`` must match bit for bit."""
    n = int(np.prod(shape)) if shape else 1
    pairs = (n + 1) // 2
    raw = rng._raw_block(2 * pairs)
    u1 = ((raw[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (raw[pairs:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
    return (sigma * out).reshape(shape)


@pytest.mark.parametrize("sigma", [1.0, 0.02])
@pytest.mark.parametrize("shape", [(), (1,), (3,), (2, 3), (2 * CHUNK_PAIRS - 2,),
                                   (2 * CHUNK_PAIRS,), (2 * CHUNK_PAIRS + 2,),
                                   (2 * CHUNK_PAIRS + 1,), (4 * CHUNK_PAIRS + 1,)])
def test_chunked_normals_match_the_one_shot_draw(shape, sigma):
    # Pair counts chunk - 1, chunk and chunk + 1, an odd tail one value into
    # a second chunk, and 2 * chunk + 1 pairs; the next draw must continue
    # the stream at the same word.
    chunked, one_shot = SplitMix64(11), SplitMix64(11)
    got = chunked.normal_array(shape, sigma)
    want = one_shot_normals(one_shot, shape, sigma)
    assert got.shape == want.shape == shape
    assert got.tobytes() == want.tobytes()
    assert chunked.uniform_array((2,)).tobytes() == one_shot.uniform_array((2,)).tobytes()


def test_normal_scratch_is_one_chunk():
    rng = SplitMix64(3)
    tracemalloc.start()
    try:
        out = rng.normal_array((192, 4096), 0.02)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A chunk works on four or so uint64/float64 arrays of CHUNK_PAIRS values;
    # drawing the whole stream at once takes several arrays of the output's size.
    assert peak <= out.nbytes + 8 * 8 * CHUNK_PAIRS
