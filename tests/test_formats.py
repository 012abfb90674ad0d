"""File formats: SPT1 tensors, CSV, PGM/PBM images."""

import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import spt.formats
from spt.errors import FormatError, ShapeError
from spt.formats import (atomic_write, load_pgm, load_tensor, save_csv, save_pbm,
                         save_pgm, save_tensor)


def damaged_copies(path):
    """Every truncation of the file, plus the file with one byte appended."""
    blob = path.read_bytes()
    return [blob[:cut] for cut in range(len(blob))] + [blob + b"\0"]


class TestAtomicWrite:
    def test_a_writer_that_raises_midway_leaves_the_earlier_file(self, tmp_path):
        path = tmp_path / "table.csv"
        save_csv(path, np.arange(6.0).reshape(2, 3))
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="interrupted"):
            with atomic_write(path) as fh:
                fh.write("0,0,0\n")
                fh.flush()
                raise RuntimeError("interrupted")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    def test_a_finished_writer_replaces_the_file(self, tmp_path):
        path = tmp_path / "image.pgm"
        save_pgm(path, np.zeros((2, 2)))
        save_pgm(path, np.ones((3, 2)), comment="second")
        assert np.array_equal(load_pgm(path), np.ones((3, 2)))
        assert [p.name for p in tmp_path.iterdir()] == ["image.pgm"]

    def test_missing_parent_directories_are_created(self, tmp_path):
        path = tmp_path / "a" / "b" / "note.txt"
        with atomic_write(path) as fh:
            fh.write("x")
        assert path.read_text() == "x"


class TestBinaryTensor:
    @pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 3, 4)])
    def test_round_trip(self, tmp_path, shape):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=shape)
        path = tmp_path / "t.spt"
        save_tensor(path, arr)
        back = load_tensor(path)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)  # f64 payload is lossless

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.spt"
        save_tensor(path, np.zeros((2, 5)))
        blob = path.read_bytes()
        assert blob[:4] == b"SPT1"
        assert int.from_bytes(blob[4:8], "little") == 2
        assert int.from_bytes(blob[8:12], "little") == 2
        assert int.from_bytes(blob[12:16], "little") == 5
        assert len(blob) == 16 + 10 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.spt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_tensor(path)

    def test_rank_beyond_the_limit_rejected_without_reading_extents(self, tmp_path):
        # Rank 514 over a long payload: the 514 "extents" multiply to an
        # integer too long to format, so the rank must be refused first.
        path = tmp_path / "t.spt"
        save_tensor(path, np.arange(600.0).reshape(20, 30))
        blob = bytearray(path.read_bytes())
        blob[5] ^= 2
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="rank 514 exceeds 32"):
            load_tensor(path)

    def test_every_truncation_and_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "t.spt"
        save_tensor(path, np.arange(6.0).reshape(2, 3))
        for damaged in damaged_copies(path):
            path.write_bytes(damaged)
            with pytest.raises(FormatError):
                load_tensor(path)

    @pytest.mark.parametrize("array", [
        np.arange(12.0).reshape(3, 4),
        np.arange(12.0).reshape(3, 4).T,
        np.arange(12.0).reshape(3, 4)[:, ::2],
        np.arange(12.0).astype(">f8"),
        np.arange(12).reshape(2, 6),
        np.array(2.5),
        np.zeros((0, 3)),
    ], ids=["c-order", "transposed", "strided", "big-endian", "int", "0-d", "empty"])
    def test_bytes_match_the_copying_writer(self, tmp_path, array):
        # Reference: the header plus ``astype("<f8").tobytes()`` of a
        # C-ordered float64 copy.  A 0-d array is stored with rank 1.
        arr = np.ascontiguousarray(array, dtype=np.float64)
        want = (b"SPT1" + struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
                + arr.astype("<f8").tobytes())
        path = tmp_path / "t.spt"
        save_tensor(path, array)
        assert path.read_bytes() == want
        assert np.array_equal(load_tensor(path), arr)

    @pytest.mark.parametrize("size_delta, message", [(-1, "payload ended"),
                                                     (1, "bytes past")])
    def test_file_changing_size_after_the_header_check_rejected(
            self, tmp_path, monkeypatch, size_delta, message):
        # fstat reports the size the header needs while the bytes read
        # run one short of it or one past it.
        path = tmp_path / "t.spt"
        save_tensor(path, np.arange(6.0))
        expected = path.stat().st_size
        blob = path.read_bytes()
        path.write_bytes(blob[:size_delta] if size_delta < 0 else blob + b"\0")
        stat = SimpleNamespace(st_size=expected)
        monkeypatch.setattr(spt.formats, "os", SimpleNamespace(fstat=lambda fd: stat))
        with pytest.raises(FormatError, match=message):
            load_tensor(path)

    def test_save_writes_the_arrays_own_buffer(self, tmp_path):
        arr = np.arange(256 * 1024.0).reshape(512, 512)  # 2 MiB
        save_tensor(tmp_path / "warm.spt", arr[:2])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            save_tensor(tmp_path / "t.spt", arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 64 * 1024

    def test_load_allocates_its_result_and_a_header(self, tmp_path):
        path = tmp_path / "t.spt"
        save_tensor(path, np.arange(256 * 1024.0).reshape(512, 512))
        load_tensor(path)
        tracemalloc.start()
        try:
            arr = load_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Slack for the header bytes and the file object's own buffer.
        assert peak <= arr.nbytes + 64 * 1024


class TestCsv:
    def test_seventeen_significant_digits(self, tmp_path):
        value = 1.0 / 3.0
        path = tmp_path / "m.csv"
        save_csv(path, np.array([[value]]))
        text = path.read_text().strip()
        assert float(text) == value

    def test_comment_header_and_row_major(self, tmp_path):
        path = tmp_path / "m.csv"
        save_csv(path, np.arange(6.0).reshape(2, 3), comment="config abc")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config abc"
        assert lines[1] == "0,1,2"
        assert lines[2] == "3,4,5"


    @pytest.mark.parametrize("shape", [(), (3,), (2, 3, 1)])
    def test_only_a_matrix_is_written(self, tmp_path, shape):
        with pytest.raises(ValueError, match="2-D"):
            save_csv(tmp_path / "m.csv", np.zeros(shape))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("save", [save_csv, save_pbm, save_pgm])
    def test_every_saver_refuses_a_non_matrix_with_shape_error(self, tmp_path, save):
        with pytest.raises(ShapeError, match="2-D"):
            save(tmp_path / "x", np.zeros((2, 2, 2)))
        assert not list(tmp_path.iterdir())


class TestPnm:
    def test_pgm_round_trip_quantized(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(5, 7))
        path = tmp_path / "i.pgm"
        save_pgm(path, img, comment="config deadbeef")
        back = load_pgm(path)
        assert back.shape == img.shape
        assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-12

    def test_every_truncation_rejected(self, tmp_path):
        path = tmp_path / "i.pgm"
        save_pgm(path, np.full((2, 3), 0.5), comment="config deadbeef")
        for damaged in damaged_copies(path)[:-1]:
            path.write_bytes(damaged)
            with pytest.raises(FormatError):
                load_pgm(path)

    @pytest.mark.parametrize("blob, message", [
        (b"P56 4 255\n" + bytes(24), "not a binary PGM"),  # no whitespace after the magic
        (b"P5 2 2 15\n" + bytes([0, 15, 200, 3]), "sample 200 exceeds maxval 15"),
    ], ids=["magic_run_into_width", "sample_above_maxval"])
    def test_malformed_pgm_rejected(self, tmp_path, blob, message):
        path = tmp_path / "i.pgm"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=message):
            load_pgm(path)

    def test_samples_up_to_maxval_load(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n2 1\n15\n" + bytes([0, 15]))
        assert np.array_equal(load_pgm(path), [[0.0, 1.0]])

    def test_pbm_bits(self, tmp_path):
        path = tmp_path / "m.pbm"
        save_pbm(path, np.array([[1, 0], [0, 1]], dtype=np.uint8))
        text = path.read_text().splitlines()
        assert text[0] == "P1"
        assert text[1] == "2 2"
        assert text[2] == "1 0"
        assert text[3] == "0 1"
