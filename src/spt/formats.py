"""On-disk formats: SPT1 binary tensors, CSV, and PNM images.

SPT1 layout (all integers little-endian):

    bytes 0..3   magic "SPT1"
    u32          rank (at most MAX_RANK)
    u32 * rank   extents
    f64 * n      row-major payload

CSV exports use 17 significant digits so float64 values round-trip.
Masks export as PBM (P1, 1 = kept connection) and grayscale images as
binary PGM (P5, 8-bit).  PNM comment lines carry provenance digests.

Every output file except a checkpoint's (which ``save_checkpoint``
stages as a whole directory) is written through ``atomic_write``, so an
interrupted writer leaves the previous file, never a truncated one.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeError

MAGIC = b"SPT1"
MAX_RANK = 32


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file beside ``path``; rename it to ``path`` when the block ends.

    The parent directory is created if missing.  If the block raises, the
    temporary file is removed and any earlier file at ``path`` is left as
    it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    staged = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(staged, mode) as fh:
            yield fh
        os.replace(staged, path)
    except BaseException:
        staged.unlink(missing_ok=True)
        raise


def save_tensor(path, array) -> None:
    """Write an SPT1 tensor straight from the array's own buffer.

    The payload is copied only when the array is not already C-ordered
    little-endian float64; the bytes on disk are the same either way.
    """
    arr = np.ascontiguousarray(array, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr)


def load_tensor(path) -> np.ndarray:
    """Read an SPT1 tensor; the file length must match its header exactly.

    The header is checked against the file's size before anything is
    allocated, and the payload is read straight into the returned array,
    so the call allocates its result plus a header's worth of bytes.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if head[:4] != MAGIC:
            raise FormatError(f"{path}: not an SPT1 tensor (magic {head[:4]!r})")
        if len(head) < 8:
            raise FormatError(f"{path}: truncated SPT1 header")
        (rank,) = struct.unpack("<I", head[4:])
        if rank > MAX_RANK:
            raise FormatError(f"{path}: SPT1 rank {rank} exceeds {MAX_RANK}")
        extents = fh.read(4 * rank)
        if len(extents) < 4 * rank:
            raise FormatError(f"{path}: truncated SPT1 header (rank {rank})")
        shape = struct.unpack(f"<{rank}I", extents)
        count = math.prod(shape)
        expected = 8 + 4 * rank + 8 * count
        if size != expected:
            raise FormatError(f"{path}: {size} bytes, but shape {shape} needs {expected}")
        payload = np.empty(count, dtype="<f8")
        got = fh.readinto(payload)
        if got != payload.nbytes:
            raise FormatError(f"{path}: payload ended after {got} of {payload.nbytes} bytes")
        if fh.read(1):
            raise FormatError(f"{path}: bytes past the {payload.nbytes}-byte payload")
    return payload.astype(np.float64, copy=False).reshape(shape)


def save_csv(path, array, comment: str | None = None) -> None:
    """Row-major CSV of a 2-D array, one line per row."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"CSV expects a 2-D array, got shape {arr.shape}")
    lines = []
    if comment:
        lines.append(f"# {comment}")
    for row in arr:
        lines.append(",".join(f"{v:.17g}" for v in row))
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def save_pbm(path, bits, comment: str | None = None) -> None:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 2:
        raise ShapeError(f"PBM expects a 2-D bit matrix, got shape {arr.shape}")
    h, w = arr.shape
    head = f"P1\n# {comment}\n" if comment else "P1\n"
    body = "\n".join(" ".join(str(int(v)) for v in row) for row in arr)
    with atomic_write(path) as fh:
        fh.write(f"{head}{w} {h}\n{body}\n")


def save_pgm(path, image, comment: str | None = None) -> None:
    """8-bit binary PGM; input values are clipped to [0, 1]."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"PGM expects a 2-D image, got shape {arr.shape}")
    quant = np.rint(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = arr.shape
    head = f"P5\n# {comment}\n" if comment else "P5\n"
    with atomic_write(path, "wb") as fh:
        fh.write(head.encode("ascii"))
        fh.write(f"{w} {h}\n255\n".encode("ascii"))
        fh.write(quant.tobytes())


def load_pgm(path) -> np.ndarray:
    """Read a binary 8-bit PGM, no sample above its maxval, to floats in [0, 1]."""
    blob = Path(path).read_bytes()
    if blob[:2] != b"P5" or not blob[2:3].isspace():
        raise FormatError(f"{path}: not a binary PGM")
    fields, pos = [], 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        token = blob[start:pos]
        if not token.isdigit():
            raise FormatError(f"{path}: truncated or malformed PGM header")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if not 0 < maxval < 256:
        raise FormatError(f"{path}: PGM maxval {maxval} is not 8-bit")
    if len(blob) < pos + w * h:
        raise FormatError(f"{path}: truncated PGM body ({w}x{h} needs {w * h} bytes)")
    data = np.frombuffer(blob, dtype=np.uint8, count=w * h, offset=pos)
    if (data > maxval).any():
        raise FormatError(f"{path}: PGM sample {data.max()} exceeds maxval {maxval}")
    return data.reshape(h, w).astype(np.float64) / float(maxval)
