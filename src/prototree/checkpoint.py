"""Flat binary checkpoint blobs.

Layout: magic ``NPTT``, a little-endian u32 version, then one record per
tensor: u32 name length, UTF-8 name, u32 rank, u64 extents, and the
row-major float32 payload. Records run to end of file. Round trips are
bit-exact for float32 data.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"NPTT"
VERSION = 1


class CheckpointError(Exception):
    """Malformed or unreadable checkpoint blob."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint written by an incompatible format version."""


class Records(dict):
    """Name -> array map of one blob; a missing name is a CheckpointError."""

    path = ""

    def __missing__(self, name: str):
        raise CheckpointError(f"{self.path}: no record {name!r}")


def write_blob(path: str, tensors: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        for name, arr in tensors.items():
            data = np.ascontiguousarray(arr, dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}Q", *data.shape))
            fh.write(data.tobytes())


def read_blob(path: str) -> Records:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise CheckpointVersionError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 8:
        raise CheckpointError(f"{path}: truncated header")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise CheckpointVersionError(
            f"{path}: version {version}, this build reads {VERSION}")
    tensors = Records()
    tensors.path = path
    off = 8
    total = len(raw)
    while off < total:
        if off + 4 > total:
            raise CheckpointError(f"{path}: truncated record at byte {off}")
        (name_len,) = struct.unpack_from("<I", raw, off)
        off += 4
        if off + name_len > total:
            raise CheckpointError(f"{path}: truncated name at byte {off}")
        try:
            name = raw[off:off + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(
                f"{path}: record name at byte {off} is not UTF-8") from None
        if name in tensors:
            raise CheckpointError(f"{path}: duplicate record {name!r}")
        off += name_len
        if off + 4 > total:
            raise CheckpointError(f"{path}: truncated rank at byte {off}")
        (rank,) = struct.unpack_from("<I", raw, off)
        off += 4
        if off + 8 * rank > total:
            raise CheckpointError(f"{path}: truncated extents at byte {off}")
        shape = struct.unpack_from(f"<{rank}Q", raw, off)
        off += 8 * rank
        count = 1
        for extent in shape:
            count *= extent
        nbytes = 4 * count
        if off + nbytes > total:
            raise CheckpointError(f"{path}: truncated payload at byte {off}")
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=off)
        tensors[name] = arr.reshape(shape).copy()
        off += nbytes
    return tensors
