"""Flat binary checkpoint blobs of typed records.

Layout: magic ``NPTT``, a little-endian u32 version, then one record per
array: u32 name length, UTF-8 name, a one-byte dtype tag (``DTYPES``),
u32 rank, u64 extents, and the row-major little-endian payload. Records
run to end of file and keep their dtype, so round trips are bit-exact.
In a model's blob, ``tree/prototypes`` row k is tree node k's prototype,
and ``tree/children`` and ``tree/root`` store leaf l as ``-(l + 1)``;
``tree/height``, written by older builds, is ignored on load. A blob
is written beside its target and renamed over it, so a failed write
leaves any old file in place.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"NPTT"
VERSION = 2
# dtype tag -> payload dtype
DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<i8"),
          3: np.dtype("u1")}
_TAGS = {dtype: tag for tag, dtype in DTYPES.items()}


class CheckpointError(Exception):
    """Malformed or unreadable checkpoint blob."""


class Records(dict):
    """Name -> array map of one blob; a missing name is a CheckpointError."""

    path = ""

    def __missing__(self, name: str):
        raise CheckpointError(f"{self.path}: no record {name!r}")


def write_blob(path: str, tensors: dict[str, np.ndarray]) -> None:
    """Write the arrays as one blob; each must be f32, f64, i64 or u8."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "wb")
    except OSError as err:   # name the path the caller gave, not tmp
        raise type(err)(err.errno, err.strerror, path) from None
    try:
        with fh:
            fh.write(MAGIC + struct.pack("<I", VERSION))
            for name, arr in tensors.items():
                arr = np.asarray(arr)
                dtype = arr.dtype.newbyteorder("<")
                if dtype not in _TAGS:
                    raise ValueError(f"record {name!r}: dtype {arr.dtype} "
                                     "has no checkpoint tag")
                encoded = name.encode("utf-8")
                fh.write(struct.pack(f"<I{len(encoded)}sBI{arr.ndim}Q",
                                     len(encoded), encoded, _TAGS[dtype],
                                     arr.ndim, *arr.shape))
                fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_blob(path: str) -> Records:
    """Every record of a blob; anything malformed is a CheckpointError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 8:
        raise CheckpointError(f"{path}: truncated header")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise CheckpointError(
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
        if off + 5 > total:
            raise CheckpointError(f"{path}: truncated rank at byte {off}")
        tag, rank = struct.unpack_from("<BI", raw, off)
        if tag not in DTYPES:
            raise CheckpointError(
                f"{path}: record {name!r} has unknown dtype tag {tag}")
        dtype = DTYPES[tag]
        off += 5
        if off + 8 * rank > total:
            raise CheckpointError(f"{path}: truncated extents at byte {off}")
        shape = struct.unpack_from(f"<{rank}Q", raw, off)
        off += 8 * rank
        nbytes = dtype.itemsize * math.prod(shape)
        if off + nbytes > total:
            raise CheckpointError(f"{path}: truncated payload at byte {off}")
        try:
            arr = np.frombuffer(raw, dtype, nbytes // dtype.itemsize, off)
            tensors[name] = arr.reshape(shape).copy()
        except ValueError as err:   # extents numpy cannot shape
            raise CheckpointError(f"{path}: record {name!r}: {err}") from None
        off += nbytes
    return tensors
