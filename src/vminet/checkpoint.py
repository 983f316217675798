"""Binary checkpoint container.

Layout, all integers little-endian:

    magic   4 bytes  b"VMIN"
    version uint32   currently 1
    count   uint32   number of tensor records
    then per record:
        name_len uint32
        name     name_len bytes, utf-8
        rank     uint32
        extents  rank x uint64
        payload  prod(extents) x float64, little-endian

Round trips are bitwise: float64 payloads are written and read verbatim.
Loading parses the whole file before returning, so a truncated file never
yields a partial result.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"VMIN"
VERSION = 1


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    chunks = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    for name, value in tensors.items():
        # note: ascontiguousarray would promote 0-d arrays to rank 1
        arr = np.asarray(value, dtype=np.float64)
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.astype("<f8", copy=False).tobytes())
    Path(path).write_bytes(b"".join(chunks))


class _Reader:
    def __init__(self, raw: bytes, path):
        self.raw = raw
        self.path = path
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise FormatError(f"truncated checkpoint at byte offset {self.pos} in {self.path}")
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_tensors(path) -> dict[str, np.ndarray]:
    path = Path(path)
    reader = _Reader(path.read_bytes(), path)
    if reader.take(4) != MAGIC:
        raise FormatError(f"bad magic in {path}; not a checkpoint file")
    version = reader.u32()
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version} in {path}")
    count = reader.u32()
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = reader.u32()
        offset = reader.pos
        try:
            name = reader.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"record name at byte offset {offset} in {path} is not utf-8: {exc.reason}"
            ) from exc
        rank = reader.u32()
        extents = struct.unpack(f"<{rank}Q", reader.take(8 * rank))
        n_elems = 1
        for e in extents:
            n_elems *= e
        payload = reader.take(8 * n_elems)
        out[name] = np.frombuffer(payload, dtype="<f8").reshape(extents).astype(np.float64)
    if reader.pos != len(reader.raw):
        raise FormatError(
            f"trailing data after byte offset {reader.pos} in {path}"
        )
    return out
