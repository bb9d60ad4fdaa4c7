"""CRC-framed record serialization shared by the WAL and page store.

Records are pickled Python objects wrapped in a ``[length][crc32]``
frame.  Readers validate length and checksum and treat the first bad
frame as the end of the durable log — a torn tail from a crash mid
write is silently discarded, matching standard WAL semantics.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Iterator

#: Frame header: payload length (u32) + payload crc32 (u32).
_HEADER = struct.Struct("<II")
HEADER_SIZE = _HEADER.size

#: Pickle protocol 4: stable across the supported Pythons (3.8+).
_PROTOCOL = 4


def encode_frame(record: object) -> bytes:
    """Serialize one record into a self-checking frame."""
    payload = pickle.dumps(record, protocol=_PROTOCOL)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_frames(data: bytes) -> Iterator[tuple[int, object]]:
    """Yield ``(offset, record)`` for each valid frame in ``data``.

    Stops at the first torn or corrupt frame: a crash mid-append leaves
    a short or checksum-failing tail, which is simply not part of the
    durable log.
    """
    offset = 0
    total = len(data)
    while offset + HEADER_SIZE <= total:
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + HEADER_SIZE
        end = start + length
        if end > total:
            return  # torn tail
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return  # corrupt frame: stop, do not resynchronize
        try:
            record = pickle.loads(payload)
        except Exception:
            return
        yield offset, record
        offset = end


def frame_is_intact(frame: bytes) -> bool:
    """Whether ``frame`` is exactly one frame whose payload matches its
    checksum — the check a byte-for-byte copy makes without unpickling."""
    if len(frame) < HEADER_SIZE:
        return False
    length, crc = _HEADER.unpack_from(frame)
    payload = memoryview(frame)[HEADER_SIZE:]
    return len(payload) == length and zlib.crc32(payload) == crc


def frame_size(record: object) -> int:
    return len(encode_frame(record))
