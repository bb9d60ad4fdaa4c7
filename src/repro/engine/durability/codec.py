"""CRC-framed record serialization shared by the WAL and page store.

Records are pickled Python objects wrapped in a ``[length][crc32]``
frame.  Readers validate length and checksum and treat the first bad
frame as the end of the durable log — a torn tail from a crash mid
write is silently discarded, matching standard WAL semantics.

A frame may carry raw bytes ahead of its pickle, inside the checksum
(``encode_frame(record, head)``): :func:`read_frame` hands them to a
reader without unpickling, :func:`decode_record` unpickles the rest.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import BinaryIO, Iterator

#: Frame header: payload length (u32) + payload crc32 (u32).
_HEADER = struct.Struct("<II")
HEADER_SIZE = _HEADER.size

#: Pickle protocol 4: stable across the supported Pythons (3.8+).
_PROTOCOL = 4


def encode_frame(record: object, head: bytes = b"") -> bytes:
    """Serialize one record, behind ``head``, into a self-checking
    frame."""
    payload = head + pickle.dumps(record, protocol=_PROTOCOL)
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


def read_frame(fh: BinaryIO, end: int) -> bytes | None:
    """The frame at ``fh``'s position, or ``None`` where the readable
    file ends: the frame runs past ``end`` (torn) or fails its checksum
    — the check a byte-for-byte copy makes without unpickling.  Reads
    one frame's bytes, whatever the size of the file."""
    header = fh.read(HEADER_SIZE)
    if len(header) < HEADER_SIZE:
        return None
    length, crc = _HEADER.unpack(header)
    if fh.tell() + length > end:
        return None
    payload = fh.read(length)
    if len(payload) != length or zlib.crc32(payload) != crc:
        return None
    return header + payload


def decode_record(frame: bytes, head_size: int = 0) -> object:
    """The record of an intact frame whose first ``head_size`` payload
    bytes are raw."""
    return pickle.loads(memoryview(frame)[HEADER_SIZE + head_size :])
