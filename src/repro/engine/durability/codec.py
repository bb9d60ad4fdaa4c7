"""CRC-framed record serialization shared by the WAL and page store.

Records are pickled Python objects wrapped in a ``[length][crc32]``
frame.  Readers validate length and checksum and treat the first bad
frame as the end of the durable log — a torn tail from a crash mid
write is silently discarded, matching standard WAL semantics.

A frame may carry raw bytes ahead of its pickle, inside the checksum
(``encode_frame(record, head)``): :func:`read_frame` hands them to a
reader without unpickling, :func:`decode_record` unpickles the rest.

Both files start with a format head (:func:`file_head`): a magic naming
the kind of file and the version of its format.  An open checks it
(:func:`has_head`) and refuses, by name, a file another format wrote —
instead of failing at its first read, in the middle of a query.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import BinaryIO, Iterator

from ..errors import EngineError

#: Frame header: payload length (u32) + payload crc32 (u32).
_HEADER = struct.Struct("<II")
HEADER_SIZE = _HEADER.size

#: Pickle protocol 4: stable across the supported Pythons (3.8+).
_PROTOCOL = 4

#: File head: magic (4 bytes) + format version (u32).
_FILE_HEAD = struct.Struct("<4sI")


def file_head(magic: bytes, version: int) -> bytes:
    """The first bytes of a file of this kind and format version."""
    return _FILE_HEAD.pack(magic, version)


def has_head(path: str, data: bytes, head: bytes) -> bool:
    """Whether ``data``, the first bytes of the file at ``path``, begin
    with ``head``.  ``False`` when the file is empty or holds a prefix
    of it — a creation a crash cut short, with nothing in it to lose.
    Any other file was written in another format: :class:`EngineError`
    names the file, the version it holds and the one expected."""
    if data.startswith(head):
        return True
    if head.startswith(data):
        return False
    magic, version = _FILE_HEAD.unpack(head)
    found = "no format head"
    if len(data) >= _FILE_HEAD.size:
        found_magic, found_version = _FILE_HEAD.unpack_from(data)
        if found_magic == magic:
            found = f"format version {found_version}"
    raise EngineError(
        f"{path}: found {found}, expected {magic.decode()} format "
        f"version {version} — written by another version of the engine"
    )


def encode_frame(record: object, head: bytes = b"") -> bytes:
    """Serialize one record, behind ``head``, into a self-checking
    frame."""
    payload = head + pickle.dumps(record, protocol=_PROTOCOL)
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_frames(
    data: bytes, offset: int = 0
) -> Iterator[tuple[int, object]]:
    """Yield ``(offset, record)`` for each valid frame in ``data`` from
    ``offset`` on.

    Stops at the first torn or corrupt frame: a crash mid-append leaves
    a short or checksum-failing tail, which is simply not part of the
    durable log.
    """
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
    length, _ = _HEADER.unpack(header)
    if fh.tell() + length > end:
        return None
    frame = header + fh.read(length)
    return frame if frame_intact(frame) else None


def frame_intact(frame: bytes) -> bool:
    """Whether ``frame`` is exactly one frame, its length and checksum
    holding."""
    if len(frame) < HEADER_SIZE:
        return False
    length, crc = _HEADER.unpack_from(frame)
    return length == len(frame) - HEADER_SIZE and zlib.crc32(
        memoryview(frame)[HEADER_SIZE:]
    ) == crc


def decode_record(frame: bytes, head_size: int = 0) -> object:
    """The record of an intact frame whose first ``head_size`` payload
    bytes are raw."""
    return pickle.loads(memoryview(frame)[HEADER_SIZE + head_size :])
