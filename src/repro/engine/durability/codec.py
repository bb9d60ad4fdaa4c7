"""CRC-framed record serialization shared by the WAL and page store.

Every record is wrapped in a ``[length varint][crc32]`` frame.  Readers
validate length and checksum and treat the first bad frame as the end
of the durable log — a torn tail from a crash mid write is silently
discarded, matching standard WAL semantics.  A frame that passes its
checksum but does not decode is refused, not taken for a tail.

A payload's first byte tells its two kinds apart.  The five records
the write path emits per row change and per transaction — ``ins``,
``del``, ``upd``, ``commit``, ``rollback`` — are fixed-shape
(:func:`encode_log_frame`): a kind byte below ``0x80`` whose flag bits
say whether an admin id and a ``new_rid`` follow, unsigned LEB128
varints — tx id, admin id, heap segment id, RID page and slot,
``new_rid``, cell count and an ``upd``'s SET positions — and each value
behind a one-byte type tag (:func:`~repro.engine.values.put_values`,
whose varints they share), so they decode type-exact without pickle.
Every other log record (checkpoints, DDL statements as SQL text, admin
brackets) is a pickle, whose ``PROTO`` opcode is ``0x80``.  A page-store frame
(:func:`frame_payload`) holds a page's fixed-width head and its image
(:mod:`~repro.engine.columncodec`), never a pickle: :func:`read_frame`
hands it to a reader without decoding anything.

Both files start with a format head (:func:`file_head`): a magic naming
the kind of file and the version of its format.  An open checks it
(:func:`has_head`) and refuses, by name, a file another format wrote —
instead of failing at its first read, in the middle of a query.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import BinaryIO, Iterable, Iterator

from ..errors import EngineError
from ..values import put_uint, put_values, take_uint, take_values

#: Frame header: payload length (a varint of at most five bytes) +
#: payload crc32 (u32).
_CRC = struct.Struct("<I")
_LENGTH_BYTES = 5
_HEADER_MAX = _LENGTH_BYTES + _CRC.size

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


def encode_frame(record: object) -> bytes:
    """Pickle one log record into a self-checking frame."""
    return frame_payload(pickle.dumps(record, protocol=_PROTOCOL))


def frame_payload(payload: bytes) -> bytes:
    """Frame bytes already encoded."""
    head = bytearray()
    put_uint(head, len(payload))
    return b"".join((head, _CRC.pack(zlib.crc32(payload)), payload))


def frame_header(data: bytes, at: int = 0) -> tuple[int, int, int]:
    """The frame at offset ``at`` of ``data``: where its payload starts,
    its length and its checksum.  A header cut short, or a length varint
    longer than ``_LENGTH_BYTES``, raises ``ValueError``: a torn tail."""
    length, start = take_uint(data, at, _LENGTH_BYTES)
    if start + _CRC.size > len(data):
        raise ValueError("a frame header runs past the end")
    return start + _CRC.size, length, _CRC.unpack_from(data, start)[0]


# -- fixed-shape log records ------------------------------------------------

#: Kind codes: a fixed-shape payload's low three bits.  Flag bits above
#: them stay below a pickle's first byte.
_KIND_NAME = dict(enumerate(("ins", "del", "upd", "commit", "rollback"), 1))
_KIND_CODE = {kind: code for code, kind in _KIND_NAME.items()}
_ADMIN, _MOVED, _PICKLED = 0x08, 0x10, 0x80


def encode_log_frame(record: dict) -> bytes:
    """One WAL record in its frame: fixed-shape for a row change or a
    transaction terminal, a pickle for any other kind.  A header integer
    outside ten varint bytes raises :class:`EngineError`."""
    code = _KIND_CODE.get(record["t"])
    if code is None:
        return encode_frame(record)
    rid = record.get("rid")
    if record.get("new_rid", rid) != rid:
        code |= _MOVED
    admin = record.get("admin")
    if admin is not None:
        code |= _ADMIN
    fields = [record["tx"]] if admin is None else [record["tx"], admin]
    values: Iterable = ()
    if rid is not None:  # a row change, not a terminal
        fields += (record["segment"], *rid)
        if code & _MOVED:
            fields += record["new_rid"]
        if "row" in record:
            values = record["row"]
            fields.append(len(values))
        elif "set" in record:
            cells = record["set"]
            fields += (len(cells), *cells)
            values = cells.values()
    out = bytearray((code,))
    try:
        for field in fields:
            put_uint(out, field)
    except ValueError as exc:
        raise EngineError(
            f"WAL {record['t']} record: a field outside its width ({exc})"
        ) from None
    put_values(out, values)
    return frame_payload(out)


def _decode_fixed(payload: bytes) -> dict:
    code, at, end = payload[0], 1, len(payload)

    def uint() -> int:
        nonlocal at
        value, at = take_uint(payload, at)
        return value

    kind = _KIND_NAME[code & 0x07]
    if code & ~(0x07 | _ADMIN | _MOVED) or (code & _MOVED and kind != "upd"):
        raise ValueError(f"unknown kind byte {code:#x}")
    record: dict = {"t": kind, "tx": uint()}
    if code & _ADMIN:
        record["admin"] = uint()
    if kind in ("ins", "del", "upd"):
        record["segment"] = uint()
        record["rid"] = uint(), uint()
    if kind == "ins":
        count = uint()
        cells, at = take_values(payload, at, count)
        record["row"] = tuple(cells)
    elif kind == "upd":
        record["new_rid"] = (uint(), uint()) if code & _MOVED else record["rid"]
        positions = [uint() for _ in range(uint())]
        cells, at = take_values(payload, at, len(positions))
        record["set"] = dict(zip(positions, cells))
    if at != end:
        raise ValueError(f"{end - at} bytes past the record's end")
    return record


def decode_frames(
    data: bytes, offset: int = 0, path: str = "log"
) -> Iterator[tuple[int, int, object]]:
    """Yield ``(offset, end, record)`` for each valid frame in ``data``
    from ``offset`` on; ``end`` is the offset past the frame.

    Stops at the first torn or corrupt frame: a crash mid-append leaves
    a short or checksum-failing tail, which is simply not part of the
    durable log; so is a zero-length frame, since an all-zero header
    passes ``crc32(b"") == 0``.  A frame that passes its checksum but
    does not decode raises :class:`EngineError` naming ``path`` and its
    offset: what follows it may be committed.
    """
    total = len(data)
    while offset < total:
        try:
            start, length, crc = frame_header(data, offset)
        except ValueError:
            return  # a torn header
        end = start + length
        if length == 0 or end > total:
            return  # end of log, or a torn tail
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return  # corrupt frame: stop, do not resynchronize
        try:
            if payload[0] == _PICKLED:
                record = pickle.loads(payload)
            else:
                record = _decode_fixed(payload)
        # Unpickling bytes pickle did not write raises almost anything.
        except Exception as exc:
            raise EngineError(
                f"{path}: the frame at offset {offset} passes its checksum "
                f"but does not decode ({exc!r})"
            ) from exc
        yield offset, end, record
        offset = end


def read_frame(fh: BinaryIO, end: int) -> bytes | None:
    """The frame at ``fh``'s position, or ``None`` where the readable
    file ends: the frame runs past ``end`` (torn) or fails its checksum
    — the check a byte-for-byte copy makes without unpickling.  Reads
    one frame's bytes, whatever the size of the file."""
    at = fh.tell()
    try:
        start, length, _ = frame_header(fh.read(min(_HEADER_MAX, end - at)))
    except ValueError:
        return None
    if at + start + length > end:
        return None
    fh.seek(at)
    frame = fh.read(start + length)
    return frame if frame_intact(frame) else None


def frame_intact(frame: bytes) -> bool:
    """Whether ``frame`` is exactly one frame, its length and checksum
    holding."""
    try:
        start, length, crc = frame_header(frame)
    except ValueError:
        return False
    return start + length == len(frame) and zlib.crc32(
        memoryview(frame)[start:]
    ) == crc
