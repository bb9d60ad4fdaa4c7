"""CRC-framed record serialization shared by the WAL and page store.

Every record is wrapped in a ``[length][crc32]`` frame.  Readers
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
behind a one-byte type tag (:func:`~repro.engine.values.put_values`),
so they decode type-exact without pickle.  Every other log record
(checkpoints, DDL statements as SQL text, admin brackets) is a pickle,
whose protocol-4 ``PROTO`` opcode is ``0x80``.  A page-store frame
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
from typing import BinaryIO, Iterator

from ..errors import EngineError
from ..values import put_values, take_values

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


def encode_frame(record: object) -> bytes:
    """Pickle one log record into a self-checking frame."""
    return frame_payload(pickle.dumps(record, protocol=_PROTOCOL))


def frame_payload(payload: bytes) -> bytes:
    """Frame bytes already encoded."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


# -- fixed-shape log records ------------------------------------------------

#: Kind codes: a fixed-shape payload's low three bits.  Flag bits above
#: them stay below a pickle's first byte.
_KIND_NAME = dict(enumerate(("ins", "del", "upd", "commit", "rollback"), 1))
_KIND_CODE = {kind: code for code, kind in _KIND_NAME.items()}
_ADMIN, _MOVED, _PICKLED = 0x08, 0x10, 0x80
#: A header integer is at most ten varint bytes: seventy bits.
_VARINT_LIMIT = 1 << 70


def _put_uints(out: bytearray, *values: int) -> None:
    """Append each value as an unsigned LEB128 varint: seven bits a
    byte, lowest first, the high bit set on all but the last, so a
    value below 128 is its own byte."""
    for value in values:
        if not 0 <= value < _VARINT_LIMIT:
            raise ValueError(f"{value} is no unsigned 10-byte varint")
        while value >= 0x80:
            out.append(value & 0x7F | 0x80)
            value >>= 7
        out.append(value)


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
    out = bytearray((code,))
    try:
        _put_uints(out, record["tx"])
        if admin is not None:
            _put_uints(out, admin)
        if rid is None:
            return frame_payload(out)  # a terminal
        _put_uints(out, record["segment"], *rid)
        if code & _MOVED:
            _put_uints(out, *record["new_rid"])
        if "row" in record:
            _put_uints(out, len(record["row"]))
            put_values(out, record["row"])
        elif "set" in record:
            cells = record["set"]
            _put_uints(out, len(cells), *cells)
            put_values(out, cells.values())
    except ValueError as exc:
        raise EngineError(
            f"WAL {record['t']} record: a field outside its width ({exc})"
        ) from None
    return frame_payload(out)


def _decode_fixed(payload: bytes) -> dict:
    code, at, end = payload[0], 1, len(payload)

    def uint() -> int:
        nonlocal at
        value = shift = 0
        while at < end:
            byte = payload[at]
            at += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                return value
            shift += 7
            if shift == 70:
                raise ValueError("a varint longer than 10 bytes")
        raise ValueError("a varint runs past the record's end")

    def take_tagged(count: int) -> list:
        nonlocal at
        values, at = take_values(payload, at, count)
        return values

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
        record["row"] = tuple(take_tagged(uint()))
    elif kind == "upd":
        record["new_rid"] = (uint(), uint()) if code & _MOVED else record["rid"]
        positions = [uint() for _ in range(uint())]
        record["set"] = dict(zip(positions, take_tagged(len(positions))))
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
    while offset + HEADER_SIZE <= total:
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + HEADER_SIZE
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

