"""The cluster wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian length followed by a UTF-8 JSON
object.  JSON keeps the protocol debuggable (``nc`` + eyeballs) and the
engine's value domain is JSON-friendly except for two cases handled by
tagging:

* ``DATE`` values travel as ``{"$date": "YYYY-MM-DD"}``;
* result rows are tuples in the engine and travel as JSON arrays —
  :func:`decode_rows` turns them back into tuples so cluster results
  compare equal to local engine results.

The tagging rides the C JSON codec's own hooks — ``default=`` when it
meets a value it cannot encode, ``object_hook=`` for each object it
decodes — so no message is walked cell by cell in Python.

Requests and responses are plain dicts.  Every request carries ``op``
plus op-specific fields; every response carries ``ok`` (bool) and
either result fields or ``error`` / ``message`` (plus ``shard`` and
``placement_version`` for ``WrongShard``, so smart clients can refresh
their placement map and retry).
"""

from __future__ import annotations

import asyncio
import datetime
import json
import struct
from typing import Any

from .errors import ProtocolError

#: Frames above this size are refused — a corrupt length prefix must
#: not make a reader try to allocate gigabytes.
MAX_FRAME = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")


# -- value tagging -----------------------------------------------------------


def _tag(value: Any) -> dict:
    """The encoder's ``default=``: called for what JSON has no form for."""
    if isinstance(value, datetime.date) and not isinstance(
        value, datetime.datetime
    ):
        return {"$date": value.isoformat()}
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


def _untag(obj: dict) -> Any:
    """The decoder's ``object_hook=``: called for every decoded object."""
    if len(obj) == 1 and "$date" in obj:
        try:
            return datetime.date.fromisoformat(obj["$date"])
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                f"malformed $date tag {obj['$date']!r}"
            ) from exc
    return obj


_ENCODER = json.JSONEncoder(
    separators=(",", ":"), ensure_ascii=False, default=_tag
)
_DECODER = json.JSONDecoder(object_hook=_untag)


def decode_rows(rows: list) -> list[tuple]:
    """Result rows come back as JSON arrays; the engine's are tuples.

    :func:`decode_frame` has untagged every cell already; a cell that
    is still an object can only be a tag handed in undecoded."""
    return [
        tuple(row)
        if dict not in map(type, row)
        else tuple(
            _untag(cell) if type(cell) is dict else cell for cell in row
        )
        for row in rows
    ]


# -- framing -----------------------------------------------------------------


def encode_frame(message: dict) -> bytes:
    body = _ENCODER.encode(message).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds {MAX_FRAME}")
    return _LENGTH.pack(len(body)) + body


def decode_frame(body: bytes) -> dict:
    try:
        message = _DECODER.decode(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return message


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection died mid frame header") from exc
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME}")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection died mid frame body") from exc
    return decode_frame(body)


async def write_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    writer.write(encode_frame(message))
    await writer.drain()


# -- response helpers --------------------------------------------------------


def ok_response(**fields: Any) -> dict:
    return {"ok": True, **fields}


def error_response(error: str, message: str, **fields: Any) -> dict:
    return {"ok": False, "error": error, "message": message, **fields}
