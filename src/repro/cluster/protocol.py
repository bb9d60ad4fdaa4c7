"""The cluster wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian length followed by a UTF-8 JSON
object, read by :class:`FrameProtocol` with ``recv_into`` into one
buffer per connection (a stream transport's ``recv(256 KiB)`` allocates
a quarter-megabyte ``bytes`` per message) within the bounds the module
constants below set.  JSON keeps the protocol debuggable (``nc`` +
eyeballs) and the engine's value domain is JSON-friendly except for two
cases handled by tagging:

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
from collections import deque
from typing import Any

from .errors import ProtocolError

#: Frames above this size are refused — a corrupt length prefix must
#: not make a reader try to allocate gigabytes.
MAX_FRAME = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: A connection's buffer starts at this size and returns to it after a
#: larger frame; reading pauses while more bytes of complete frames than
#: ``PAUSE_AT`` wait to be asked for, and resumes at ``RESUME_AT``.
INITIAL_BUFFER = 64 * 1024
PAUSE_AT = 128 * 1024
RESUME_AT = PAUSE_AT // 2


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


class FrameProtocol(asyncio.BufferedProtocol):
    """One connection's framing, either end: :meth:`buffer_updated`
    cuts every complete body out of one buffer (resized only in
    :meth:`get_buffer`: the transport holds its view until then) for the
    oldest waiting :meth:`next_body`, else queues it.  EOF leaves the
    write side open, so frames sent before a half-close are answered."""

    def __init__(self) -> None:
        self.transport: asyncio.Transport  # set by connection_made
        self._buffer = bytearray(INITIAL_BUFFER)
        self._start = self._end = 0  # unconsumed: _buffer[_start:_end]
        self._frame = _LENGTH.size  # size of the frame being assembled
        self._bodies: deque[bytearray] = deque()
        self.buffered = 0  # bytes of complete frames not yet asked for
        self._waiters: deque[asyncio.Future] = deque()
        self._error: ProtocolError | None = None
        self._eof = False
        self._writable: asyncio.Future | None = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def get_buffer(self, sizehint: int) -> memoryview:
        start, end, size = self._start, self._end, max(INITIAL_BUFFER, self._frame)
        if start == end or start + self._frame > len(self._buffer):
            # Move the pending part of one frame to a buffer that fits it.
            pending = self._buffer[start:end]
            if len(self._buffer) != size:
                self._buffer = bytearray(size)
            self._buffer[: len(pending)] = pending
            self._start, self._end = 0, len(pending)
        return memoryview(self._buffer)[self._end :]

    def buffer_updated(self, nbytes: int) -> None:
        buffer, start, header = self._buffer, self._start, _LENGTH.size
        end = self._end = self._end + nbytes
        self._frame = header
        while end - start >= header:
            (length,) = _LENGTH.unpack_from(buffer, start)
            if length > MAX_FRAME:
                self.transport.pause_reading()
                error = f"frame of {length} bytes exceeds {MAX_FRAME}"
                self._finish(ProtocolError(error))
                return
            if end - start < header + length:
                self._frame = header + length
                break
            body = buffer[start + header : start + header + length]
            start += header + length
            if not self._waiters:
                self._bodies.append(body)
                self.buffered += len(body)
            elif not (waiter := self._waiters.popleft()).cancelled():
                waiter.set_result(body)  # a cancelled request's is dropped
        self._start = start
        if self.buffered > PAUSE_AT:
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        self._finish()
        return True  # keep the write side open

    def connection_lost(self, exc: Exception | None) -> None:
        self._finish()
        self.resume_writing()  # nothing more will drain

    def pause_writing(self) -> None:
        self._writable = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        if self._writable is not None:
            self._writable.set_result(None)
        self._writable = None

    def _finish(self, error: ProtocolError | None = None) -> None:
        """No more frames will come after those queued."""
        if self._error is None and error is None and self._end > self._start:
            error = ProtocolError("connection died mid frame")
        self._error = self._error or error
        self._eof = True
        for waiter in self._waiters:
            if not waiter.cancelled() and self._error is not None:
                waiter.set_exception(self._error)
            elif not waiter.cancelled():
                waiter.set_result(None)
        self._waiters.clear()

    def next_body(self) -> asyncio.Future:
        """The next frame's body, in the order asked; ``None`` at a clean
        end of stream, :class:`ProtocolError` for an unreadable frame."""
        waiter = asyncio.get_running_loop().create_future()
        if self._bodies:
            body = self._bodies.popleft()
            self.buffered -= len(body)
            waiter.set_result(body)
            if self.buffered <= RESUME_AT and not self._eof:
                self.transport.resume_reading()
        else:
            self._waiters.append(waiter)
            if self._eof:
                self._finish()
        return waiter

    async def send(self, frame: bytes) -> None:
        """Write ``frame`` (dropped once the connection is lost); wait
        while the transport is paused."""
        self.transport.write(frame)
        if self._writable is not None:
            await asyncio.shield(self._writable)


# -- response helpers --------------------------------------------------------


def ok_response(**fields: Any) -> dict:
    return {"ok": True, **fields}


def error_response(error: str, message: str, **fields: Any) -> dict:
    return {"ok": False, "error": error, "message": message, **fields}
