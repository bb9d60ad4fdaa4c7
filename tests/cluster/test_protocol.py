"""Wire protocol: framing, value tagging, and malformed-input
defence."""

import datetime
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import protocol
from repro.cluster.errors import ProtocolError

from .conftest import run


class StubTransport:
    """What :class:`protocol.FrameProtocol` asks of a transport."""

    def __init__(self) -> None:
        self.reading = True
        self.pauses = 0

    def pause_reading(self) -> None:
        self.pauses += self.reading
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True


def feed(framing: protocol.FrameProtocol, data: bytes) -> None:
    """Hand ``data`` over the way the event loop does: ``recv_into`` the
    buffer :meth:`get_buffer` returns, as much as fits, then
    :meth:`buffer_updated`."""
    while data:
        buffer = framing.get_buffer(-1)
        assert len(buffer) > 0
        n = min(len(buffer), len(data))
        buffer[:n] = data[:n]
        del buffer  # the loop's view dies before the next get_buffer
        framing.buffer_updated(n)
        data = data[n:]


def framing_over(transport=None) -> protocol.FrameProtocol:
    framing = protocol.FrameProtocol()
    framing.connection_made(transport or StubTransport())
    return framing


def read_one(*chunks: bytes, eof: bool = True):
    """The first frame of ``chunks`` (each handed over as one read),
    decoded; ``None`` on EOF before any frame."""

    async def go():
        framing = framing_over()
        for chunk in chunks:
            feed(framing, chunk)
        if eof:
            framing.eof_received()
        body = await framing.next_body()
        return None if body is None else protocol.decode_frame(body)

    return run(go())


class TestFraming:
    def test_round_trip(self):
        message = {
            "op": "execute",
            "tenant_id": 17,
            "params": [1, "x", None, 2.5],
        }
        frame = protocol.encode_frame(message)
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert protocol.decode_frame(frame[4:]) == message

    def test_read_frame_round_trip(self):
        message = {"op": "ping"}
        assert read_one(protocol.encode_frame(message)) == message

    def test_clean_eof_returns_none(self):
        assert read_one() is None

    def test_partial_header_is_an_error(self):
        with pytest.raises(ProtocolError, match="mid frame"):
            read_one(b"\x00\x00")

    def test_truncated_body_is_an_error(self):
        frame = protocol.encode_frame({"op": "ping"})
        with pytest.raises(ProtocolError, match="mid frame"):
            read_one(frame[:-3])

    def test_oversized_length_refused(self):
        """No EOF and no body byte: the header alone is refused, and the
        buffer never grows towards the length it names."""
        header = struct.pack(">I", protocol.MAX_FRAME + 1)

        async def go():
            transport = StubTransport()
            framing = framing_over(transport)
            feed(framing, header)
            body = framing.next_body()
            assert body.done()
            with pytest.raises(ProtocolError, match="exceeds"):
                body.result()
            assert not transport.reading
            assert len(framing.get_buffer(-1)) <= protocol.INITIAL_BUFFER

        run(go())

    def test_oversized_encode_refused(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME", 16)
        with pytest.raises(ProtocolError):
            protocol.encode_frame({"op": "x" * 100})

    def test_garbage_json_refused(self):
        body = b"not json at all"
        with pytest.raises(ProtocolError):
            read_one(struct.pack(">I", len(body)) + body)

    def test_non_object_payload_refused(self):
        body = json.dumps([1, 2, 3]).encode()
        with pytest.raises(ProtocolError):
            read_one(struct.pack(">I", len(body)) + body)

    @pytest.mark.parametrize("tagged", ["garbage", 5, None, [2001, 2, 3]])
    def test_malformed_date_tag_refused(self, tagged):
        """A tag that is not a date is a bad frame like any other — not
        a ``ValueError``/``TypeError`` out of the codec."""
        body = json.dumps({"op": "ping", "params": [{"$date": tagged}]}).encode()
        with pytest.raises(ProtocolError):
            read_one(struct.pack(">I", len(body)) + body)


class TestValueTagging:
    def test_dates_survive_the_wire(self):
        message = {
            "values": {"opened": datetime.date(2001, 2, 3)},
            "rows": [[1, datetime.date(1999, 12, 31)]],
        }
        decoded = protocol.decode_frame(
            protocol.encode_frame(message)[4:]
        )
        assert decoded["values"]["opened"] == datetime.date(2001, 2, 3)
        assert decoded["rows"][0][1] == datetime.date(1999, 12, 31)

    def test_decode_rows_builds_tuples(self):
        rows = protocol.decode_rows(
            [[1, "a", {"$date": "2001-02-03"}], [2, "b", None]]
        )
        assert rows == [
            (1, "a", datetime.date(2001, 2, 3)),
            (2, "b", None),
        ]

    def test_plain_dicts_untouched(self):
        message = {"values": {"aid": 1, "name": "Acme"}}
        assert (
            protocol.decode_frame(protocol.encode_frame(message)[4:])
            == message
        )


_bodies = st.binary(max_size=300)


class TestChunking:
    @settings(max_examples=40, deadline=None)
    @given(
        bodies=st.lists(_bodies, min_size=1, max_size=8),
        big_at=st.integers(min_value=0, max_value=8),
        cuts=st.lists(st.integers(min_value=0), max_size=30),
    )
    def test_any_chunking_yields_the_frames(self, bodies, big_at, cuts):
        """k frames, one of them larger than the initial buffer, split
        anywhere (inside headers too): exactly those k bodies come out,
        in order, and the buffer is back to its initial size after."""
        big = bytes(range(256)) * (protocol.INITIAL_BUFFER // 256 + 3)
        bodies = bodies[:big_at] + [big] + bodies[big_at:]
        stream = b"".join(struct.pack(">I", len(b)) + b for b in bodies)
        points = sorted({cut % (len(stream) + 1) for cut in cuts})
        headers = [0]
        for body in bodies[:-1]:
            headers.append(headers[-1] + 4 + len(body))
        points = sorted(set(points) | {h + 2 for h in headers})
        chunks = [
            stream[a:b] for a, b in zip([0, *points], [*points, len(stream)])
        ]

        async def go():
            transport = StubTransport()
            framing = framing_over(transport)
            got = []
            for chunk in chunks:
                feed(framing, chunk)
                while not transport.reading:  # the loop would stop here
                    got.append(await framing.next_body())
            framing.eof_received()
            while (body := await framing.next_body()) is not None:
                got.append(body)
            assert got == bodies
            assert len(framing.get_buffer(-1)) == protocol.INITIAL_BUFFER

        run(go())

    def test_unread_frames_pause_reading_then_resume(self):
        body = b"x" * 1000
        frame = struct.pack(">I", len(body)) + body

        async def go():
            transport = StubTransport()
            framing = framing_over(transport)
            while transport.reading and framing.buffered < 2 * protocol.PAUSE_AT:
                feed(framing, frame)
            assert not transport.reading
            assert framing.buffered > protocol.PAUSE_AT
            assert (
                framing.buffered <= protocol.PAUSE_AT + protocol.INITIAL_BUFFER
            )
            while not transport.reading:
                assert await framing.next_body() == body
            assert framing.buffered <= protocol.RESUME_AT
            assert transport.pauses == 1

        run(go())

    def test_concurrent_waiters_get_frames_in_order(self):
        async def go():
            framing = framing_over()
            first, second = framing.next_body(), framing.next_body()
            second_body = struct.pack(">I", 1) + b"b"
            feed(framing, struct.pack(">I", 1) + b"a" + second_body[:2])
            assert first.done() and not second.done()
            feed(framing, second_body[2:])
            assert (await first, await second) == (b"a", b"b")

        run(go())
