"""Wire protocol: framing, value tagging, and malformed-input
defence."""

import asyncio
import datetime
import json
import struct

import pytest

from repro.cluster import protocol
from repro.cluster.errors import ProtocolError

from .conftest import run


def read_one(*chunks: bytes):
    async def go():
        reader = asyncio.StreamReader()
        for chunk in chunks:
            reader.feed_data(chunk)
        reader.feed_eof()
        return await protocol.read_frame(reader)

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
        with pytest.raises(ProtocolError):
            read_one(b"\x00\x00")

    def test_truncated_body_is_an_error(self):
        frame = protocol.encode_frame({"op": "ping"})
        with pytest.raises(ProtocolError):
            read_one(frame[:-3])

    def test_oversized_length_refused(self):
        header = struct.pack(">I", protocol.MAX_FRAME + 1)
        with pytest.raises(ProtocolError):
            read_one(header)

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
        a ``ValueError``/``TypeError`` out of ``read_frame``."""
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
