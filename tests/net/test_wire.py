"""The ``repro-wire/1`` codec: round-trips, framing, and loud failure."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import wire_message_builders, wire_messages_st

from repro.dlpt import messages as m
from repro.net.wire import (
    HEADER_SIZE,
    MAX_FRAME_BYTES,
    WIRE_SCHEMA,
    FrameReader,
    WireError,
    decode_frame,
    encode_frame,
)


class TestRoundTrip:
    def test_every_message_type_has_a_round_trip_builder(self):
        """The strategy registry and the codec's type registry must list
        the same dataclasses — a message type added to the wire without a
        generator would silently escape the round-trip property."""
        from repro.net.wire import MESSAGE_TYPES

        assert set(wire_message_builders) == set(MESSAGE_TYPES)

    @settings(max_examples=200, deadline=None)
    @given(message=wire_messages_st)
    def test_protocol_messages_round_trip(self, message):
        """Every protocol dataclass decodes back to an equal instance —
        the property the conformance harness relies on."""
        env = decode_frame(encode_frame("src", "dst", message))
        assert env.src == "src" and env.dst == "dst"
        assert type(env.payload) is type(message)
        assert env.payload == message

    @settings(max_examples=100, deadline=None)
    @given(
        payload=st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=8),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=5), inner, max_size=3),
            max_leaves=10,
        )
    )
    def test_json_control_payloads_round_trip(self, payload):
        env = decode_frame(encode_frame("@client", "@broker", payload))
        assert env.payload == payload

    def test_frames_are_byte_stable(self):
        message = m.DiscoveryRequest(node="ab", key="abc", reply_to="@c", hops=3)
        assert encode_frame("a", "b", message) == encode_frame("a", "b", message)

    def test_body_carries_schema_tag(self):
        frame = encode_frame("a", "b", {"op": "info"})
        body = json.loads(frame[HEADER_SIZE:].decode("utf-8"))
        assert body["w"] == WIRE_SCHEMA


class TestFrameReader:
    @settings(max_examples=60, deadline=None)
    @given(
        messages=st.lists(wire_messages_st, min_size=1, max_size=6),
        chunk_size=st.integers(1, 64),
    )
    def test_arbitrary_chunking_preserves_frames(self, messages, chunk_size):
        """Socket reads arrive at arbitrary byte boundaries; frames must
        come out whole, in order, exactly once."""
        stream = b"".join(
            encode_frame(f"p{i}", f"q{i}", msg) for i, msg in enumerate(messages)
        )
        reader = FrameReader()
        received = []
        for i in range(0, len(stream), chunk_size):
            received.extend(reader.feed(stream[i : i + chunk_size]))
        assert [env.payload for env in received] == messages
        assert [env.src for env in received] == [f"p{i}" for i in range(len(messages))]
        assert reader.pending_bytes == 0

    def test_partial_frame_stays_pending(self):
        frame = encode_frame("a", "b", {"op": "info"})
        reader = FrameReader()
        assert list(reader.feed(frame[:-1])) == []
        assert reader.pending_bytes == len(frame) - 1
        assert len(list(reader.feed(frame[-1:]))) == 1

    def test_connection_death_mid_frame_emits_nothing(self):
        """A connection dying inside a frame leaves the torn bytes
        pending and no envelope — a half-frame is never half-delivered.
        The reconnect discipline is a *fresh* reader per connection, so
        stale bytes can never prefix the retransmitted stream."""
        first = encode_frame("a", "b", {"op": "register", "key": "k1"})
        second = encode_frame("a", "b", {"op": "register", "key": "k2"})
        reader = FrameReader()
        assert len(list(reader.feed(first))) == 1
        assert list(reader.feed(second[: len(second) // 2])) == []
        # ... the socket EOFs here: the torn frame stays buffered, unparsed.
        assert 0 < reader.pending_bytes < len(second)
        # The reconnected stream goes through a fresh reader: the
        # retransmission parses cleanly, exactly once.
        fresh = FrameReader()
        assert [env.payload["key"] for env in fresh.feed(second)] == ["k2"]

    def test_connection_death_inside_the_header_emits_nothing(self):
        frame = encode_frame("a", "b", {"op": "info"})
        reader = FrameReader()
        assert list(reader.feed(frame[:2])) == []  # not even a length yet
        assert reader.pending_bytes == 2


class TestMalformedInput:
    def test_truncated_header(self):
        with pytest.raises(WireError, match="truncated"):
            decode_frame(b"\x00\x00")

    def test_length_mismatch(self):
        frame = encode_frame("a", "b", {"op": "info"})
        with pytest.raises(WireError, match="length mismatch"):
            decode_frame(frame + b"junk")

    def test_oversized_declared_length(self):
        header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(WireError, match="MAX_FRAME_BYTES"):
            decode_frame(header)
        with pytest.raises(WireError, match="MAX_FRAME_BYTES"):
            list(FrameReader().feed(header))

    def _frame(self, body: dict) -> bytes:
        data = json.dumps(body).encode("utf-8")
        return len(data).to_bytes(4, "big") + data

    def test_wrong_schema_rejected(self):
        body = {"w": "repro-wire/999", "s": "a", "d": "b", "t": "json", "f": None}
        with pytest.raises(WireError, match="schema"):
            decode_frame(self._frame(body))

    def test_unknown_message_type_rejected(self):
        body = {"w": WIRE_SCHEMA, "s": "a", "d": "b", "t": "Nope", "f": {}}
        with pytest.raises(WireError, match="unknown wire message type"):
            decode_frame(self._frame(body))

    def test_malformed_fields_rejected(self):
        body = {"w": WIRE_SCHEMA, "s": "a", "d": "b", "t": "DataInsertion", "f": {"x": 1}}
        with pytest.raises(WireError, match="malformed"):
            decode_frame(self._frame(body))

    def test_non_json_body_rejected(self):
        data = b"\xff\xfe not json"
        with pytest.raises(WireError):
            decode_frame(len(data).to_bytes(4, "big") + data)

    def test_non_scalar_datum_rejected(self):
        message = m.DataInsertion(node="a", key="ab", datum=object())
        with pytest.raises(WireError, match="not wire-encodable"):
            encode_frame("a", "b", message)

    @pytest.mark.parametrize(
        "name, fields",
        [
            ("DataInsertion", {"node": "a", "key": "ab", "datum": {"a": 1}}),
            ("DataInsertion", {"node": "a", "key": "ab", "datum": [1]}),
            ("DiscoveryReply", {"key": "ab", "found": True, "data": [["nested"]], "hops": 0}),
            ("Host", {"payload": {"label": "a", "father": None, "children": [], "data": [{}]}}),
            (
                "LeaveTransfer",
                {"pred": "a", "nodes": [{"label": "a", "father": None, "children": [], "data": [[1]]}]},
            ),
        ],
    )
    def test_non_scalar_values_are_refused_on_decode_too(self, name, fields):
        """What the encoder refuses to send, the decoder refuses to accept
        (a frame may come from anyone): an unhashable datum used to pass
        and raise ``TypeError`` inside the handler that stored it."""
        body = {"w": WIRE_SCHEMA, "s": "a", "d": "b", "t": name, "f": fields}
        with pytest.raises(WireError, match="not wire-encodable"):
            decode_frame(self._frame(body))

    def test_unencodable_payload_rejected(self):
        with pytest.raises(WireError, match="not wire-encodable"):
            encode_frame("a", "b", {1, 2, 3})
