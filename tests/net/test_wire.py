"""The ``repro-wire/1`` codec: round-trips, framing, and loud failure."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import wire_message_builders, wire_messages_st

from repro.dlpt import messages as m
from repro.net import wire
from repro.net.wire import (
    HEADER_SIZE,
    MAX_FRAME_BYTES,
    MESSAGE_TYPES,
    WIRE_SCHEMA,
    FrameReader,
    WireError,
    decode_frame,
    encode_frame,
    encode_payload,
)

#: JSON control payloads (broker RPCs, hellos): nested lists and objects.
json_payloads_st = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10,
)


class TestRoundTrip:
    def test_every_message_type_has_a_round_trip_builder(self):
        """The strategy registry and the codec's type registry must list
        the same dataclasses — a message type added to the wire without a
        generator would silently escape the round-trip property."""
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
    @given(payload=json_payloads_st)
    def test_json_control_payloads_round_trip(self, payload):
        env = decode_frame(encode_frame("@client", "@broker", payload))
        assert env.payload == payload

    def test_frames_are_byte_stable(self):
        message = m.DiscoveryRequest(node="ab", key="abc", reply_to="@c", hops=3)
        assert encode_frame("a", "b", message) == encode_frame("a", "b", message)


def _assert_canonical(frame: bytes) -> None:
    body = frame[HEADER_SIZE:]
    assert body == json.dumps(json.loads(body), sort_keys=True, separators=(",", ":")).encode()


class TestCanonicalForm:
    """A frame body is the canonical JSON of its value — sorted keys, no
    whitespace, ASCII escapes — whatever encoder object produces it."""

    @settings(max_examples=200, deadline=None)
    @given(message=wire_messages_st)
    def test_protocol_frames_are_canonical(self, message):
        _assert_canonical(encode_frame("src", "dst", message))

    @settings(max_examples=100, deadline=None)
    @given(payload=json_payloads_st)
    def test_json_control_frames_are_canonical(self, payload):
        _assert_canonical(encode_frame("@client", "@broker", payload))

    def test_a_discovery_request_frame_is_pinned(self):
        message = m.DiscoveryRequest(node="ab", key="abc", reply_to="@c", hops=3)
        assert encode_frame("a", "b", message) == (
            b"\x00\x00\x00\x72"
            b'{"d":"b","f":{"hops":3,"key":"abc","node":"ab","reply_to":"@c"},'
            b'"s":"a","t":"DiscoveryRequest","w":"repro-wire/1"}'
        )

    def test_a_discovery_batch_frame_is_pinned(self):
        message = m.DiscoveryBatch(node="ab", keys=("abc", "abc", "abd"), reply_to="@c", hops=3)
        assert encode_frame("a", "b", message) == (
            b"\x00\x00\x00\x7f"
            b'{"d":"b","f":{"hops":3,"keys":["abc","abc","abd"],"node":"ab","reply_to":"@c"},'
            b'"s":"a","t":"DiscoveryBatch","w":"repro-wire/1"}'
        )

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

    @pytest.mark.parametrize(
        "name, fields, field",
        [
            ("Host", {"payload": {"label": 5, "father": 7, "children": [1, 2], "data": []}}, "label"),
            ("Host", {"payload": {"label": "a", "father": 7, "children": [], "data": []}}, "father"),
            (
                "Host",
                {"payload": {"label": "a", "father": None, "children": [1, 2], "data": []}},
                "children",
            ),
            (
                "LeaveTransfer",
                {"pred": "a", "nodes": [{"label": "a", "father": None, "children": "ab", "data": []}]},
                "children",
            ),
            ("Host", {"payload": {"label": "a", "father": None, "children": [], "data": "xy"}}, "data"),
            (
                "SetQueryRequest",
                {"node": "a", "kind": "prefix", "lo": "a", "hi": "", "reply_to": "@c", "pending": [1]},
                "pending",
            ),
            ("SetQueryReply", {"kind": "prefix", "lo": "a", "hi": "", "keys": [None]}, "keys"),
        ],
    )
    def test_a_mistyped_field_is_refused_not_coerced(self, name, fields, field):
        """A node or scan-token field of the wrong type is refused, naming
        the field: a codec that ran ``str()`` over a label turned ``5`` into
        the label ``"5"``."""
        body = {"w": WIRE_SCHEMA, "s": "a", "d": "b", "t": name, "f": fields}
        with pytest.raises(WireError, match=f"field '{field}'"):
            decode_frame(self._frame(body))

    def test_unencodable_payload_rejected(self):
        with pytest.raises(WireError, match="not wire-encodable"):
            encode_frame("a", "b", {1, 2, 3})


#: A well-formed node object, and per field annotation a well-typed JSON
#: value plus wrong-typed ones the codec must refuse (``True`` for an
#: ``int`` among them: a ``bool`` is not an ``int``).
_NODE = {"label": "a", "father": None, "children": [], "data": []}
_VALUES = {
    "str": ("a", [5, None, True, ["a"]]),
    "int": (0, [True, "0", 0.5, None]),
    "bool": (False, ["no", 0, None]),
    "object": (None, [{"a": 1}, [1]]),
    "Optional[str]": (None, [7, False, []]),
    "Tuple[str, ...]": ([], ["ab", [1], [None], {}]),
    "Tuple[object, ...]": ([], ["xy", [[1]], [{}], {}]),
    "set[object]": ([], ["xy", [[1]], {}]),
    "NodeState": (_NODE, ["a", [], None, {**_NODE, "label": 5}]),
    "Tuple[NodeState, ...]": ([], [_NODE, ["a"], "a", [{**_NODE, "data": "xy"}]]),
}

#: Every record that crosses the wire: the messages, and the node record
#: (carried here as a ``Host`` payload).
_RECORDS = (*MESSAGE_TYPES.values(), m.NodeState)


def _well_typed(cls) -> dict:
    return {f.name: _VALUES[f.type][0] for f in dataclasses.fields(cls)}


def _record_frame(cls, fields: dict) -> bytes:
    name, fields = ("Host", {"payload": fields}) if cls is m.NodeState else (cls.__name__, fields)
    data = json.dumps({"w": WIRE_SCHEMA, "s": "a", "d": "b", "t": name, "f": fields}).encode()
    return len(data).to_bytes(4, "big") + data


def _wrong_field_cases():
    for cls in _RECORDS:
        for f in dataclasses.fields(cls):
            for wrong in _VALUES[f.type][1]:
                yield pytest.param(cls, f.name, wrong, id=f"{cls.__name__}.{f.name}={wrong!r}")


class TestEveryFieldIsChecked:
    """The cases come from the declarations, so a new field is covered
    without editing this test (and a new annotation fails it by name)."""

    @pytest.mark.parametrize("cls", _RECORDS, ids=lambda cls: cls.__name__)
    def test_well_typed_fields_decode(self, cls):
        payload = decode_frame(_record_frame(cls, _well_typed(cls))).payload
        assert type(payload.payload if cls is m.NodeState else payload) is cls

    @pytest.mark.parametrize("cls, field, wrong", _wrong_field_cases())
    def test_a_wrong_typed_value_is_refused_naming_the_field(self, cls, field, wrong):
        fields = {**_well_typed(cls), field: wrong}
        with pytest.raises(WireError, match=f"{cls.__name__} field '{field}'"):
            decode_frame(_record_frame(cls, fields))

    @pytest.mark.parametrize(
        "cls, field",
        [(cls, f.name) for cls in _RECORDS for f in dataclasses.fields(cls)],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_a_missing_field_is_refused_even_with_a_default(self, cls, field):
        fields = _well_typed(cls)
        del fields[field]
        with pytest.raises(WireError, match=f"malformed {cls.__name__}"):
            decode_frame(_record_frame(cls, fields))

    def test_a_nodes_children_come_back_sorted_and_unique(self):
        node = {**_NODE, "children": ["ac", "ab", "ac"]}
        payload = decode_frame(_record_frame(m.NodeState, node)).payload.payload
        assert payload.children == ("ab", "ac")


#: Any JSON value ``json`` encodes: non-ASCII and escaped text, every
#: float (``NaN`` and the infinities included), nesting.
json_values_st = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)

#: The stdlib encoder the prebuilt one replaces, built the way frames were.
_REFERENCE = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _reference_frame(src, dst, payload) -> bytes:
    name, fields = encode_payload(payload)
    body = {"w": WIRE_SCHEMA, "s": src, "d": dst, "t": name, "f": fields}
    data = _REFERENCE.encode(body).encode("utf-8")
    return len(data).to_bytes(4, "big") + data


def _loaded(text: str):
    """``("ok", canonical value)`` or ``("refused", None)`` for ``json.loads``'s
    verdict on ``text`` (``NaN`` is not equal to itself, its dump is)."""
    try:
        return "ok", json.dumps(json.loads(text), sort_keys=True)
    except json.JSONDecodeError:
        return "refused", None


def _coded(text: str):
    try:
        return "ok", json.dumps(wire._loads(text), sort_keys=True)
    except json.JSONDecodeError:
        return "refused", None


class TestPrebuiltCoder:
    """Frames come from one prebuilt C encoder and the C scanner: the bytes,
    and what is accepted or refused, are those of ``json.JSONEncoder`` /
    ``json.loads``."""

    @settings(max_examples=300, deadline=None)
    @given(payload=json_values_st)
    def test_json_frames_equal_the_stdlib_encoders_bytes(self, payload):
        assert encode_frame("@c-é", "@broker", payload) == _reference_frame("@c-é", "@broker", payload)

    @pytest.mark.parametrize("name", sorted(MESSAGE_TYPES))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_every_message_records_frames_equal_the_stdlib_encoders_bytes(self, name, data):
        message = data.draw(wire_message_builders[name])
        assert encode_frame("pa", "pb", message) == _reference_frame("pa", "pb", message)

    @settings(max_examples=300, deadline=None)
    @given(value=json_values_st, indent=st.sampled_from([None, 0, 2]))
    def test_decode_accepts_exactly_what_json_loads_accepts(self, value, indent):
        text = json.dumps(value, indent=indent, ensure_ascii=indent is None)
        assert _coded(text) == _loaded(text) == ("ok", json.dumps(value, sort_keys=True))

    @settings(max_examples=300, deadline=None)
    @given(
        value=json_values_st,
        mutate=st.sampled_from([
            lambda t: t + "x", lambda t: t + " 1", lambda t: t + t, lambda t: t + "\n",
            lambda t: " \t\r\n" + t + "\n ", lambda t: "\ufeff" + t, lambda t: t + "\ufeff",
            lambda t: t[:-1], lambda t: t[1:], lambda t: t[: len(t) // 2],
            lambda t: t.replace("null", "NaN"), lambda t: t.replace("0", "NaN"),
            lambda t: "", lambda t: "   ",
        ]),
    )
    def test_decode_refuses_exactly_what_json_loads_refuses(self, value, mutate):
        text = mutate(json.dumps(value))
        assert _coded(text) == _loaded(text)
        frame = len(text.encode()).to_bytes(4, "big") + text.encode()
        if _loaded(text)[0] == "refused":
            with pytest.raises(WireError, match="frame body is not JSON"):
                decode_frame(frame)

    def test_a_bom_is_refused(self):
        frame = encode_frame("a", "b", {"op": "info"})
        body = "\ufeff".encode() + frame[HEADER_SIZE:]
        with pytest.raises(WireError, match="frame body is not JSON"):
            decode_frame(len(body).to_bytes(4, "big") + body)

    def test_a_circular_payload_is_refused_and_the_next_encode_succeeds(self):
        loop: list = []
        loop.append(loop)
        with pytest.raises(WireError, match="Circular reference"):
            encode_frame("a", "b", {"loop": loop})
        assert encode_frame("a", "b", {"ok": [1]}) == _reference_frame("a", "b", {"ok": [1]})

    def test_a_failed_encode_leaves_no_mark_behind(self):
        """The encoder marks each container it enters and unmarks it on
        the way out, but not when the encode fails inside it: a stale mark
        would call that live container circular in the next frame."""
        payload = {"keys": ["a", "b"], "bad": object()}
        with pytest.raises(WireError, match="not JSON-serialisable"):
            encode_frame("a", "b", payload)
        del payload["bad"]
        assert encode_frame("a", "b", payload) == _reference_frame("a", "b", payload)
        assert wire._MARKERS == {}
