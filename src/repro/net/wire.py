"""The ``repro-wire/1`` frame codec: length-prefixed JSON messages.

Every message crossing an :class:`~repro.net.asyncio_transport.AsyncioTransport`
socket is one *frame*:

* a 4-byte big-endian unsigned length prefix, followed by
* that many bytes of UTF-8 JSON (sorted keys, no whitespace — frames are
  byte-stable for identical envelopes), the *body*:

  ``{"d": <dst>, "s": <src>, "t": <type>, "f": <fields>, "w": "repro-wire/1"}``

``t`` names the payload type: one of the protocol message dataclasses of
:mod:`repro.dlpt.messages` (``"DataInsertion"``, ``"DiscoveryRequest"``,
…) with ``f`` holding its fields, or ``"json"`` for plain JSON control
payloads (the bootstrap registry and client RPCs of
:mod:`repro.net.bootstrap`).  Containers are canonicalised on encode —
``frozenset`` → sorted list, ``tuple`` → list, nested
:class:`~repro.dlpt.messages.NodeState` → object (children sorted, data in
set order) — and restored exactly on decode, so a protocol dataclass
round-trips to an equal instance.  A decoded node is a fresh record: what
crosses a socket arrives as the codec's copy, where an in-process hop
hands the sender's own record over.

The codec raises :class:`WireError` on anything malformed (oversized
frame, unknown type, non-JSON body): a corrupted peer must fail loudly at
the transport boundary, never poison protocol state.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from typing import Any, Hashable, Iterator, Tuple

from ..dlpt import messages as m
from ..dlpt.messages import Envelope

WIRE_SCHEMA = "repro-wire/1"

_HEADER = struct.Struct("!I")
HEADER_SIZE = _HEADER.size

#: Upper bound on one frame's JSON body; a ``LeaveTransfer`` carrying a
#: large ν easily reaches megabytes, anything beyond this is corruption.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: The one encoder of every frame body (sorted keys, no whitespace):
#: ``json.dumps`` with arguments builds a fresh encoder on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: The protocol dataclasses that may cross the wire, by type name.
MESSAGE_TYPES = {
    cls.__name__: cls
    for cls in (
        m.PeerJoin,
        m.NewPredecessor,
        m.YourInformation,
        m.UpdateSuccessor,
        m.LeaveTransfer,
        m.DataInsertion,
        m.SearchingHost,
        m.Host,
        m.UpdateChild,
        m.DiscoveryRequest,
        m.DiscoveryReply,
        m.SetQueryRequest,
        m.SetQueryReply,
    )
}

#: Every type's field names, in declaration order: what ``encode_payload``
#: reads off a (slotted, ``__dict__``-less) message.
_FIELD_NAMES = {
    name: tuple(f.name for f in dataclasses.fields(cls))
    for name, cls in MESSAGE_TYPES.items()
}

#: Fields holding a tuple of strings, per type (lists on the wire).
_STRING_TUPLE_FIELDS = {
    "SetQueryRequest": ("pending", "keys"),
    "SetQueryReply": ("keys",),
}

#: Fields holding one NodeState / a tuple of NodeStates, per type.
_PAYLOAD_FIELDS = {"SearchingHost": "payload", "Host": "payload"}
_PAYLOAD_TUPLE_FIELDS = {"YourInformation": "nodes", "LeaveTransfer": "nodes"}


class WireError(ValueError):
    """A malformed frame or an unencodable payload."""


# -- payload serde -----------------------------------------------------------


def encode_node_payload(node: m.NodeState) -> dict:
    """JSON object form of one :class:`~repro.dlpt.messages.NodeState`
    (also shipped inside the multi-process control RPCs)."""
    return {
        "label": node.label,
        "father": node.father,
        "children": list(node.children),
        "data": [require_scalar(d) for d in node.data],
    }


def decode_node_payload(obj: Any) -> m.NodeState:
    """Inverse of :func:`encode_node_payload`: a new node record.  A field
    of the wrong type is refused, never coerced."""
    try:
        label, father, children, data = (obj[k] for k in ("label", "father", "children", "data"))
    except (KeyError, TypeError) as exc:
        raise WireError(f"malformed NodeState object: {obj!r}") from exc
    if not isinstance(label, str):
        raise WireError(f"NodeState field 'label' must be a string, got {label!r}")
    if not (father is None or isinstance(father, str)):
        raise WireError(f"NodeState field 'father' must be a string or null, got {father!r}")
    if not isinstance(data, list):
        raise WireError(f"NodeState field 'data' must be a list, got {data!r}")
    children = tuple(sorted(set(_strings("NodeState", "children", children))))
    return m.NodeState(label, father, children, {require_scalar(d) for d in data})


def _strings(owner: str, name: str, value: Any) -> list:
    """``value`` if it is a list of strings; a :class:`WireError` naming
    ``owner``'s field ``name`` otherwise."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise WireError(f"{owner} field {name!r} must be a list of strings, got {value!r}")
    return value


def require_scalar(value: Any) -> Any:
    """The one rule for what a registered ``datum`` may be: a JSON scalar.
    Returns ``value``; raises :class:`WireError` otherwise.  The broker
    applies it at admission (:mod:`repro.net.bootstrap`), the codec on
    every frame it encodes and — a frame may come from anyone — decodes."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise WireError(
        f"datum {value!r} is not wire-encodable; only JSON scalars cross "
        "the wire (register rich data under a string key instead)"
    )


def encode_payload(payload: Any) -> Tuple[str, Any]:
    """``(type-name, fields)`` for a protocol message or a JSON control
    payload; raises :class:`WireError` for anything else."""
    name = type(payload).__name__
    if MESSAGE_TYPES.get(name) is type(payload):
        fields = {field: getattr(payload, field) for field in _FIELD_NAMES[name]}
        if name in _PAYLOAD_FIELDS:
            key = _PAYLOAD_FIELDS[name]
            fields[key] = encode_node_payload(fields[key])
        elif name in _PAYLOAD_TUPLE_FIELDS:
            key = _PAYLOAD_TUPLE_FIELDS[name]
            fields[key] = [encode_node_payload(p) for p in fields[key]]
        elif name == "DataInsertion":
            fields["datum"] = require_scalar(fields["datum"])
        elif name == "DiscoveryReply":
            fields["data"] = [require_scalar(d) for d in fields["data"]]
        elif name in _STRING_TUPLE_FIELDS:
            for key in _STRING_TUPLE_FIELDS[name]:
                fields[key] = list(fields[key])
        return name, fields
    if isinstance(payload, (dict, list, str, int, float, bool)) or payload is None:
        return "json", payload
    raise WireError(f"payload of type {type(payload).__name__!r} is not wire-encodable")


def decode_payload(name: str, fields: Any) -> Any:
    """Inverse of :func:`encode_payload`."""
    if name == "json":
        return fields
    cls = MESSAGE_TYPES.get(name)
    if cls is None:
        raise WireError(f"unknown wire message type {name!r}")
    if not isinstance(fields, dict):
        raise WireError(f"{name} fields must be an object, got {type(fields).__name__}")
    fields = dict(fields)
    try:
        if name in _PAYLOAD_FIELDS:
            key = _PAYLOAD_FIELDS[name]
            fields[key] = decode_node_payload(fields[key])
        elif name in _PAYLOAD_TUPLE_FIELDS:
            key = _PAYLOAD_TUPLE_FIELDS[name]
            fields[key] = tuple(decode_node_payload(p) for p in fields[key])
        elif name == "DataInsertion":
            require_scalar(fields.get("datum"))
        elif name == "DiscoveryReply":
            fields["data"] = tuple(require_scalar(d) for d in fields["data"])
        elif name in _STRING_TUPLE_FIELDS:
            for key in _STRING_TUPLE_FIELDS[name]:
                fields[key] = tuple(_strings(name, key, fields[key]))
        return cls(**fields)
    except WireError:
        raise
    except (TypeError, KeyError, ValueError) as exc:
        raise WireError(f"malformed {name} fields: {fields!r}") from exc


# -- frame serde -------------------------------------------------------------


def encode_frame(src: Hashable, dst: Hashable, payload: Any) -> bytes:
    """One wire frame (length prefix + JSON body) for an envelope."""
    name, fields = encode_payload(payload)
    body = {"w": WIRE_SCHEMA, "s": src, "d": dst, "t": name, "f": fields}
    try:
        data = _ENCODER.encode(body).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireError(f"payload is not JSON-serialisable: {exc}") from exc
    if len(data) > MAX_FRAME_BYTES:
        raise WireError(f"frame body of {len(data)} bytes exceeds MAX_FRAME_BYTES")
    return _HEADER.pack(len(data)) + data


def decode_body(data: bytes) -> Envelope:
    """Decode one frame *body* (the JSON bytes after the length prefix)."""
    try:
        body = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"frame body is not JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise WireError("frame body must be a JSON object")
    schema = body.get("w")
    if schema != WIRE_SCHEMA:
        raise WireError(f"frame schema {schema!r} is not {WIRE_SCHEMA!r}")
    try:
        src, dst, name, fields = body["s"], body["d"], body["t"], body["f"]
    except KeyError as exc:
        raise WireError(f"frame body lacks key {exc}") from exc
    return Envelope(src, dst, decode_payload(name, fields))


def decode_frame(frame: bytes) -> Envelope:
    """Decode one complete frame (prefix + body); exact length required."""
    if len(frame) < HEADER_SIZE:
        raise WireError("truncated frame header")
    (length,) = _HEADER.unpack_from(frame)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"declared frame length {length} exceeds MAX_FRAME_BYTES")
    if len(frame) != HEADER_SIZE + length:
        raise WireError(
            f"frame length mismatch: declared {length}, got {len(frame) - HEADER_SIZE}"
        )
    return decode_body(frame[HEADER_SIZE:])


class FrameReader:
    """Incremental frame parser for a byte stream (socket reads arrive in
    arbitrary chunks; frames come out whole and in order)."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> Iterator[Envelope]:
        """Absorb ``chunk``; yield every frame completed by it."""
        self._buffer.extend(chunk)
        while True:
            if len(self._buffer) < HEADER_SIZE:
                return
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise WireError(
                    f"declared frame length {length} exceeds MAX_FRAME_BYTES"
                )
            end = HEADER_SIZE + length
            if len(self._buffer) < end:
                return
            body = bytes(self._buffer[HEADER_SIZE:end])
            del self._buffer[:end]
            yield decode_body(body)

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)
