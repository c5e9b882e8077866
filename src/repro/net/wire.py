"""The ``repro-wire/1`` frame codec: length-prefixed JSON messages.

Every message crossing an :class:`~repro.net.asyncio_transport.AsyncioTransport`
socket is one *frame*:

* a 4-byte big-endian unsigned length prefix, followed by
* that many bytes of UTF-8 JSON (sorted keys, no whitespace — frames are
  byte-stable for identical envelopes), the *body*:

  ``{"d": <dst>, "s": <src>, "t": <type>, "f": <fields>, "w": "repro-wire/1"}``

``t`` names the payload type: one of the protocol message dataclasses of
:mod:`repro.dlpt.messages` (``"DataInsertion"``, ``"DiscoveryRequest"``,
``"DiscoveryBatch"``, …) with ``f`` holding its fields, or ``"json"``
for plain JSON control payloads (the bootstrap registry and client RPCs
of :mod:`repro.net.bootstrap`).

A field's wire form is its declared annotation: :data:`_FORMS` maps
each annotation the records use to an encode/decode pair, and one walk
over ``dataclasses.fields`` serves every message and the nested
:class:`~repro.dlpt.messages.NodeState` alike.  Tuples and sets travel
as lists, a node as an object (children sorted, data in set order), a
datum only as a JSON scalar; all are restored exactly on decode, so a
protocol dataclass round-trips to an equal instance.  A decoded node is
a fresh record: what crosses a socket arrives as the codec's copy, where
an in-process hop hands the sender's own record over.

The codec raises :class:`WireError` on anything malformed (oversized
frame, unknown type, non-JSON body, unknown or missing field): a
corrupted peer must fail loudly at the transport boundary, never poison
protocol state.  Decode checks every field and coerces none — a ``bool``
is not an ``int`` — and the error names the field.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from functools import partial
from typing import Any, Hashable, Iterator, Tuple

from ..dlpt import messages as m
from ..dlpt.messages import Envelope

WIRE_SCHEMA = "repro-wire/1"

_HEADER = struct.Struct("!I")
HEADER_SIZE = _HEADER.size

#: Upper bound on one frame's JSON body; a ``LeaveTransfer`` carrying a
#: large ν easily reaches megabytes, anything beyond this is corruption.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: The circular-reference marks of :data:`_ENCODE`.  A successful encode
#: leaves it empty; a failed one may not, so :func:`encode_frame` clears
#: it after every encode: a stale mark would refuse a later, innocent
#: payload.  Threads may share it: a successful encode runs no Python
#: code, so no other thread runs while its marks are set.
_MARKERS: dict = {}

#: The one coder of every frame body, built once: CPython's C encoder with
#: the arguments ``json.JSONEncoder(sort_keys=True, separators=(",", ":"))``
#: hands it (ASCII escapes, ``NaN`` allowed, the stock ``default`` that
#: refuses what is not JSON), minus the Python layers ``encode`` →
#: ``iterencode`` that rebuild it on every call.  Its output is the same
#: bytes (``tests/net/test_wire.py::TestPrebuiltCoder``).
_ENCODE = json.encoder.c_make_encoder(
    _MARKERS, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
    None, ":", ",", True, False, True,
)

#: ``json.loads``'s C scanner and the whitespace it skips around a value.
_SCAN = json.JSONDecoder().scan_once
_SPACE = json.decoder.WHITESPACE.match

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
        m.DiscoveryBatch,
        m.DiscoveryReply,
        m.SetQueryRequest,
        m.SetQueryReply,
    )
}


class WireError(ValueError):
    """A malformed frame or an unencodable payload."""


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


# -- record serde ------------------------------------------------------------


def encode_record(record: Any) -> dict:
    """JSON object form of a protocol message or a node record: every
    field through its annotation's form."""
    layout = _LAYOUTS[type(record)]
    return {name: encode(getattr(record, name)) for name, (encode, _) in layout.items()}


def decode_record(cls: type, obj: Any) -> Any:
    """Inverse of :func:`encode_record`: a new ``cls``.  Every field must
    be there, and is checked and not coerced; a node's children come back
    as the sorted, duplicate-free tuple the record keeps."""
    if not isinstance(obj, dict):
        raise WireError(f"{cls.__name__} fields must be an object, got {type(obj).__name__}")
    layout = _LAYOUTS[cls]
    fields = {}
    for name, (_, decode) in layout.items():
        if name in obj:
            try:
                fields[name] = decode(obj[name])
            except WireError as exc:
                raise WireError(f"{cls.__name__} field {name!r}: {exc}") from None
    if not len(obj) == len(fields) == len(layout):  # an unknown field, or a missing one
        raise WireError(f"malformed {cls.__name__} fields: {obj!r}")
    record = cls(**fields)
    if cls is m.NodeState:
        record.children = tuple(sorted(set(record.children)))
    return record


def _typed(*types: type):
    """The decode of a JSON value whose exact type is one of ``types``."""

    def decode(value):
        if type(value) in types:
            return value
        raise WireError(f"must be {' or '.join(t.__name__ for t in types)}, got {value!r}")

    return decode


def _to_list(encode_item):
    """The encode of a tuple or a set: a JSON list, item by item."""
    return lambda values: [encode_item(value) for value in values]


def _from_list(decode_item, build):
    """The decode of a JSON list, item by item, collected by ``build``."""
    is_list = _typed(list)
    return lambda value: build(decode_item(item) for item in is_list(value))


def _same(value: Any) -> Any:
    return value


_decode_node = partial(decode_record, m.NodeState)

#: Every field annotation the records use -> its ``(encode, decode)``.
_FORMS = {
    "str": (_same, _typed(str)),
    "int": (_same, _typed(int)),
    "bool": (_same, _typed(bool)),
    "object": (require_scalar, require_scalar),
    "Optional[str]": (_same, _typed(str, type(None))),
    "Tuple[str, ...]": (list, _from_list(_typed(str), tuple)),
    "Tuple[object, ...]": (_to_list(require_scalar), _from_list(require_scalar, tuple)),
    "set[object]": (_to_list(require_scalar), _from_list(require_scalar, set)),
    "NodeState": (encode_record, _decode_node),
    "Tuple[NodeState, ...]": (_to_list(encode_record), _from_list(_decode_node, tuple)),
}

#: Every record's fields in declaration order, each with its form; an
#: annotation missing from :data:`_FORMS` fails here, at import.
_LAYOUTS = {
    cls: {f.name: _FORMS[f.type] for f in dataclasses.fields(cls)}
    for cls in (m.NodeState, *MESSAGE_TYPES.values())
}


#: The wire name of each message class (:data:`MESSAGE_TYPES` inverted).
_NAMES = {cls: name for name, cls in MESSAGE_TYPES.items()}

#: What travels as a ``"json"`` payload (no message class is one of them).
_JSON_TYPES = (dict, list, str, int, float, bool, type(None))


def encode_payload(payload: Any) -> Tuple[str, Any]:
    """``(type-name, fields)`` for a protocol message or a JSON control
    payload; raises :class:`WireError` for anything else."""
    if isinstance(payload, _JSON_TYPES):
        return "json", payload
    name = _NAMES.get(type(payload))
    if name is not None:
        return name, encode_record(payload)
    raise WireError(f"payload of type {type(payload).__name__!r} is not wire-encodable")


# -- frame serde -------------------------------------------------------------


def encode_frame(src: Hashable, dst: Hashable, payload: Any) -> bytes:
    """One wire frame (length prefix + JSON body) for an envelope."""
    name, fields = encode_payload(payload)
    body = {"w": WIRE_SCHEMA, "s": src, "d": dst, "t": name, "f": fields}
    try:
        data = "".join(_ENCODE(body, 0)).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireError(f"payload is not JSON-serialisable: {exc}") from exc
    finally:
        _MARKERS.clear()
    size = len(data)
    if size > MAX_FRAME_BYTES:
        raise WireError(f"frame body of {size} bytes exceeds MAX_FRAME_BYTES")
    return _HEADER.pack(size) + data


def _loads(text: str) -> Any:
    """``json.loads(text)`` minus its Python layers: the C scanner, and
    the whitespace and extra-data checks ``loads`` makes around it, taken
    only when the value does not span the whole text.  (A BOM, which
    ``loads`` refuses by name, is neither a value nor whitespace: the
    scanner refuses it.)"""
    try:
        value, end = _SCAN(text, 0)
    except StopIteration:
        try:
            value, end = _SCAN(text, _SPACE(text, 0).end())
        except StopIteration as exc:
            raise json.JSONDecodeError("Expecting value", text, exc.value) from None
    if end != len(text):
        end = _SPACE(text, end).end()
        if end != len(text):
            raise json.JSONDecodeError("Extra data", text, end)
    return value


def decode_body(data: bytes) -> Envelope:
    """Decode one frame *body* (the JSON bytes after the length prefix;
    a ``bytearray`` will do)."""
    try:
        body = _loads(data.decode("utf-8"))
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
    if name == "json":
        return Envelope(src, dst, fields)
    cls = MESSAGE_TYPES.get(name)
    if cls is None:
        raise WireError(f"unknown wire message type {name!r}")
    return Envelope(src, dst, decode_record(cls, fields))


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
        buffer = self._buffer
        buffer.extend(chunk)
        while True:
            if len(buffer) < HEADER_SIZE:
                return
            (length,) = _HEADER.unpack_from(buffer)
            if length > MAX_FRAME_BYTES:
                raise WireError(
                    f"declared frame length {length} exceeds MAX_FRAME_BYTES"
                )
            end = HEADER_SIZE + length
            if len(buffer) < end:
                return
            body = buffer[HEADER_SIZE:end]
            del buffer[:end]
            yield decode_body(body)

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)
