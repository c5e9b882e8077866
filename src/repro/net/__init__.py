"""``repro.net`` — the DLPT runtime behind a transport interface.

The paper's system model is real asynchronous peers exchanging messages;
everything else in this repository runs that model inside one discrete-event
simulator process.  This package is the gateway from reproduction to
service: a :class:`~repro.net.transport.Transport` interface (endpoints,
``send``, timers, a clock) with two implementations —

* :class:`~repro.net.transport.SimTransport` keeps an endpoint table over
  its own event heap and simulated clock, and delivers every message as
  an event at delay 0;
* :class:`~repro.net.asyncio_transport.AsyncioTransport`, the one socket
  transport, speaks length-prefixed JSON frames (schema ``repro-wire/1``,
  :mod:`repro.net.wire`) over TCP or Unix-domain sockets on an asyncio
  event loop: endpoints registered on it are delivered in-process, run to
  completion off one ready queue (a hop is a queue pop, not a loop turn),
  connected clients get their replies over their connection, and
  everything else travels over lazily dialed links to the listener a
  resolver names — so a single-process ring is the transport with no
  resolver, and a multi-process one the same class per
  group; its :class:`~repro.net.asyncio_transport.LoopbackAsyncioTransport`
  subclass keeps the event loop and runs the wire codec on every message but
  delivers in-process in deterministic global FIFO order (tier-1 testable).

The *same* protocol objects (:class:`repro.dlpt.protocol.ProtocolEngine`)
run unchanged on either transport.  On top sits one *cluster* layer
(:mod:`repro.net.cluster`): every engine-group step and every backend
operation (issue steps, await quiescence, read the answer) written once,
with :class:`~repro.net.cluster.LocalCluster` running N engine groups in
this process (one per transport) and
:class:`~repro.net.procgroup.MultiProcessCluster` running N groups in
worker processes — and, over either, the
``"@broker"`` RPC endpoint (:mod:`repro.net.bootstrap`), the
futures-style client library (:mod:`repro.net.client`), the
``python -m repro serve`` cluster launcher (:mod:`repro.net.serve`) and —
the proof obligation — the differential trace-conformance harness
(:mod:`repro.net.conformance`) whose one driver loop replays a recorded
``repro-trace/1`` workload through every transport and topology and
asserts the canonicalised outcome streams are
equal.  See ``docs/runtime.md``.
"""

from .asyncio_transport import AsyncioTransport, LoopbackAsyncioTransport
from .bootstrap import Broker
from .client import DLPTClient, DLPTClientError
from .cluster import LocalCluster
from .transport import SimTransport, Transport, TransportError
from .wire import WIRE_SCHEMA, WireError, decode_frame, encode_frame

__all__ = [
    "AsyncioTransport",
    "Broker",
    "DLPTClient",
    "DLPTClientError",
    "LocalCluster",
    "LoopbackAsyncioTransport",
    "SimTransport",
    "Transport",
    "TransportError",
    "WIRE_SCHEMA",
    "WireError",
    "decode_frame",
    "encode_frame",
]
