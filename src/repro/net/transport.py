"""The transport interface: endpoints, ``send``, timers, and a clock.

This is the seam that lets the *same* protocol objects
(:class:`repro.dlpt.protocol.ProtocolEngine`) run under the discrete-event
simulator and under a real asyncio event loop.  The surface is extracted
from :class:`repro.sim.network.Network` (endpoint registry + payload-
agnostic ``send``) plus the two engine services the protocols consume —
timers (:meth:`Transport.call_later`) and a clock (:meth:`Transport.now`).

Contract (shared by every implementation):

* **Endpoints** are hashable names (peer ids, ``"@client"``, ``"@broker"``).
  Registering an endpoint attaches a synchronous handler
  ``handler(envelope) -> None``; re-registering replaces the handler (a
  peer that re-joins reuses its endpoint id); messages addressed to an
  unregistered endpoint are dead-lettered, never raised.
* **Ordering**: messages between one (src, dst) pair are delivered FIFO.
  Cross-pair interleavings are implementation-defined — the simulator is
  globally FIFO per timestamp, real sockets are not — which is exactly why
  the conformance harness (:mod:`repro.net.conformance`) compares
  *canonicalised* outcome streams.
* **Quiescence**: ``await drain()`` returns once every sent message has
  been delivered, dropped or dead-lettered (transitively: handlers may
  send more).  Under :class:`SimTransport` this runs the simulator until
  idle; under asyncio it runs the local delivery pump, then waits for
  the in-flight count to reach zero.
* **Counters**: ``messages_sent`` / ``messages_delivered`` /
  ``messages_dropped`` / ``messages_dead_lettered``, with the invariant
  ``sent == delivered + dropped + dead_lettered`` at quiescence.

Implementations must NOT couple message-loss decisions to latency
sampling: the simulator's :class:`~repro.sim.network.Network` draws loss
from its own RNG and samples latency only for surviving messages (the
contract pinned by ``tests/sim/test_network.py``), and
:class:`~repro.net.asyncio_transport.AsyncioTransport` has no RNG at all —
its delays and losses are the operating system's.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Hashable

from ..sim.engine import Simulator
from ..sim.network import Envelope, Network

Handler = Callable[[Envelope], None]


class TransportError(RuntimeError):
    """A transport-level failure (handler exception, closed transport)."""


class Transport(abc.ABC):
    """Abstract message transport: endpoint registry + delivery + time."""

    #: Delivery counters; every implementation maintains all four.
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_dead_lettered: int = 0

    # -- endpoints ---------------------------------------------------------

    @abc.abstractmethod
    def register(self, endpoint: Hashable, handler: Handler) -> None:
        """Attach ``handler`` to ``endpoint`` (replacing any previous)."""

    @abc.abstractmethod
    def unregister(self, endpoint: Hashable) -> None:
        """Detach ``endpoint``; subsequent messages to it dead-letter."""

    @abc.abstractmethod
    def is_registered(self, endpoint: Hashable) -> bool:
        """Whether ``endpoint`` currently has a handler."""

    # -- delivery ----------------------------------------------------------

    @abc.abstractmethod
    def send(self, src: Hashable, dst: Hashable, payload: Any) -> None:
        """Queue ``payload`` for asynchronous delivery (never blocks)."""

    # -- clock & timers ----------------------------------------------------

    @abc.abstractmethod
    def now(self) -> float:
        """The transport's clock: simulated time or a monotonic second."""

    @abc.abstractmethod
    def call_later(self, delay: float, action: Callable[[], Any]):
        """Run ``action`` after ``delay`` clock units; returns a handle
        with a ``cancel()`` method."""

    # -- lifecycle & quiescence --------------------------------------------

    async def start(self) -> None:
        """Bring the transport up (bind sockets); default: nothing."""

    async def close(self) -> None:
        """Tear the transport down; default: nothing."""

    @abc.abstractmethod
    async def drain(self) -> None:
        """Wait until no message is in flight (transitively)."""

    # -- introspection ------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Messages sent but not yet delivered/dropped/dead-lettered."""
        return (
            self.messages_sent
            - self.messages_delivered
            - self.messages_dropped
            - self.messages_dead_lettered
        )


class SimTransport(Transport):
    """The discrete-event transport: a thin veneer over the existing
    :class:`~repro.sim.engine.Simulator` + :class:`~repro.sim.network.Network`
    pair.  Every call delegates directly, so protocol code driven through a
    ``SimTransport`` behaves byte-identically to code driving the simulator
    and network objects itself (the pre-transport code path).
    """

    def __init__(self, sim: Simulator | None = None, network: Network | None = None) -> None:
        if network is not None and sim is not None and network.sim is not sim:
            raise ValueError("network is bound to a different simulator")
        self.sim = sim or (network.sim if network is not None else Simulator())
        self.network = network or Network(self.sim)

    # -- endpoints ---------------------------------------------------------

    def register(self, endpoint: Hashable, handler: Handler) -> None:
        self.network.register(endpoint, handler)

    def unregister(self, endpoint: Hashable) -> None:
        self.network.unregister(endpoint)

    def is_registered(self, endpoint: Hashable) -> bool:
        return self.network.is_registered(endpoint)

    # -- delivery ----------------------------------------------------------

    def send(self, src: Hashable, dst: Hashable, payload: Any) -> None:
        self.network.send(src, dst, payload)

    # -- clock & timers ----------------------------------------------------

    def now(self) -> float:
        return self.sim.now

    def call_later(self, delay: float, action: Callable[[], Any]):
        return self.sim.schedule(delay, action, label="timer")

    # -- quiescence --------------------------------------------------------

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Synchronous quiescence (what :meth:`ProtocolEngine.run` calls)."""
        return self.sim.run_until_idle(max_events=max_events)

    async def drain(self) -> None:
        self.sim.run_until_idle()

    # -- counters (live views over the network's) --------------------------

    @property
    def messages_sent(self) -> int:  # type: ignore[override]
        return self.network.messages_sent

    @property
    def messages_delivered(self) -> int:  # type: ignore[override]
        return self.network.messages_delivered

    @property
    def messages_dropped(self) -> int:  # type: ignore[override]
        return self.network.messages_dropped

    @property
    def messages_dead_lettered(self) -> int:  # type: ignore[override]
        return self.network.messages_dead_lettered
