"""The transport interface: endpoints, ``send``, timers, and a clock.

This is the seam that lets the *same* protocol objects
(:class:`repro.dlpt.protocol.ProtocolEngine`) run under the discrete-event
simulator and under a real asyncio event loop: an endpoint registry, a
payload-agnostic ``send`` (handlers receive an
:class:`~repro.dlpt.messages.Envelope`), and the two engine services the
protocols consume — timers (:meth:`Transport.call_later`) and a clock
(:meth:`Transport.now`).

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

Faults have one vocabulary, and no transport implements it: latency, loss,
duplication, crashes and partitions are the ``chaos:`` clauses of
:class:`~repro.net.chaos.ChaosTransport`, which decorates every
implementation alike.  :class:`SimTransport` delays and loses nothing;
:class:`~repro.net.asyncio_transport.AsyncioTransport` has no RNG at all —
its delays and losses are the operating system's.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, Hashable

from ..dlpt.messages import Envelope
from ..sim.engine import Simulator

Handler = Callable[[Envelope], None]

#: How long a ``drain()`` over sockets, chaos delays or worker processes
#: waits for quiescence before it raises :class:`TransportError`.
DRAIN_TIMEOUT = 60.0


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
    """The discrete-event transport: an endpoint table over the
    :class:`~repro.sim.engine.Simulator` it owns as ``.sim``.

    ``send`` schedules every delivery at delay 0, so messages fire in send
    order, and looks the destination up when the message fires: an
    endpoint unregistered meanwhile dead-letters it.  Nothing is lost or
    delayed here; latency and loss are ``delay:`` / ``drop:`` clauses of a
    :class:`~repro.net.chaos.ChaosTransport` wrapped around it, as around
    any transport.
    """

    def __init__(self) -> None:
        self.sim = Simulator()
        self._handlers: Dict[Hashable, Handler] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_dead_lettered = 0

    # -- endpoints ---------------------------------------------------------

    def register(self, endpoint: Hashable, handler: Handler) -> None:
        self._handlers[endpoint] = handler

    def unregister(self, endpoint: Hashable) -> None:
        self._handlers.pop(endpoint, None)

    def is_registered(self, endpoint: Hashable) -> bool:
        return endpoint in self._handlers

    # -- delivery ----------------------------------------------------------

    def send(self, src: Hashable, dst: Hashable, payload: Any) -> None:
        self.messages_sent += 1
        env = Envelope(src, dst, payload)
        self.sim.schedule(0.0, lambda: self._deliver(env))

    def _deliver(self, env: Envelope) -> None:
        handler = self._handlers.get(env.dst)
        if handler is None:
            self.messages_dead_lettered += 1
            return
        self.messages_delivered += 1
        handler(env)

    # -- clock & timers ----------------------------------------------------

    def now(self) -> float:
        return self.sim.now

    def call_later(self, delay: float, action: Callable[[], Any]):
        return self.sim.schedule(delay, action)

    # -- quiescence --------------------------------------------------------

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Synchronous quiescence (what :meth:`ProtocolEngine.run` calls)."""
        return self.sim.run_until_idle(max_events=max_events)

    async def drain(self) -> None:
        self.sim.run_until_idle()
