"""Message-passing network on top of the event engine.

Peers in the paper's system model are asynchronous processes that communicate
by messages ("Any peer P1 can communicate with another peer P2 provided P1
knows the ID of P2").  This module models that: named endpoints register a
handler, and :meth:`Network.send` delivers a message after a latency drawn
from a configurable model.  Message loss can be injected for fault tests.

Messages are plain dataclasses defined by the protocol layer; the network is
payload-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional

from .engine import Simulator


class LatencyModel:
    """Base latency model: constant zero (synchronous-ish delivery order is
    still FIFO per the engine's stable event ordering)."""

    def sample(self, src: Hashable, dst: Hashable) -> float:
        return 0.0


@dataclass
class ConstantLatency(LatencyModel):
    """Every message takes ``delay`` time units."""

    delay: float = 1.0

    def sample(self, src: Hashable, dst: Hashable) -> float:
        return self.delay


class UniformLatency(LatencyModel):
    """Latency drawn uniformly from ``[lo, hi]`` using a dedicated RNG."""

    def __init__(self, rng, lo: float = 0.5, hi: float = 1.5) -> None:
        if lo < 0 or hi < lo:
            raise ValueError("require 0 <= lo <= hi")
        self._rng = rng
        self.lo = lo
        self.hi = hi

    def sample(self, src: Hashable, dst: Hashable) -> float:
        return self._rng.uniform(self.lo, self.hi)


@dataclass(slots=True)
class Envelope:
    """A message in flight: source and destination endpoint ids + payload.
    A value by convention, like the messages it carries
    (:mod:`repro.dlpt.messages`): built once per hop, never assigned to."""

    src: Hashable
    dst: Hashable
    payload: Any


class Network:
    """Registers endpoints and delivers envelopes through the simulator.

    ``loss_rate`` drops each message independently with the given probability
    (requires ``rng``); used by fault-injection tests to check that the
    protocols either tolerate or visibly fail under loss.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        rng=None,
    ) -> None:
        if loss_rate and rng is None:
            raise ValueError("loss injection requires an rng")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.sim = sim
        self.latency = latency or LatencyModel()
        self.loss_rate = loss_rate
        self._rng = rng
        self._handlers: Dict[Hashable, Callable[[Envelope], None]] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_dead_lettered = 0

    # -- endpoints ---------------------------------------------------------

    def register(self, endpoint: Hashable, handler: Callable[[Envelope], None]) -> None:
        """Attach ``handler`` to ``endpoint``; replaces any previous handler
        (a peer that re-joins reuses its endpoint id)."""
        self._handlers[endpoint] = handler

    def unregister(self, endpoint: Hashable) -> None:
        """Detach ``endpoint``; in-flight messages to it are dead-lettered."""
        self._handlers.pop(endpoint, None)

    def is_registered(self, endpoint: Hashable) -> bool:
        return endpoint in self._handlers

    # -- delivery ------------------------------------------------------------

    def send(self, src: Hashable, dst: Hashable, payload: Any) -> None:
        """Queue ``payload`` for delivery from ``src`` to ``dst``."""
        self.messages_sent += 1
        if self.loss_rate and self._rng.random() < self.loss_rate:
            self.messages_dropped += 1
            return
        env = Envelope(src, dst, payload)
        delay = self.latency.sample(src, dst)
        self.sim.schedule(delay, lambda: self._deliver(env), label=f"msg:{src}->{dst}")

    def _deliver(self, env: Envelope) -> None:
        handler = self._handlers.get(env.dst)
        if handler is None:
            # Destination left the system while the message was in flight.
            self.messages_dead_lettered += 1
            return
        self.messages_delivered += 1
        handler(env)
