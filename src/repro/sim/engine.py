"""Discrete-event simulation engine.

The paper evaluates DLPT with a custom discrete-time simulator.  ``simpy`` is
not available offline, so this module provides the minimal event-driven core
the protocol layer needs: a simulated clock, a priority event queue with
stable FIFO ordering among simultaneous events, and process handles.

Two execution styles sit on top of it:

* **message-level** — :class:`repro.net.transport.SimTransport` delivers
  protocol messages between peers as events (latency and loss come from a
  :class:`~repro.net.chaos.ChaosTransport` around it); used to validate
  Algorithms 1–3 under asynchrony.
* **time-unit level** — :mod:`repro.experiments.runner` advances the clock in
  whole units and runs the paper's per-unit steps; used for the figures.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass(order=True)
class _ScheduledEvent:
    time: float
    seq: int
    cancelled: bool = field(default=False, compare=False)
    fired: bool = field(default=False, compare=False)  # executed or dequeued
    action: Callable[[], Any] = field(default=None, compare=False)
    label: str = field(default="", compare=False)


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; allows cancellation."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: _ScheduledEvent, sim: "Simulator") -> None:
        self._event = event
        self._sim = sim

    def cancel(self) -> bool:
        """Cancel the event if it has not fired; return whether it was live
        (False when already cancelled *or* already executed)."""
        if self._event.cancelled or self._event.fired:
            return False
        self._event.cancelled = True
        self._sim._note_cancelled()
        return True

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled


class Simulator:
    """A deterministic discrete-event simulator.

    Events scheduled for the same timestamp fire in scheduling order (stable
    FIFO), which keeps runs reproducible bit-for-bit for a given seed.
    """

    #: Compaction threshold: never bother below this queue size.
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self._now: float = 0.0
        self._queue: list[_ScheduledEvent] = []
        self._counter = itertools.count()
        self._events_executed = 0
        self._cancelled_pending = 0

    def _note_cancelled(self) -> None:
        """A queued event was cancelled; compact the heap once cancelled
        tombstones outnumber live events (keeps long timer-heavy runs from
        accumulating an O(cancelled) queue and paying log(dead) per pop)."""
        self._cancelled_pending += 1
        n = len(self._queue)
        if n >= self._COMPACT_MIN and self._cancelled_pending * 2 > n:
            for ev in self._queue:
                if ev.cancelled:
                    ev.fired = True
            self._queue = [ev for ev in self._queue if not ev.cancelled]
            heapq.heapify(self._queue)
            self._cancelled_pending = 0

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of scheduled (possibly cancelled) events still queued."""
        return len(self._queue)

    # -- scheduling --------------------------------------------------------

    def schedule(
        self,
        delay: float,
        action: Callable[[], Any],
        label: str = "",
    ) -> EventHandle:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        ev = _ScheduledEvent(
            time=self._now + delay,
            seq=next(self._counter),
            action=action,
            label=label,
        )
        heapq.heappush(self._queue, ev)
        return EventHandle(ev, self)

    def schedule_at(self, time: float, action: Callable[[], Any], label: str = "") -> EventHandle:
        """Schedule ``action`` at absolute simulated ``time`` (>= now)."""
        return self.schedule(time - self._now, action, label)

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next event; return False when the queue is empty."""
        while self._queue:
            ev = heapq.heappop(self._queue)
            ev.fired = True
            if ev.cancelled:
                self._cancelled_pending -= 1
                continue
            self._now = ev.time
            self._events_executed += 1
            ev.action()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or ``max_events``
        have fired.  Returns the number of events executed by this call."""
        executed = 0
        while self._queue:
            ev = self._queue[0]
            if ev.cancelled:
                heapq.heappop(self._queue)
                ev.fired = True
                self._cancelled_pending -= 1
                continue
            if until is not None and ev.time > until:
                self._now = until
                break
            if max_events is not None and executed >= max_events:
                break
            heapq.heappop(self._queue)
            ev.fired = True
            self._now = ev.time
            self._events_executed += 1
            executed += 1
            ev.action()
        else:
            if until is not None and until > self._now:
                self._now = until
        return executed

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain; guard against runaway protocols."""
        executed = self.run(max_events=max_events)
        if self._queue and executed >= max_events:
            raise RuntimeError(
                f"simulation did not quiesce within {max_events} events "
                f"(possible protocol livelock)"
            )
        return executed
