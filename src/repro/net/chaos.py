"""Chaos engineering for the live runtime: seeded fault injection.

:class:`ChaosTransport` decorates any :class:`~repro.net.transport
.Transport` and injects deterministic, seeded faults on the send path —
the live-runtime counterpart of the simulation fault axis
(:mod:`repro.faults`), so the served system can be subjected to the same
adversities the sim already measures.  Fault modes, driven by a
``chaos:`` spec whose clauses are one table of the shared grammar
(:class:`repro.util.specs.Grammar`):

* ``drop:P`` — each message is dropped with probability ``P``;
* ``delay:P[:max=S]`` — each message is held for a uniform delay in
  ``[0, S)`` with probability ``P`` (per-pair FIFO is preserved: a held
  pair queues, so chaos can reorder across pairs but never within one);
* ``dup:P`` — each message is delivered twice with probability ``P``;
* ``reorder:P`` — like ``delay`` with an infinitesimal hold, forcing
  cross-pair reordering without measurable latency;
* ``kill:P`` — with probability ``P`` the link under the destination is
  severed mid-flight (:meth:`~repro.net.asyncio_transport.AsyncioTransport
  .kill_link`); queued frames are counted dropped and the next send
  re-dials — a no-op where the destination is not behind a link;
* ``crash_storm:RATE[:start=S][:end=S]`` — fail-stop endpoint crashes:
  with per-send probability ``RATE`` (inside the optional transport-clock
  window) a random non-``@`` endpoint is unregistered, exactly the
  vocabulary of :mod:`repro.faults.spec`;
* ``partition:DUR@AT[:fraction=F]`` — between clock ``AT`` and
  ``AT+DUR``, a deterministic ``F``-fraction of (src, dst) pairs is
  symmetric-blocked (messages count dropped), the live analogue of the
  sim's partition windows.

Clauses compose with ``+`` (``"drop:0.05+delay:0.3:max=0.01:seed=7"``),
``seed=N`` on any clause or alone seeds the whole plan, and every random
decision flows from one seeded RNG, drop first (a dropped message draws
nothing else), so a plan and seed replay bit-for-bit.

**The counter invariant survives chaos.**  Chaos-dropped messages are
counted into both ``messages_sent`` and ``messages_dropped``; held
messages count ``in_flight`` until released; duplicates are two full
inner sends.  At quiescence ``sent == delivered + dropped +
dead_lettered`` therefore holds whenever it holds for the inner
transport — which is exactly what the chaos contract tests assert.

Fault modes differ in what they preserve: ``delay``/``reorder`` preserve
delivery (conformance replays through them must stay oracle-equal),
while ``drop``/``dup``/``kill``/``crash_storm``/``partition`` change the
delivered set and are proven through the counter invariant and the
client-retry no-lost-ack path instead.
"""

from __future__ import annotations

import asyncio
import collections
import random
import zlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Deque, Dict, Hashable, Optional, Tuple

from ..util.specs import Grammar, Kind, SpecError, register_spec_kind
from . import transport as _transport
from .transport import Handler, Transport, TransportError

#: The hold applied by ``reorder`` (long enough to yield the event loop /
#: advance the sim queue, short enough to be latency-free in practice).
_REORDER_HOLD = 1e-6


class ChaosSpecError(SpecError):
    """A malformed ``chaos:`` spec string or mapping."""


def _check(value: Any, what: str, probability: bool = False) -> None:
    """``value`` is a real number >= 0, and at most 1 if a ``probability``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ChaosSpecError(f"{what} {value!r} is not a number")
    if probability and not 0.0 <= value <= 1.0:
        raise ChaosSpecError(f"{what} {value} is outside [0, 1]")
    if not value >= 0:
        raise ChaosSpecError(f"{what} must be >= 0")


@dataclass(frozen=True)
class PartitionWindow:
    """One partition: pairs blocked during ``[at, at + duration)``."""

    duration: float
    at: float
    fraction: float = 0.5

    def __post_init__(self) -> None:
        _check(self.duration, "partition duration")
        _check(self.at, "partition at")
        _check(self.fraction, "partition fraction", probability=True)


@dataclass(frozen=True)
class ChaosPlan:
    """The validated fault plan a :class:`ChaosTransport` runs.

    Every range rule lives here, so a spec string, a mapping and a
    directly built plan are checked once, alike (:class:`ChaosSpecError`).
    """

    drop: float = 0.0
    delay: float = 0.0
    delay_max: float = 0.005
    dup: float = 0.0
    reorder: float = 0.0
    kill: float = 0.0
    crash: float = 0.0
    crash_start: float = 0.0
    crash_end: Optional[float] = None
    partitions: Tuple[PartitionWindow, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop", "delay", "dup", "reorder", "kill"):
            _check(getattr(self, name), f"{name} probability", probability=True)
        _check(self.crash, "crash_storm rate", probability=True)
        _check(self.delay_max, "delay max")
        if not self.delay_max > 0:
            raise ChaosSpecError("delay max must be > 0")
        _check(self.crash_start, "crash_storm start")
        if self.crash_end is not None:
            _check(self.crash_end, "crash_storm end")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ChaosSpecError("seed must be an integer")

    def active(self) -> bool:
        return bool(
            self.drop or self.delay or self.dup or self.reorder
            or self.kill or self.crash or self.partitions
        )


def _given(**fields: Any) -> Dict[str, Any]:
    return {key: value for key, value in fields.items() if value is not None}


def _chance(mode: str) -> Callable[[float], Dict[str, Any]]:
    return lambda probability: {mode: probability}


#: One row per clause kind: a clause builds the plan fields it sets, or a
#: partition window.
_CLAUSES = Grammar("chaos spec", ChaosSpecError, {
    **{mode: Kind(_chance(mode), "probability", 1) for mode in ("drop", "dup", "reorder", "kill")},
    "delay": Kind(lambda probability, max=None: _given(delay=probability, delay_max=max),
                  "probability", 1),
    "crash_storm": Kind(lambda rate, start=None, end=None: _given(
        crash=rate, crash_start=start, crash_end=end), "rate", 1),
    "partition": Kind(PartitionWindow, "duration@at", 2),
}, shared=("seed",), noun="fault kind")


def parse_chaos(value: object) -> ChaosPlan:
    """Parse any accepted form — spec string, mapping, or a ready
    :class:`ChaosPlan` — into a validated plan.

    A string is ``+``-joined clauses of the shared grammar
    (:class:`repro.util.specs.Grammar`); ``seed=N`` closes any clause or
    stands alone, and seeds the whole plan.
    """
    if isinstance(value, ChaosPlan):
        return value
    if isinstance(value, dict):
        fields = dict(value)
    elif isinstance(value, str) and value.strip():
        fields = {"partitions": ()}
        for clause in value.split("+"):
            clause = clause.strip()
            if not clause:
                raise ChaosSpecError(f"chaos spec {value!r}: empty clause")
            kind, options = _CLAUSES.fields(clause)
            if "seed" in options:
                fields["seed"] = options.pop("seed")
            if not kind and options:
                raise _CLAUSES.error(clause, f"unknown plan option(s) {', '.join(options)}")
            built = _CLAUSES.build(kind, options, clause) if kind else {}
            if isinstance(built, PartitionWindow):
                fields["partitions"] += (built,)
            else:
                fields.update(built)
    else:
        raise ChaosSpecError(f"chaos spec must be a string, mapping or ChaosPlan: {value!r}")
    try:
        windows = tuple(
            w if isinstance(w, PartitionWindow) else PartitionWindow(**w)
            for w in fields.get("partitions", ())
        )
        return ChaosPlan(**{**fields, "partitions": windows})
    except (TypeError, ChaosSpecError) as exc:
        raise ChaosSpecError(f"chaos spec {value!r}: {exc}") from exc


register_spec_kind("chaos", parse_chaos)


class ChaosTransport(Transport):
    """A fault-injecting decorator over any :class:`Transport`.

    Every non-chaos concern — endpoint registry, clock, timers, inner
    counters, address, ``set_resolve`` — delegates to the wrapped
    transport, so a ``ChaosTransport`` drops into any seam that accepts a
    ``Transport`` (engines, brokers, the conformance replays).

    ``only`` optionally scopes chaos to a subset of traffic: a predicate
    ``only(src, dst) -> bool``; sends it rejects pass through untouched
    (the no-lost-ack tests scope chaos to broker↔client replies this
    way, leaving the protocol plane healthy).
    """

    def __init__(
        self,
        inner: Transport,
        plan: object,
        *,
        seed: Optional[int] = None,
        only: Optional[Callable[[Hashable, Hashable], bool]] = None,
    ) -> None:
        self.inner = inner
        self.plan = parse_chaos(plan)
        if seed is not None:
            self.plan = replace(self.plan, seed=seed)
        self._rng = random.Random(self.plan.seed)
        self._only = only
        #: Master switch: the serve layer disables injection while the
        #: initial topology is admitted (and while recovery rebuilds the
        #: ring), so chaos perturbs *serving*, not bring-up.
        self.enabled = True
        #: Chaos accounting (observability; folded into the counters).
        self.chaos_dropped = 0
        self.chaos_delayed = 0
        self.chaos_duplicated = 0
        self.chaos_reordered = 0
        self.chaos_kills = 0
        self.crashed: list = []
        #: Held (delayed) messages, FIFO per (src, dst) pair.
        self._held: Dict[Tuple[Hashable, Hashable], Deque] = {}
        self._timers: Dict[Tuple[Hashable, Hashable], Any] = {}
        self._pending_held = 0
        self._endpoints: set = set()

    def __getattr__(self, name: str):
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    # -- delegation ---------------------------------------------------------

    def register(self, endpoint: Hashable, handler: Handler) -> None:
        self._endpoints.add(endpoint)
        self.inner.register(endpoint, handler)

    def unregister(self, endpoint: Hashable) -> None:
        self._endpoints.discard(endpoint)
        self.inner.unregister(endpoint)

    def is_registered(self, endpoint: Hashable) -> bool:
        return self.inner.is_registered(endpoint)

    def now(self) -> float:
        return self.inner.now()

    def call_later(self, delay: float, action: Callable[[], Any]):
        return self.inner.call_later(delay, action)

    async def start(self) -> None:
        await self.inner.start()

    async def close(self) -> None:
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        for queue in self._held.values():
            self.chaos_dropped += len(queue)
            self._pending_held -= len(queue)
        self._held.clear()
        await self.inner.close()

    # -- the fault-injecting send path --------------------------------------

    def _exempt(self, src: Hashable, dst: Hashable) -> bool:
        return self._only is not None and not self._only(src, dst)

    def _partitioned(self, src: Hashable, dst: Hashable) -> bool:
        if not self.plan.partitions:
            return False
        now = self.inner.now()
        lo, hi = sorted((str(src), str(dst)))
        for window in self.plan.partitions:
            if window.at <= now < window.at + window.duration:
                digest = zlib.crc32(f"{lo}|{hi}|{self.plan.seed}".encode("utf-8"))
                if (digest % 10_000) / 10_000.0 < window.fraction:
                    return True
        return False

    def _crash_window_open(self) -> bool:
        now = self.inner.now()
        if now < self.plan.crash_start:
            return False
        return self.plan.crash_end is None or now < self.plan.crash_end

    def _crash_random_endpoint(self) -> None:
        candidates = sorted(
            e for e in self._endpoints
            if isinstance(e, str) and not e.startswith("@") and self.inner.is_registered(e)
        )
        if not candidates:
            return
        victim = self._rng.choice(candidates)
        self.unregister(victim)
        self.crashed.append(victim)

    def send(self, src: Hashable, dst: Hashable, payload: Any) -> None:
        plan = self.plan
        if not self.enabled or not plan.active() or self._exempt(src, dst):
            self.inner.send(src, dst, payload)
            return
        if self._partitioned(src, dst) or (plan.drop and self._rng.random() < plan.drop):
            self.chaos_dropped += 1
            return
        if plan.crash and self._crash_window_open() and self._rng.random() < plan.crash:
            self._crash_random_endpoint()
        if plan.kill and self._rng.random() < plan.kill:
            kill = getattr(self.inner, "kill_link", None)
            if kill is not None and kill(dst):
                self.chaos_kills += 1
        duplicate = bool(plan.dup) and self._rng.random() < plan.dup
        hold = 0.0
        if plan.delay and self._rng.random() < plan.delay:
            hold = self._rng.random() * plan.delay_max
            self.chaos_delayed += 1
        elif plan.reorder and self._rng.random() < plan.reorder:
            hold = _REORDER_HOLD
            self.chaos_reordered += 1
        pair = (src, dst)
        if hold > 0.0 or pair in self._held:
            # FIFO preservation: once a pair has a held message, every
            # later message of that pair queues behind it.
            self._hold(pair, hold, payload)
            if duplicate:
                self.chaos_duplicated += 1
                self._hold(pair, 0.0, payload)
            return
        self.inner.send(src, dst, payload)
        if duplicate:
            self.chaos_duplicated += 1
            self.inner.send(src, dst, payload)

    def _hold(self, pair: Tuple[Hashable, Hashable], hold: float, payload: Any) -> None:
        queue = self._held.get(pair)
        if queue is None:
            queue = self._held[pair] = collections.deque()
        queue.append(payload)
        self._pending_held += 1
        if len(queue) == 1:
            self._timers[pair] = self.inner.call_later(hold, lambda: self._release(pair))

    def _release(self, pair: Tuple[Hashable, Hashable]) -> None:
        queue = self._held.get(pair)
        if not queue:
            return
        payload = queue.popleft()
        self._pending_held -= 1
        if queue:
            self._timers[pair] = self.inner.call_later(0.0, lambda: self._release(pair))
        else:
            del self._held[pair]
            self._timers.pop(pair, None)
        self.inner.send(pair[0], pair[1], payload)

    # -- counters (chaos folded into the inner transport's) -----------------

    @property
    def messages_sent(self) -> int:  # type: ignore[override]
        return self.inner.messages_sent + self.chaos_dropped

    @property
    def messages_delivered(self) -> int:  # type: ignore[override]
        return self.inner.messages_delivered

    @property
    def messages_dropped(self) -> int:  # type: ignore[override]
        return self.inner.messages_dropped + self.chaos_dropped

    @property
    def messages_dead_lettered(self) -> int:  # type: ignore[override]
        return self.inner.messages_dead_lettered

    @property
    def in_flight(self) -> int:  # type: ignore[override]
        return self.inner.in_flight + self._pending_held

    def reset_accounting(self) -> None:
        """Start a fresh accounting epoch (supervisor recovery): cancel
        held messages, zero the chaos counters, reset the inner epoch."""
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        for queue in self._held.values():
            self._pending_held -= len(queue)
        self._held.clear()
        self.chaos_dropped = 0
        self.chaos_delayed = 0
        self.chaos_duplicated = 0
        self.chaos_reordered = 0
        self.chaos_kills = 0
        inner_reset = getattr(self.inner, "reset_accounting", None)
        if inner_reset is not None:
            inner_reset()

    # -- quiescence ---------------------------------------------------------

    async def drain(self) -> None:
        """Quiescence including held messages: drain the inner transport,
        wait out pending chaos delays, repeat until both are idle."""
        loop = asyncio.get_running_loop()
        timeout = _transport.DRAIN_TIMEOUT
        deadline = loop.time() + timeout
        while True:
            await self.inner.drain()
            if self._pending_held == 0 and self.inner.in_flight == 0:
                return
            if loop.time() > deadline:
                raise TransportError(
                    f"chaos drain timed out after {timeout}s with "
                    f"{self._pending_held} held message(s)"
                )
            await asyncio.sleep(0.001)


__all__ = [
    "ChaosPlan",
    "ChaosSpecError",
    "ChaosTransport",
    "PartitionWindow",
    "parse_chaos",
]
