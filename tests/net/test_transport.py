"""The :class:`repro.net.transport.Transport` contract, on every
implementation.

One suite, parametrised over transport factories: the discrete-event
:class:`SimTransport` and the deterministic
:class:`LoopbackAsyncioTransport` run in tier-1; the real-socket
:class:`AsyncioTransport` (Unix-domain and TCP) runs the *same* contract
under the ``net`` marker.  Whatever holds here is what protocol code may
rely on regardless of which engine carries its messages.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import wire_message_builders

from repro.dlpt import messages as m
from repro.dlpt.messages import Envelope
from repro.net.asyncio_transport import (
    _PUMP_BATCH,
    _READ_BUFFER,
    BROKER_ENDPOINT,
    CONTROL_ENDPOINT,
    AsyncioTransport,
    LoopbackAsyncioTransport,
    dial,
    hello_frame,
)
from repro.net.client import DLPTClient
from repro.net.serve import start_cluster
from repro.net.transport import SimTransport, TransportError
from repro.net.wire import MESSAGE_TYPES, WIRE_SCHEMA, FrameReader, WireError, encode_frame

pytestmark = pytest.mark.asyncio

TRANSPORT_PARAMS = [
    pytest.param(SimTransport, id="sim"),
    pytest.param(LoopbackAsyncioTransport, id="loopback"),
    pytest.param(AsyncioTransport, id="asyncio-unix", marks=pytest.mark.net),
    pytest.param(
        lambda: AsyncioTransport(host="127.0.0.1"),
        id="asyncio-tcp",
        marks=pytest.mark.net,
    ),
]


@pytest.fixture(params=TRANSPORT_PARAMS)
def transport_factory(request):
    return request.param


def _msg(n: int) -> m.DataInsertion:
    """A wire-encodable payload with a sequence number riding in it."""
    return m.DataInsertion(node="a", key="ab", datum=n)


class TestContract:
    def test_delivery_and_counters(self, transport_factory):
        async def body():
            t = transport_factory()
            await t.start()
            got = []
            t.register("b", lambda env: got.append(env))
            t.send("a", "b", _msg(1))
            await t.drain()
            assert [env.payload.datum for env in got] == [1]
            assert (env := got[0]).src == "a" and env.dst == "b"
            assert t.messages_sent == 1
            assert t.messages_delivered == 1
            assert t.in_flight == 0
            await t.close()

        asyncio.run(body())

    def test_unregistered_destination_dead_letters(self, transport_factory):
        async def body():
            t = transport_factory()
            await t.start()
            t.send("a", "nobody", _msg(1))
            await t.drain()
            assert t.messages_dead_lettered == 1
            assert t.messages_delivered == 0
            assert t.in_flight == 0
            await t.close()

        asyncio.run(body())

    def test_reregister_replaces_handler(self, transport_factory):
        async def body():
            t = transport_factory()
            await t.start()
            first, second = [], []
            t.register("b", lambda env: first.append(env))
            t.register("b", lambda env: second.append(env))
            assert t.is_registered("b")
            t.send("a", "b", _msg(1))
            await t.drain()
            assert not first and len(second) == 1
            await t.close()

        asyncio.run(body())

    def test_unregister_midflight_dead_letters(self, transport_factory):
        """Registration is checked at delivery time: a message already in
        flight to an endpoint that unregisters is dead-lettered, never
        raised and never delivered to the stale handler."""

        async def body():
            t = transport_factory()
            await t.start()
            got = []
            t.register("b", lambda env: got.append(env))
            t.send("a", "b", _msg(1))
            t.unregister("b")
            assert not t.is_registered("b")
            await t.drain()
            assert not got
            assert t.messages_dead_lettered == 1
            await t.close()

        asyncio.run(body())

    def test_pairwise_fifo(self, transport_factory):
        async def body():
            t = transport_factory()
            await t.start()
            got = []
            t.register("b", lambda env: got.append(env.payload.datum))
            for n in range(20):
                t.send("a", "b", _msg(n))
            await t.drain()
            assert got == list(range(20))
            await t.close()

        asyncio.run(body())

    def test_cascading_sends_drain_transitively(self, transport_factory):
        """drain() waits for messages sent *by handlers*, recursively."""

        async def body():
            t = transport_factory()
            await t.start()
            got = []

            def relay(env):
                n = env.payload.datum
                got.append((env.dst, n))
                if n > 0:
                    t.send(env.dst, "b" if env.dst == "a" else "a", _msg(n - 1))

            t.register("a", relay)
            t.register("b", relay)
            t.send("@test", "a", _msg(5))
            await t.drain()
            assert [n for _, n in got] == [5, 4, 3, 2, 1, 0]
            assert t.messages_sent == 6
            assert t.messages_delivered == 6
            assert t.in_flight == 0
            await t.close()

        asyncio.run(body())

    def test_counter_invariant_at_quiescence(self, transport_factory):
        async def body():
            t = transport_factory()
            await t.start()
            t.register("b", lambda env: None)
            for n in range(5):
                t.send("a", "b", _msg(n))
            t.send("a", "nobody", _msg(99))
            await t.drain()
            assert t.messages_sent == (
                t.messages_delivered + t.messages_dropped + t.messages_dead_lettered
            )
            assert t.in_flight == 0
            await t.close()

        asyncio.run(body())

    def test_no_endpoint_name_escapes_the_counters(self, transport_factory):
        """Names the multi-process runtime once reserved for an uncounted
        control plane (``@ctl-i``, ``@coord``) are endpoints like any
        other: delivered and counted, or dead-lettered when unregistered."""

        async def body():
            t = transport_factory()
            await t.start()
            got = []
            t.register("@ctl-0", lambda env: got.append(env.payload))
            t.send("@coord", "@ctl-0", {"op": "ping"})
            t.send("@ctl-0", "@coord", {"id": 1, "ok": True})
            await t.drain()
            assert got == [{"op": "ping"}]
            assert t.messages_sent == 2
            assert t.messages_delivered == 1
            assert t.messages_dead_lettered == 1
            assert t.in_flight == 0
            await t.close()

        asyncio.run(body())

    def test_clock_is_monotonic(self, transport_factory):
        async def body():
            t = transport_factory()
            await t.start()
            before = t.now()
            t.send("a", "nobody", _msg(1))
            await t.drain()
            assert t.now() >= before >= 0.0
            await t.close()

        asyncio.run(body())

    def test_call_later_fires_and_cancel_suppresses(self, transport_factory):
        async def body():
            t = transport_factory()
            await t.start()
            fired = []
            t.call_later(0.01, lambda: fired.append("kept"))
            handle = t.call_later(0.01, lambda: fired.append("cancelled"))
            handle.cancel()
            if isinstance(t, SimTransport):
                t.run_until_idle()
            else:
                await asyncio.sleep(0.05)
            assert fired == ["kept"]
            await t.close()

        asyncio.run(body())


class TestSimTransport:
    """The in-memory transport's event heap: every delivery and every
    timer is one entry, run in (simulated time, scheduling order).  The
    sim conformance leg, the recorded-trace bytes and every chaos
    ``delay:`` run rest on that order."""

    def test_destination_is_looked_up_at_delivery_time(self):
        t = SimTransport()
        got = []
        t.send("a", "late", 1)
        t.register("late", lambda env: got.append(env.payload))
        t.run_until_idle()
        assert got == [1] and t.messages_dead_lettered == 0

    def test_deliveries_fire_in_send_order_across_pairs(self):
        t = SimTransport()
        got = []
        for dst in ("b", "c"):
            t.register(dst, lambda env: got.append((env.src, env.dst)))
        sends = [("a", "b"), ("x", "c"), ("a", "c"), ("x", "b")]
        for src, dst in sends:
            t.send(src, dst, None)
        t.run_until_idle()
        assert got == sends
        assert t.now() == 0.0

    def test_zero_delay_timers_interleave_with_sends_in_scheduling_order(self):
        """A zero-delay timer and a delivery are entries of one heap: they
        run in the order they were scheduled, also when a handler
        schedules them mid-run."""
        t = SimTransport()
        log = []

        def handler(env):
            log.append(env.payload)
            if env.payload == 1:
                t.call_later(0.0, lambda: log.append("nested timer"))
                t.send("b", "b", 3)

        t.register("b", handler)
        t.send("a", "b", 1)
        t.call_later(0.0, lambda: log.append("timer"))
        t.send("a", "b", 2)
        t.run_until_idle()
        assert log == [1, "timer", 2, "nested timer", 3]
        assert t.now() == 0.0

    def test_timers_fire_in_time_order(self):
        t = SimTransport()
        log = []
        t.call_later(3, lambda: log.append("c"))
        t.call_later(1, lambda: log.append("a"))
        t.call_later(2, lambda: log.append("b"))
        t.run_until_idle()
        assert log == ["a", "b", "c"]

    def test_simultaneous_timers_fire_in_scheduling_order(self):
        t = SimTransport()
        log = []
        for i in range(5):
            t.call_later(1.0, lambda i=i: log.append(i))
        t.run_until_idle()
        assert log == [0, 1, 2, 3, 4]

    def test_the_clock_advances_to_each_event(self):
        t = SimTransport()
        seen = []
        assert t.now() == 0.0
        t.call_later(2.5, lambda: seen.append(t.now()))
        t.call_later(1.0, lambda: t.send("a", "b", None))
        t.register("b", lambda env: seen.append(t.now()))
        t.run_until_idle()
        assert seen == [1.0, 2.5] and t.now() == 2.5

    def test_nested_scheduling_counts_from_the_current_time(self):
        t = SimTransport()
        log = []

        def outer():
            log.append(("outer", t.now()))
            t.call_later(1, lambda: log.append(("inner", t.now())))

        t.call_later(1, outer)
        t.run_until_idle()
        assert log == [("outer", 1.0), ("inner", 2.0)]

    def test_a_negative_delay_is_refused(self):
        with pytest.raises(ValueError, match="past"):
            SimTransport().call_later(-1, lambda: None)

    def test_cancelled_timers_leave_the_rest_in_order(self):
        t = SimTransport()
        log = []
        handles = [t.call_later(i + 1, lambda i=i: log.append(i)) for i in range(200)]
        for i, handle in enumerate(handles):
            if i % 2:
                handle.cancel()
        t.run_until_idle()
        assert log == [i for i in range(200) if i % 2 == 0]
        assert t.now() == 199.0

    def test_cancel_after_fire_is_harmless(self):
        t = SimTransport()
        log = []
        handle = t.call_later(1, lambda: log.append("fired"))
        t.run_until_idle()
        handle.cancel()
        t.call_later(1, lambda: log.append("later"))
        t.run_until_idle()
        assert log == ["fired", "later"] and t.now() == 2.0

    def test_livelock_guard(self, monkeypatch):
        """A run of exactly ``MAX_EVENTS`` events completes; one that would
        run more raises after running exactly ``MAX_EVENTS``."""
        monkeypatch.setattr("repro.net.transport.MAX_EVENTS", 100)
        t = SimTransport()
        ran = []
        for i in range(100):
            t.call_later(1, lambda i=i: ran.append(i))
        t.run_until_idle()
        assert len(ran) == 100

        ran.clear()

        def forever():
            ran.append(t.now())
            t.call_later(1, forever)

        t.call_later(1, forever)
        with pytest.raises(RuntimeError, match="quiesce"):
            t.run_until_idle()
        assert len(ran) == 100

    def test_the_livelock_guard_counts_deliveries(self, monkeypatch):
        """Deliveries are heap entries too: two endpoints that answer each
        other forever trip the guard without a single timer."""
        monkeypatch.setattr("repro.net.transport.MAX_EVENTS", 50)
        t = SimTransport()
        t.register("a", lambda env: t.send("a", "b", None))
        t.register("b", lambda env: t.send("b", "a", None))
        t.send("@test", "a", None)
        with pytest.raises(RuntimeError, match="quiesce"):
            t.run_until_idle()
        assert t.messages_delivered == 50 and t.now() == 0.0

    def test_cancelled_entries_do_not_count_towards_the_livelock_bound(self, monkeypatch):
        monkeypatch.setattr("repro.net.transport.MAX_EVENTS", 10)
        t = SimTransport()
        ran = []
        for i in range(60):
            handle = t.call_later(i, lambda i=i: ran.append(i))
            if i % 6:
                handle.cancel()
        t.run_until_idle()
        assert ran == list(range(0, 60, 6))

    def test_the_livelock_bound_is_per_run(self, monkeypatch):
        monkeypatch.setattr("repro.net.transport.MAX_EVENTS", 20)
        t = SimTransport()
        ran = []
        for _ in range(3):
            for i in range(20):
                t.call_later(1, lambda i=i: ran.append(i))
            t.run_until_idle()
        assert len(ran) == 60 and t.now() == 3.0

    def test_an_empty_run_leaves_the_clock_alone(self):
        t = SimTransport()
        t.run_until_idle()
        assert t.now() == 0.0
        t.call_later(4.0, lambda: None)
        t.run_until_idle()
        t.run_until_idle()
        assert t.now() == 4.0

    def test_a_cancelled_timer_does_not_advance_the_clock(self):
        """A blank entry is skipped, not run: the clock stops at the last
        entry that ran, not at the latest one that was scheduled."""
        t = SimTransport()
        log = []
        t.call_later(1.0, lambda: log.append(t.now()))
        t.call_later(9.0, lambda: log.append(t.now())).cancel()
        t.run_until_idle()
        assert log == [1.0] and t.now() == 1.0

    def test_cancelling_twice_is_harmless(self):
        t = SimTransport()
        log = []
        handle = t.call_later(1, lambda: log.append("cancelled"))
        handle.cancel()
        handle.cancel()
        t.call_later(2, lambda: log.append("kept"))
        t.run_until_idle()
        assert log == ["kept"] and t.now() == 2.0

    def test_a_running_timer_can_cancel_a_pending_one(self):
        t = SimTransport()
        log = []
        later = t.call_later(1.0, lambda: log.append("same time, later"))
        t.call_later(0.5, lambda: (log.append("first"), later.cancel()))
        t.call_later(1.0, lambda: log.append("same time, kept"))
        t.run_until_idle()
        assert log == ["first", "same time, kept"]

    def test_a_send_is_delivered_at_the_time_it_was_sent(self):
        """Sends never advance the clock: a message sent at ``t`` is
        delivered at ``t``, before any later timer, however many hops it
        cascades through."""
        t = SimTransport()
        log = []

        def relay(env):
            log.append((env.dst, t.now()))
            if env.payload:
                t.send(env.dst, "b" if env.dst == "a" else "a", env.payload - 1)

        t.register("a", relay)
        t.register("b", relay)
        t.call_later(1.5, lambda: t.send("@test", "a", 3))
        t.call_later(1.6, lambda: log.append(("timer", t.now())))
        t.run_until_idle()
        assert log == [("a", 1.5), ("b", 1.5), ("a", 1.5), ("b", 1.5), ("timer", 1.6)]

    def test_a_timer_after_a_run_counts_from_the_advanced_clock(self):
        t = SimTransport()
        t.call_later(3.0, lambda: None)
        t.run_until_idle()
        seen = []
        t.call_later(0.0, lambda: seen.append(t.now()))
        t.call_later(1.0, lambda: seen.append(t.now()))
        t.run_until_idle()
        assert seen == [3.0, 4.0]

    def test_timers_are_not_messages(self):
        t = SimTransport()
        t.call_later(1.0, lambda: None)
        t.call_later(2.0, lambda: None).cancel()
        t.run_until_idle()
        assert (
            t.messages_sent,
            t.messages_delivered,
            t.messages_dropped,
            t.messages_dead_lettered,
        ) == (0, 0, 0, 0)
        assert t.in_flight == 0

    def test_reregistration_in_flight_delivers_to_the_new_handler(self):
        t = SimTransport()
        first, second = [], []
        t.register("b", lambda env: first.append(env.payload))
        t.send("a", "b", 1)
        t.register("b", lambda env: second.append(env.payload))
        t.run_until_idle()
        assert first == [] and second == [1]
        assert t.messages_delivered == 1 and t.messages_dead_lettered == 0

    def test_a_timer_between_sends_unregisters_what_follows_it(self):
        """A zero-delay timer that unregisters the destination splits the
        sends around it: those scheduled before it are delivered, those
        after it dead-letter."""
        t = SimTransport()
        got = []
        t.register("b", lambda env: got.append(env.payload))
        t.send("a", "b", 1)
        t.send("a", "b", 2)
        t.call_later(0.0, lambda: t.unregister("b"))
        t.send("a", "b", 3)
        t.run_until_idle()
        assert got == [1, 2]
        assert t.messages_delivered == 2 and t.messages_dead_lettered == 1

    def test_a_raising_action_leaves_the_rest_queued(self):
        """An exception escapes ``run_until_idle`` (and ``drain``) as is,
        with the clock at the failing entry; what was still queued runs on
        the next call."""
        t = SimTransport()
        log = []

        def boom():
            raise KeyError("boom")

        t.call_later(1.0, lambda: log.append(1))
        t.call_later(2.0, boom)
        t.call_later(3.0, lambda: log.append(3))
        with pytest.raises(KeyError):
            t.run_until_idle()
        assert log == [1] and t.now() == 2.0
        asyncio.run(t.drain())
        assert log == [1, 3] and t.now() == 3.0

    def test_drain_runs_timers_as_well_as_messages(self):
        t = SimTransport()
        got = []
        t.register("b", lambda env: got.append((env.payload, t.now())))
        t.call_later(2.0, lambda: t.send("a", "b", "late"))
        t.send("a", "b", "now")
        asyncio.run(t.drain())
        assert got == [("now", 0.0), ("late", 2.0)]
        assert t.in_flight == 0

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.sampled_from([0.0, 0.5, 1.0, 2.0]),
            ),
            max_size=30,
        )
    )
    def test_entries_run_in_time_then_scheduling_order(self, plan):
        """Any mix of sends (``None``) and timers runs sorted by (time,
        scheduling index), a send counting as a timer at delay 0."""
        t = SimTransport()
        ran = []
        t.register("b", lambda env: ran.append(env.payload))
        for i, delay in enumerate(plan):
            if delay is None:
                t.send("a", "b", i)
            else:
                t.call_later(delay, lambda i=i: ran.append(i))
        t.run_until_idle()
        expected = sorted(
            range(len(plan)), key=lambda i: (plan[i] or 0.0, i)
        )
        assert ran == expected
        assert t.now() == max((d or 0.0 for d in plan), default=0.0)


class TestAsyncioSpecifics:
    """Behaviour the event-loop transports add on top of the contract."""

    def test_send_before_start_raises(self):
        t = LoopbackAsyncioTransport()
        with pytest.raises(TransportError, match="not started"):
            t.send("a", "b", _msg(1))

    def test_drain_before_start_raises(self):
        for factory in (LoopbackAsyncioTransport, AsyncioTransport):
            with pytest.raises(TransportError, match="not started"):
                asyncio.run(factory().drain())

    def test_close_discards_what_is_still_queued(self):
        """Nothing is delivered once ``close()`` has returned: queued
        envelopes count dropped (like a dead link's queue) and the pump
        callback scheduled for them finds nothing to do."""

        async def body():
            t = LoopbackAsyncioTransport()
            await t.start()
            got = []
            t.register("b", lambda env: got.append(env))
            for n in range(3):
                t.send("a", "b", _msg(n))
            await t.close()
            for _ in range(3):
                await asyncio.sleep(0)
            assert got == []
            assert t.messages_dropped == 3
            assert t.in_flight == 0

        asyncio.run(body())

    def test_payloads_cross_the_codec(self):
        """Loopback delivery is a full encode/decode round-trip: the
        receiver gets an equal — but distinct — payload object, so any
        accidental reliance on object identity breaks in tier-1."""

        async def body():
            t = LoopbackAsyncioTransport()
            await t.start()
            got = []
            t.register("b", lambda env: got.append(env.payload))
            sent = m.SearchingHost(
                node="ab",
                payload=m.NodeState(label="ab", father="a", children=("aba",), data={1, "x"}),
            )
            t.send("a", "b", sent)
            await t.drain()
            assert got[0] == sent and got[0] is not sent
            await t.close()

        asyncio.run(body())

    def test_handler_exception_surfaces_at_drain(self):
        async def body():
            t = LoopbackAsyncioTransport()
            await t.start()

            def bad(env):
                raise RuntimeError("handler exploded")

            t.register("b", bad)
            t.send("a", "b", _msg(1))
            with pytest.raises(TransportError, match="error"):
                await t.drain()
            # The failure was consumed: counters are quiescent and the
            # transport keeps working afterwards.
            assert t.in_flight == 0
            t.register("b", lambda env: None)
            t.send("a", "b", _msg(2))
            await t.drain()
            await t.close()

        asyncio.run(body())

    def test_unencodable_payload_counts_as_dropped(self):
        async def body():
            t = LoopbackAsyncioTransport()
            await t.start()
            t.register("b", lambda env: None)
            t.send("a", "b", object())
            with pytest.raises(TransportError):
                await t.drain()
            assert t.messages_dropped == 1
            assert t.in_flight == 0
            await t.close()

        asyncio.run(body())


LOOP_TRANSPORTS = [
    pytest.param(LoopbackAsyncioTransport, id="loopback"),
    pytest.param(AsyncioTransport, id="asyncio-unix", marks=pytest.mark.net),
]

SOCKET_TRANSPORTS = [
    pytest.param(AsyncioTransport, id="asyncio-unix"),
    pytest.param(lambda: AsyncioTransport(host="127.0.0.1"), id="asyncio-tcp"),
]


class _TurnCounter:
    """Counts event-loop turns: a callback that re-``call_soon``s itself
    runs exactly once per turn for as long as it is ``live``."""

    def __init__(self) -> None:
        self.turns = 0
        self.live = True
        self._loop = asyncio.get_running_loop()
        self._loop.call_soon(self._tick)

    def _tick(self) -> None:
        if self.live:
            self.turns += 1
            self._loop.call_soon(self._tick)


class TestRunToCompletionDelivery:
    """Local delivery is one ready queue and one bounded pump: a hop costs
    a queue pop, not a loop turn, and no cascade can keep the loop."""

    @pytest.mark.parametrize("factory", LOOP_TRANSPORTS)
    def test_a_self_resending_handler_cannot_wedge_the_loop(self, factory):
        """An endpoint that keeps sending to itself used to never yield
        (a non-empty queue's ``get()`` does not suspend), so nothing else
        on the loop ran.  Here the chain goes on until other callbacks
        have had ``turns`` loop turns: a pump that hands the loop back
        every :data:`_PUMP_BATCH` deliveries ends it within a batch per
        turn, and one that runs the chain to its end sends up to the cap
        and fails here instead of hanging.  The bound is a count, so a
        slower process (a tracer) does not move it."""
        turns = 3
        cap = 200_000

        async def body():
            t = factory()
            await t.start()
            sends = 0
            others = _TurnCounter()

            def again(env):
                nonlocal sends
                if others.turns < turns and sends < cap:
                    sends += 1
                    t.send("a", "a", _msg(0))

            t.register("a", again)
            t.send("@test", "a", _msg(0))
            await t.drain()
            others.live = False
            assert others.turns >= turns
            assert _PUMP_BATCH < sends <= (turns + 1) * _PUMP_BATCH
            await t.close()

        asyncio.run(body())

    @pytest.mark.parametrize("factory", LOOP_TRANSPORTS)
    def test_a_drain_behind_an_endless_cascade_times_out(self, factory, monkeypatch):
        """With its deadline already due, ``drain()`` raises at its first
        check, one batch into a chain that would otherwise run to its cap."""
        monkeypatch.setattr("repro.net.transport.DRAIN_TIMEOUT", 0.0)
        cap = 200_000

        async def body():
            t = factory()
            await t.start()
            sends = 0

            def again(env):
                nonlocal sends
                if sends < cap:
                    sends += 1
                    t.send("a", "a", _msg(0))

            t.register("a", again)
            t.send("@test", "a", _msg(0))
            with pytest.raises(TransportError, match="drain timed out"):
                await t.drain()
            assert 0 < sends < cap
            await t.close()

        asyncio.run(body())

    @pytest.mark.parametrize("factory", LOOP_TRANSPORTS)
    def test_a_cascade_costs_turns_per_batch_not_per_hop(self, factory):
        hops = 1000

        async def body():
            t = factory()
            await t.start()
            delivered = 0

            def relay(env):
                nonlocal delivered
                delivered += 1
                if env.payload.datum > 1:
                    t.send(env.dst, "b" if env.dst == "a" else "a", _msg(env.payload.datum - 1))

            t.register("a", relay)
            t.register("b", relay)
            t.send("@test", "a", _msg(hops))
            counter = _TurnCounter()
            await t.drain()
            counter.live = False
            assert delivered == hops
            assert counter.turns <= hops // _PUMP_BATCH + 2
            await t.close()

        asyncio.run(body())

    def test_a_local_hop_costs_a_handful_of_python_calls(self):
        """The fixed cost of a message, as a count: 1 000 ping-pong hops
        between two endpoints under a ``sys.setprofile`` call counter.  A
        hop is the handler, ``send`` and the envelope's constructor; it
        used to be eight calls (``_deliver``, ``_is_control``,
        ``_deliver_here``, ``_enqueue``, ``_schedule_pump`` on top).
        Tier-1: the socket transport's own ``send`` and ``_pump``, started
        without its listener (local delivery never touches it)."""
        hops = 1000

        class Listenerless(AsyncioTransport):
            start = LoopbackAsyncioTransport.start

        async def body():
            t = Listenerless()
            await t.start()
            left = hops

            def relay(env):
                nonlocal left
                left -= 1
                if left:
                    t.send(env.dst, env.src, env.payload)

            t.register("a", relay)
            t.register("b", relay)
            t.send("b", "a", _msg(0))
            calls = 0

            def count(frame, event, arg):
                nonlocal calls
                calls += event == "call"

            sys.setprofile(count)
            try:
                await t.drain()
            finally:
                sys.setprofile(None)
            assert left == 0
            assert calls / hops <= 5, f"{calls / hops:.2f} Python-level calls per hop"
            await t.close()

        asyncio.run(body())

    def test_message_records_are_slotted(self):
        """No per-record ``__dict__``: the envelope and every message
        class define ``__slots__`` and so do their instances' types all
        the way up (one slot-less base would bring the dict back)."""
        records = [Envelope("a", "b", None), _msg(0), m.NodeState(label="a", father=None)]
        for cls in [Envelope, m.NodeState, *MESSAGE_TYPES.values()]:
            assert "__slots__" in vars(cls), cls.__name__
            assert "__dict__" not in dir(cls), cls.__name__
        for record in records:
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.no_such_field = 1

    @pytest.mark.net
    def test_a_discovery_costs_the_same_turns_whatever_its_hops(self):
        """200 discoveries on a served single-process ring, over keys that
        sit 0 to 16 tree hops from the entry node: the loop turns one
        costs do not depend on how far it travels."""

        async def body():
            transport, engine, broker = await start_cluster(8)
            cluster = broker.backend
            word = "dgemm-blas-level3"
            keys = [word[:n] for n in range(1, len(word) + 1)]
            for key in keys:
                await cluster.register(key)
            counter = _TurnCounter()
            turns_by_hops = {}
            for i in range(200):
                before = counter.turns
                reply = await cluster.discover(keys[i % len(keys)])
                turns_by_hops.setdefault(reply["hops"], set()).add(counter.turns - before)
            counter.live = False
            assert len(turns_by_hops) > 10
            (turns,) = set().union(*turns_by_hops.values())
            assert turns <= 1
            await broker.close()
            await transport.close()

        asyncio.run(body())


async def _poll(predicate, timeout: float = 5.0) -> None:
    """Await a cross-transport condition (two event loops' worth of socket
    I/O means no single drain() covers it)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition never became true")
        await asyncio.sleep(0.005)


def _discover_frame(endpoint: str, rid: int, key: str) -> bytes:
    """A client's ``discover`` request, as ``DLPTClient`` writes it."""
    request = {"op": "discover", "key": key, "id": rid, "reply_to": endpoint}
    return encode_frame(endpoint, BROKER_ENDPOINT, request)


def _blocking_discovers(path: str, key: str, n: int) -> int:
    """``n`` serial ``discover``s of ``key`` over a blocking Unix socket;
    returns how many came back found under their own id.  Replies are
    read into one small buffer, so the client allocates nothing large."""
    endpoint, frames, found = "@blocking", FrameReader(), 0
    chunk = memoryview(bytearray(4096))
    with socket.socket(socket.AF_UNIX) as sock:
        sock.settimeout(10.0)
        sock.connect(path)
        sock.sendall(hello_frame(endpoint=endpoint))
        for rid in range(1, n + 1):
            sock.sendall(_discover_frame(endpoint, rid, key))
            replies = []
            while not replies:
                got = sock.recv_into(chunk)
                assert got, "the server closed the connection"
                replies = list(frames.feed(chunk[:got]))
            (reply,) = replies
            found += reply.payload["id"] == rid and reply.payload["found"]
    return found


def _held_open_discovers(path: str, key: str, n: int) -> int:
    """``n`` connections, each saying hello and ``discover``ing ``key``
    once, every one held open until the last has its reply; returns how
    many came back found."""
    found = 0
    chunk = memoryview(bytearray(4096))
    with contextlib.ExitStack() as stack:
        for i in range(n):
            sock = stack.enter_context(socket.socket(socket.AF_UNIX))
            sock.settimeout(10.0)
            sock.connect(path)
            sock.sendall(hello_frame(endpoint=f"@held-{i}"))
            sock.sendall(_discover_frame(f"@held-{i}", 1, key))
            frames, replies = FrameReader(), []
            while not replies:
                got = sock.recv_into(chunk)
                assert got, "the server closed the connection"
                replies = list(frames.feed(chunk[:got]))
            found += replies[0].payload["found"]
    return found


@pytest.mark.net
class TestListener:
    """An accepted connection is a protocol, not a reader task: it reads
    into the transport's one read buffer, the read callback parses,
    admits, pumps and — through the idle callback — has the broker serve,
    and ``close()`` ends it."""

    def test_accepted_connections_add_no_task(self):
        """Each accepted connection used to be a ``StreamReader`` task."""

        async def body():
            transport, engine, broker = await start_cluster(4)
            await broker.backend.register("pab", 1)
            before = len(asyncio.all_tasks())
            streams = []
            for i in range(4):
                reader, writer = await dial(transport.address)
                writer.write(hello_frame(endpoint=f"@raw-{i}"))
                writer.write(_discover_frame(f"@raw-{i}", 1, "pab"))
                streams.append((reader, writer))
            for reader, _writer in streams:
                frames, replies = FrameReader(), []
                while not replies:
                    replies = list(frames.feed(await asyncio.wait_for(reader.read(1 << 16), 5.0)))
                assert [env.payload["found"] for env in replies] == [True]
            assert len(asyncio.all_tasks()) == before
            for _reader, writer in streams:
                writer.close()
            await broker.close()
            await transport.close()

        asyncio.run(body())

    def test_a_served_rpc_costs_one_selector_poll(self):
        """200 serial ``discover``s from a blocking client on a thread; the
        server loop's selector polls are read each time a request reaches
        the broker, so the window from the second request to the last
        holds whole RPCs and no connection set-up.  The broker's own task
        used to cost two more polls per RPC: its wake-up, and the pump
        armed by sends its ``drain()`` had already delivered (2.8 to 3.0
        in all).  Served in the read callback's idle call, an RPC is the
        one poll that read it."""
        rpcs = 200

        async def body():
            transport, engine, broker = await start_cluster(8)
            await broker.backend.register("dgemm", 1)
            selector = asyncio.get_running_loop()._selector
            select, polls, arrivals = selector.select, 0, []

            def counted(timeout=None):
                nonlocal polls
                polls += 1
                return select(timeout)

            def admit(env):
                arrivals.append(polls)
                broker._on_message(env)

            transport.register(BROKER_ENDPOINT, admit)
            selector.select = counted
            try:
                found = await asyncio.to_thread(
                    _blocking_discovers, transport.address[1], "dgemm", rpcs
                )
            finally:
                del selector.select
            assert found == rpcs == len(arrivals)
            per_rpc = (arrivals[-1] - arrivals[1]) / (rpcs - 2)
            assert per_rpc <= 1.5, f"{per_rpc:.2f} selector polls per RPC"
            await broker.close()
            await transport.close()

        asyncio.run(body())

    def test_a_started_broker_holds_no_task(self):
        """The broker used to keep a serve task waiting on an event for
        as long as it lived; now only a service that must wait is one."""

        async def body():
            transport, engine, broker = await start_cluster(4)
            client = await DLPTClient.connect(transport.address)
            assert (await client.register("pab", 1))["ok"]
            assert (await client.discover("pab"))["found"]
            assert broker._task is None
            coroutines = [task.get_coro().__qualname__ for task in asyncio.all_tasks()]
            assert not [name for name in coroutines if name.startswith("Broker.")]
            await client.close()
            await broker.close()
            await transport.close()

        asyncio.run(body())

    def test_a_served_request_allocates_no_read_buffer(self):
        """200 serial ``discover``s under ``tracemalloc``, after a warm-up:
        the traced peak stays under 256 KiB.  A plain ``asyncio.Protocol``
        is handed a fresh ``bytes`` of the selector transport's read size
        (256 KiB) per read, so the peak held one of those (360 KiB); the
        transport's one read buffer is allocated with the transport."""

        async def body():
            transport, engine, broker = await start_cluster(8)
            await broker.backend.register("dgemm", 1)
            path = transport.address[1]
            assert await asyncio.to_thread(_blocking_discovers, path, "dgemm", 20) == 20
            tracemalloc.start()
            try:
                found = await asyncio.to_thread(_blocking_discovers, path, "dgemm", 200)
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert found == 200
            assert peak < 256 * 1024, f"traced peak {peak / 1024:.0f} KiB"
            await broker.close()
            await transport.close()

        asyncio.run(body())

    def test_connections_share_one_read_buffer(self):
        """Eight connections held open at once, one ``discover`` each,
        under ``tracemalloc``: the listener's memory does not grow by a
        read buffer per connection (64 KiB each, 512 KiB in all, when
        every connection kept its own)."""

        async def body():
            transport, engine, broker = await start_cluster(4)
            await broker.backend.register("dgemm", 1)
            path = transport.address[1]
            assert await asyncio.to_thread(_blocking_discovers, path, "dgemm", 5) == 5
            tracemalloc.start()
            try:
                found = await asyncio.to_thread(_held_open_discovers, path, "dgemm", 8)
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert found == 8
            assert peak < 128 * 1024, f"traced peak {peak / 1024:.0f} KiB"
            await broker.close()
            await transport.close()

        asyncio.run(body())

    @pytest.mark.parametrize("factory", SOCKET_TRANSPORTS)
    def test_close_ends_the_connections_it_accepted(self, factory):
        """A closed transport used to keep reading the connections it had
        accepted: their clients saw no end-of-file, and a frame sent after
        ``close()`` was still delivered."""

        async def body():
            t = factory()
            await t.start()
            got = []
            t.register(BROKER_ENDPOINT, lambda env: got.append(env.payload))
            reader, writer = await dial(t.address)
            writer.write(hello_frame(endpoint="@c"))
            writer.write(encode_frame("@c", BROKER_ENDPOINT, {"n": 1}))
            await _poll(lambda: got == [{"n": 1}])
            await t.close()
            try:
                assert await asyncio.wait_for(reader.read(), 1.0) == b""
            except ConnectionError:
                pass  # a reset is an end too
            with contextlib.suppress(ConnectionError):
                writer.write(encode_frame("@c", BROKER_ENDPOINT, {"n": 2}))
                await writer.drain()
            await asyncio.sleep(0.05)
            assert got == [{"n": 1}]
            assert t.messages_delivered == 1 and t.errors == []
            writer.close()

        asyncio.run(body())


@pytest.mark.net
class TestPeerToPeerSpecifics:
    """The socket transport with a resolver (more than one group): lazy
    dial, link cache, idle reap, reconnect-with-backoff, drop accounting."""

    @staticmethod
    async def _pair(**kwargs):
        """Two transports; ``a`` resolves every endpoint to ``b``."""
        a = AsyncioTransport(**kwargs)
        b = AsyncioTransport()
        await a.start()
        await b.start()
        a.set_resolve(lambda endpoint: b.address)
        return a, b

    def test_cross_transport_delivery_and_frame_counters(self):
        async def body():
            a, b = await self._pair()
            got = []
            b.register("remote", lambda env: got.append(env.payload.datum))
            for n in range(3):
                a.send("local", "remote", _msg(n))
            await a.drain()
            await _poll(lambda: len(got) == 3)
            assert got == [0, 1, 2]
            # Sender counts the frames delivered when written; the
            # receiver counts them sent on ingress — both balance, and
            # the frame totals agree.
            assert a.messages_sent == a.messages_delivered == 3
            assert b.messages_sent == b.messages_delivered == 3
            assert a.frames_out == 3 == b.frames_in
            assert a.frames_in == 0 == b.frames_out
            await a.close()
            await b.close()

        asyncio.run(body())

    @settings(max_examples=5, deadline=None)
    @given(
        messages=st.tuples(
            *(wire_message_builders[name] for name in sorted(MESSAGE_TYPES))
        )
    )
    def test_every_message_type_crosses_a_real_link(self, messages):
        """One instance of every wire message type, plus a ν transfer
        larger than one socket read, sent A → B over a dialed link and
        compared for equality on arrival.  A single-group ring delivers
        in-process, so this is where each type provably survives
        encode → kernel → chunked decode."""
        big = m.LeaveTransfer(
            pred="a",
            nodes=tuple(
                m.NodeState(label=f"a{i}", father="a", data={"x" * 64})
                for i in range(3000)
            ),
        )
        # An accepted connection reads _READ_BUFFER (256 KiB) at a time.
        assert len(encode_frame("local", "remote", big)) > _READ_BUFFER
        sent = [*messages, big]

        async def body():
            a, b = await self._pair()
            got = []
            b.register("remote", lambda env: got.append(env.payload))
            for message in sent:
                a.send("local", "remote", message)
            await a.drain()
            await _poll(lambda: len(got) == len(sent))
            assert got == sent
            assert [type(p) for p in got] == [type(p) for p in sent]
            assert a.frames_out == len(sent) == b.frames_in
            await a.close()
            await b.close()

        asyncio.run(body())

    def test_links_are_dialed_lazily_and_cached(self):
        async def body():
            a, b = await self._pair()
            b.register("remote", lambda env: None)
            assert a.links_dialed == 0
            a.send("x", "remote", _msg(1))
            a.send("x", "remote", _msg(2))
            await a.drain()
            await _poll(lambda: b.messages_delivered == 2)
            assert a.links_dialed == 1  # one cached link carried both
            await a.close()
            await b.close()

        asyncio.run(body())

    def test_idle_links_are_reaped_and_redialed(self, monkeypatch):
        monkeypatch.setattr("repro.net.asyncio_transport.IDLE_TIMEOUT", 0.05)

        async def body():
            a, b = await self._pair()
            got = []
            b.register("remote", lambda env: got.append(env.payload.datum))
            a.send("x", "remote", _msg(1))
            await _poll(lambda: got == [1])
            await _poll(lambda: a.links_reaped >= 1, timeout=2.0)
            assert not a._links
            # The next frame redials transparently.
            a.send("x", "remote", _msg(2))
            await _poll(lambda: got == [1, 2])
            assert a.links_dialed == 2
            await a.close()
            await b.close()

        asyncio.run(body())

    def test_dial_failure_drops_queued_frames(self, monkeypatch):
        monkeypatch.setattr("repro.net.asyncio_transport.DIAL_RETRIES", 1)
        monkeypatch.setattr("repro.net.asyncio_transport.DIAL_BACKOFF", 0.01)

        async def body():
            a = AsyncioTransport()
            await a.start()
            a.set_resolve(lambda endpoint: ("unix", "/nonexistent/peer.sock"))
            a.send("x", "remote", _msg(1))
            await _poll(lambda: a.messages_dropped == 1)
            assert a.messages_sent == 1
            assert a.in_flight == 0
            with pytest.raises(TransportError, match="error"):
                await a.drain()
            await a.close()

        asyncio.run(body())

    def test_reconnect_with_backoff_survives_late_listener(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.net.asyncio_transport.DIAL_RETRIES", 8)

        async def body():
            # The peer is not up yet: frames queue while the dialer backs
            # off, and flow once the listener finally binds.
            path = str(tmp_path / "late-peer.sock")
            a = AsyncioTransport()
            await a.start()
            a.set_resolve(lambda endpoint: ("unix", path))
            a.send("x", "remote", _msg(7))
            await asyncio.sleep(0.1)
            b = AsyncioTransport(path=path)
            got = []
            await b.start()
            b.register("remote", lambda env: got.append(env.payload.datum))
            await _poll(lambda: got == [7])
            assert a.messages_dropped == 0
            await a.close()
            await b.close()

        asyncio.run(body())

    def test_kill_link_severs_without_recording_an_error(self):
        """``kill_link`` is chaos's connection-kill fault: the cached link
        dies, no transport error is recorded (a kill is injected, not a
        defect), and the next send re-dials from scratch."""

        async def body():
            a, b = await self._pair()
            got = []
            b.register("remote", lambda env: got.append(env.payload.datum))
            assert a.kill_link("remote") is False  # nothing dialed yet
            a.send("x", "remote", _msg(1))
            await _poll(lambda: got == [1])
            assert a.kill_link("remote") is True
            assert not a._links
            assert a.errors == []
            a.send("x", "remote", _msg(2))
            await _poll(lambda: got == [1, 2])
            assert a.links_dialed == 2
            await a.close()
            await b.close()

        asyncio.run(body())

    def test_a_kill_drops_what_this_loop_turn_queued(self):
        """Frames sent in the turn of a kill were never written: they
        count dropped, the frames sent before and after it arrive, and
        no error is recorded.  (The kill test above sends one frame per
        turn, so it never has a frame queued when it kills.)"""

        async def body():
            a, b = await self._pair()
            got = []
            b.register("remote", lambda env: got.append(env.payload.datum))
            a.send("x", "remote", _msg(0))
            await _poll(lambda: got == [0])
            for n in range(1, 6):
                a.send("x", "remote", _msg(n))
            assert a.kill_link("remote") is True
            assert a.messages_dropped == 5
            a.send("x", "remote", _msg(6))
            await a.drain()
            await _poll(lambda: b.frames_in == 2)
            await b.drain()
            assert got == [0, 6]
            assert a.errors == [] and b.errors == []
            assert a.messages_sent == 7 == a.messages_delivered + a.messages_dropped
            assert a.in_flight == 0 == b.in_flight
            assert a.frames_out == 2 == b.frames_in
            await a.close()
            await b.close()

        asyncio.run(body())

    def test_a_link_the_other_group_closed_fails_drain_without_wedging_it(self, monkeypatch):
        """``b`` closes under a live link, then ``a`` sends three frames.
        The first used to be neither delivered nor dropped — its write
        failed inside the link's task, after it left the outbox — so
        ``drain()`` waited out ``DRAIN_TIMEOUT`` with one message in flight
        and never raised the ``ConnectionResetError`` it held."""
        monkeypatch.setattr("repro.net.transport.DRAIN_TIMEOUT", 2.0)
        monkeypatch.setattr("repro.net.asyncio_transport.DIAL_RETRIES", 2)

        async def body():
            a, b = await self._pair()
            got = []
            b.register("remote", lambda env: got.append(env.payload.datum))
            a.send("x", "remote", _msg(0))
            await _poll(lambda: got == [0])
            await b.close()
            for n in range(1, 4):
                a.send("x", "remote", _msg(n))
            with pytest.raises(TransportError, match="during drain"):
                await a.drain()
            assert a.in_flight == 0
            assert got == [0]
            await a.close()

        asyncio.run(body())

    def test_a_live_idle_link_holds_no_task(self):
        """A link used to be a task draining its outbox, and each transport
        kept an idle-reaper task: four tasks for this pair.  Now a link is
        a protocol and its reap a timer; only a dial in progress is a task."""

        async def body():
            a, b = await self._pair()
            got = []
            b.register("remote", lambda env: got.append(env.payload.datum))
            a.send("x", "remote", _msg(1))
            await a.drain()
            await _poll(lambda: got == [1])
            assert a.links_dialed == 1 and a._links
            assert asyncio.all_tasks() == {asyncio.current_task()}
            await a.close()
            await b.close()

        asyncio.run(body())

    def test_reset_accounting_zeroes_the_epoch(self):
        async def body():
            a, b = await self._pair()
            b.register("remote", lambda env: None)
            a.send("x", "remote", _msg(1))
            await a.drain()
            assert a.messages_sent == 1 and a.frames_out == 1
            a.reset_accounting()
            assert a.messages_sent == a.messages_delivered == 0
            assert a.frames_out == a.frames_in == 0
            assert a.in_flight == 0
            await a.close()
            await b.close()

        asyncio.run(body())

    def test_unresolvable_endpoint_dead_letters(self):
        async def body():
            a = AsyncioTransport()
            await a.start()
            # No resolver at all: only local endpoints exist.
            a.send("x", "elsewhere", _msg(1))
            await a.drain()
            assert a.messages_dead_lettered == 1
            # A resolver mapping the endpoint to *this* transport's own
            # address is a routing loop, also dead-lettered.
            a.set_resolve(lambda endpoint: a.address)
            a.send("x", "elsewhere", _msg(2))
            await a.drain()
            assert a.messages_dead_lettered == 2
            await a.close()

        asyncio.run(body())


def _raw_frame(body: dict) -> bytes:
    """A frame the encoder would refuse to build: hand-rolled JSON."""
    data = json.dumps(body).encode("utf-8")
    return len(data).to_bytes(4, "big") + data


def _garbage_frames(engine, victim: str = "@victim"):
    """Frames no honest client sends over a connection whose hello said
    ``@evil``: a non-JSON body, protocol frames carrying values the
    encoder refuses (only JSON scalars may be registered), well-formed
    frames for a peer or for the engine's reply sink, frames for the
    broker that are not JSON objects, and broker requests that speak as
    another client, ``victim``."""
    node = next(iter(engine.locator))
    body = {"w": WIRE_SCHEMA, "s": "@evil", "d": engine.locator[node]}
    nested = {"label": "zz", "father": None, "children": [], "data": [["nested"]]}
    forged = {"op": "discover", "key": "nothing-here", "id": 2, "reply_to": victim}
    to_broker = {**body, "d": BROKER_ENDPOINT, "t": "json"}
    return {
        "a list sent to the broker": _raw_frame({**to_broker, "f": [1, 2]}),
        "a string sent to the broker": _raw_frame({**to_broker, "f": "hi"}),
        "a number sent to the broker": _raw_frame({**to_broker, "f": 7}),
        "a DiscoveryRequest sent to the broker": _raw_frame(
            {**to_broker, "t": "DiscoveryRequest",
             "f": {"node": node, "key": "pab", "reply_to": "@evil", "hops": 0}}
        ),
        "a request whose reply_to names another client": _raw_frame(
            {**body, "d": BROKER_ENDPOINT, "t": "json", "f": forged}
        ),
        "a request sent as another client": _raw_frame(
            {**body, "s": victim, "d": BROKER_ENDPOINT, "t": "json", "f": forged}
        ),
        "non-json body": (9).to_bytes(4, "big") + b"\xff\xfe not js",
        "DataInsertion.datum is a dict": _raw_frame(
            {**body, "t": "DataInsertion", "f": {"node": node, "key": "pab", "datum": {"a": 1}}}
        ),
        "Host payload data is nested": _raw_frame({**body, "t": "Host", "f": {"payload": nested}}),
        "PeerJoin.state is a string": _raw_frame(
            {**body, "t": "PeerJoin",
             "f": {"node": node, "joiner": "pzz", "state": "0", "capacity": 10}}
        ),
        "YourInformation node data is nested": _raw_frame(
            {**body, "t": "YourInformation", "f": {"pred": "pa", "succ": "pb", "nodes": [nested]}}
        ),
        "DiscoveryReply.data is nested": _raw_frame(
            {**body, "d": "@client", "t": "DiscoveryReply",
             "f": {"key": "pab", "found": True, "data": [{"a": 1}], "hops": 0}}
        ),
        "a DiscoveryRequest sent straight to a peer": _raw_frame(
            {**body, "t": "DiscoveryRequest",
             "f": {"node": node, "key": 7, "reply_to": "@evil", "hops": 0}}
        ),
        "a DiscoveryReply forged to the reply sink": _raw_frame(
            {**body, "d": "@client", "t": "DiscoveryReply",
             "f": {"key": "pab", "found": True, "data": [2], "hops": 0}}
        ),
    }


@pytest.mark.net
class TestGarbageFromOneConnection:
    """An undecodable frame is the failure of the connection it came
    over.  From a client that is the client's own problem — it used to
    be filed under ``transport.errors``, i.e. raised by whoever drained
    next: an unrelated client's ``discover`` answered ``TransportError: 1
    handler/codec/link error(s) during drain``; the frames the decoder
    let through raised ``TypeError`` (unhashable) inside a handler, to the
    same effect.  So is a well-formed frame a client addresses past the
    broker: a ``DiscoveryRequest`` sent straight to a peer used to raise
    inside its handler (the same ``TransportError`` for the next client),
    and a ``DiscoveryReply`` forged to the reply sink used to be counted
    into the next read of its key.  So, too, is a request that speaks as
    another client, and a frame for the broker that is not a JSON object:
    the broker dropped it unanswered, and its client waited for ever on
    an open connection.  From another group's link it stays loud."""

    def test_a_clients_garbage_fails_nobody_else(self):
        async def body():
            transport, engine, broker = await start_cluster(4)
            good = await DLPTClient.connect(transport.address)
            await good.register("pab", 1)
            hit = await good.discover("pab")
            assert hit["found"] and hit["data"] == [1]
            frames = _garbage_frames(engine, victim=good.endpoint)
            for closed, (what, frame) in enumerate(frames.items(), start=1):
                reader, writer = await dial(transport.address)
                writer.write(hello_frame(endpoint="@evil"))
                writer.write(frame)
                await writer.drain()
                # The offender's connection is closed on it ...
                assert await asyncio.wait_for(reader.read(), 5.0) == b"", what
                writer.close()
                # ... and counted; nobody's drain() will hear of it.
                assert transport.client_wire_errors == closed, what
                assert transport.errors == [], what
                for _ in range(2):
                    again = await good.discover("pab")
                    assert {**again, "id": hit["id"]} == hit, what
            engine.check_tree()
            await good.close()
            await broker.close()
            await transport.close()

        asyncio.run(body())

    def test_a_client_can_neither_answer_nor_capture_another_clients_rpc(self):
        """Mallory's ``discover`` of a missing key with ``reply_to`` naming
        B, under B's next id, used to be cached as B's reply: B's own
        ``discover("dgemm")`` resolved to ``{"key": "nothing-here",
        "found": false}``.  A frame whose ``s`` named B re-pointed B's
        route at Mallory's connection, so B's replies went to Mallory."""

        async def body():
            transport, engine, broker = await start_cluster(4)
            b = await DLPTClient.connect(transport.address)
            await b.register("dgemm", 1)
            # Each forged request takes the id B's next call will use.
            for rid, src in ((2, "@mallory"), (3, b.endpoint)):
                forged = {"op": "discover", "key": "nothing-here", "id": rid, "reply_to": b.endpoint}
                served = broker.requests_served
                reader, writer = await dial(transport.address)
                writer.write(hello_frame(endpoint="@mallory"))
                writer.write(encode_frame(src, BROKER_ENDPOINT, forged))
                await writer.drain()
                # Refused (the connection is closed on it) or, once, served.
                await _poll(lambda: reader.at_eof() or broker.requests_served > served)
                writer.close()
                hit = await asyncio.wait_for(b.discover("dgemm"), 5.0)
                assert (hit["key"], hit["found"], hit["data"]) == ("dgemm", True, [1]), src
            assert transport.client_wire_errors == 2
            await b.close()
            await broker.close()
            await transport.close()

        asyncio.run(body())

    @pytest.mark.parametrize("what", ["DataInsertion.datum is a dict", "PeerJoin.state is a string"])
    def test_a_peer_links_garbage_stays_loud(self, what):
        """A frame the codec refuses on another group's link is that
        link's error: it closes the link and the next ``drain()`` raises
        it."""

        async def body():
            transport, engine, broker = await start_cluster(4)
            await broker.backend.register("pab", 1)
            frame = _garbage_frames(engine)[what]
            reader, writer = await dial(transport.address)
            writer.write(hello_frame(kind="peer"))
            writer.write(frame)
            await writer.drain()
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()
            assert transport.client_wire_errors == 0
            assert [type(exc) for exc in transport.errors] == [WireError]
            with pytest.raises(TransportError, match="during drain"):
                await transport.drain()
            await broker.close()
            await transport.close()

        asyncio.run(body())


@pytest.mark.net
class TestMidFrameConnectionLoss:
    """A connection dying *inside* a length-prefixed frame: the torn
    frame must be discarded at the reader — never half-delivered, never
    counted — and the listener must keep serving subsequent connections.
    Exercised on both socket families."""

    @staticmethod
    async def _open(address):
        if address[0] == "unix":
            return await asyncio.open_unix_connection(address[1])
        return await asyncio.open_connection(address[1], address[2])

    @staticmethod
    def _hello(endpoint: str) -> bytes:
        return encode_frame(
            endpoint,
            CONTROL_ENDPOINT,
            {"hello": WIRE_SCHEMA, "endpoint": endpoint},
        )

    @pytest.mark.parametrize("factory", SOCKET_TRANSPORTS)
    def test_torn_frame_is_discarded_not_half_delivered(self, factory):
        async def body():
            t = factory()
            await t.start()
            got = []
            # A client connection may send the broker JSON objects only.
            t.register(BROKER_ENDPOINT, lambda env: got.append(env.payload["n"]))

            # Connection 1: a hello, one complete frame, then death
            # halfway through a second frame.
            reader, writer = await self._open(t.address)
            torn = encode_frame("@probe", BROKER_ENDPOINT, {"n": 2})
            writer.write(self._hello("@probe"))
            writer.write(encode_frame("@probe", BROKER_ENDPOINT, {"n": 1}))
            writer.write(torn[: len(torn) // 2])
            await writer.drain()
            writer.close()
            await _poll(lambda: got == [1])
            await asyncio.sleep(0.05)  # time for any phantom delivery

            # The torn frame vanished without a trace: not delivered, not
            # counted into the accounting domain, not an error.
            assert got == [1]
            assert t.messages_sent == 1
            assert t.errors == []

            # The listener survived: a fresh connection is served.
            reader2, writer2 = await self._open(t.address)
            writer2.write(self._hello("@probe2"))
            writer2.write(encode_frame("@probe2", BROKER_ENDPOINT, {"n": 3}))
            await writer2.drain()
            await _poll(lambda: got == [1, 3])
            assert t.messages_sent == 2
            assert t.messages_sent == (
                t.messages_delivered
                + t.messages_dropped
                + t.messages_dead_lettered
            )
            writer2.close()
            await t.close()

        asyncio.run(body())
