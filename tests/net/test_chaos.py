"""Chaos engineering: the ``chaos:`` spec grammar, the fault-injecting
:class:`~repro.net.chaos.ChaosTransport`, and the chaos conformance
obligation.

Tier-1 covers the spec surface (parsing, errors, registry integration,
signature hashing), the decorator's counter invariant under every fault
mode on the deterministic transports, and the oracle-equality proof for
outcome-preserving chaos (delay/reorder): the crash-storm conformance
trace replayed through a chaos-wrapped loopback transport must produce
the *same* canonical stream as the pristine simulator.  The
``net``-marked tests run the same differential through the two-process
ring, a kill-chaos run over real peer-to-peer sockets, and the
no-lost-ack acceptance: a resilient client registering through a broker
whose replies are being dropped by chaos never loses an acknowledged
registration.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.dlpt import messages as m
from repro.dlpt.protocol import ProtocolEngine
from repro.net.asyncio_transport import AsyncioTransport, LoopbackAsyncioTransport
from repro.net.bootstrap import Broker
from repro.net.chaos import (
    ChaosPlan,
    ChaosSpecError,
    ChaosTransport,
    PartitionWindow,
    parse_chaos,
)
from repro.net.client import DLPTClient
from repro.net.cluster import LocalCluster
from repro.net.conformance import (
    diff_streams,
    record_conformance_trace,
    replay_trace,
    replay_trace_multiprocess,
)
from repro.net.transport import SimTransport
from repro.util.specs import SpecError, parse_spec

pytestmark = pytest.mark.asyncio


def _msg(n: int) -> m.DataInsertion:
    return m.DataInsertion(node="a", key="ab", datum=n)


class TestChaosSpec:
    def test_full_grammar_parses(self):
        plan = parse_chaos(
            "drop:0.05+delay:0.3:max=0.01+dup:0.1+reorder:0.2+kill:0.15"
            "+crash_storm:0.02:start=2:end=4+partition:2@4:fraction=0.75+seed=7"
        )
        assert plan.drop == 0.05
        assert plan.delay == 0.3 and plan.delay_max == 0.01
        assert plan.dup == 0.1 and plan.reorder == 0.2 and plan.kill == 0.15
        assert plan.crash == 0.02
        assert plan.crash_start == 2.0 and plan.crash_end == 4.0
        assert plan.partitions == (
            PartitionWindow(duration=2.0, at=4.0, fraction=0.75),
        )
        assert plan.seed == 7
        assert plan.active()

    def test_seed_as_clause_option(self):
        assert parse_chaos("drop:0.1:seed=13").seed == 13

    def test_dict_and_plan_forms(self):
        plan = parse_chaos({"drop": 0.2, "partitions": [{"duration": 1, "at": 3}]})
        assert plan.drop == 0.2
        assert plan.partitions[0].fraction == 0.5  # the default
        assert parse_chaos(plan) is plan

    def test_defaults_are_inert(self):
        assert not ChaosPlan().active()

    @pytest.mark.parametrize(
        "spec, needle",
        [
            ("explode:0.5", "unknown fault kind"),
            ("drop:1.5", "outside"),
            ("drop:much", "not a number"),
            ("drop", "needs a probability"),
            ("delay:0.5:max=0", "must be > 0"),
            ("partition:5", "DURATION@AT"),
            ("drop:0.1:color=red", "unknown option"),
            ("drop:0.1++dup:0.1", "empty clause"),
            ("seed=x", "integer"),
            ("rate=1", "unknown plan option"),
        ],
    )
    def test_malformed_specs_fail_loudly(self, spec, needle):
        with pytest.raises(ChaosSpecError, match=needle):
            parse_chaos(spec)

    @pytest.mark.parametrize(
        "spec, needle",
        [
            ({"drop": 5.0}, "outside"),
            ({"delay": -0.5}, "outside"),
            ({"delay_max": 0}, "must be > 0"),
            ({"seed": "x"}, "integer"),
            ({"drop": "0.5"}, "not a number"),
            ({"partitions": [{"duration": -1, "at": 0, "fraction": 3}]}, ">= 0"),
            ({"partitions": [{"duration": 1, "at": 0, "fraction": 3}]}, "outside"),
        ],
    )
    def test_malformed_dicts_fail_like_strings(self, spec, needle):
        """A mapping is held to the string form's range rules."""
        with pytest.raises(ChaosSpecError, match=needle):
            parse_spec("chaos", spec)
        with pytest.raises(ChaosSpecError, match=needle):
            ChaosTransport(SimTransport(), spec)

    def test_non_string_value_is_rejected(self):
        with pytest.raises(ChaosSpecError):
            parse_chaos(42)
        with pytest.raises(ChaosSpecError):
            parse_chaos("   ")

    def test_registry_integration(self):
        """``chaos`` is a registered spec kind: the same ``parse_spec``
        surface every other compact spec uses."""
        plan = parse_spec("chaos", "drop:0.1+seed=3")
        assert isinstance(plan, ChaosPlan)
        # ChaosSpecError derives from SpecError like every spec surface.
        with pytest.raises(SpecError):
            parse_spec("chaos", "bogus:1")


class TestChaosTransport:
    """The decorator's contract on the deterministic transports."""

    @staticmethod
    async def _flood(inner, plan, n=200, **kwargs):
        t = ChaosTransport(inner, plan, **kwargs)
        await t.start()
        got = []
        t.register("b", lambda env: got.append(env.payload.datum))
        for i in range(n):
            t.send("a", "b", _msg(i))
        await t.drain()
        return t, got

    @pytest.mark.parametrize(
        "inner_factory", [SimTransport, LoopbackAsyncioTransport],
        ids=["sim", "loopback"],
    )
    def test_counter_invariant_under_mixed_faults(self, inner_factory):
        async def body():
            t, got = await self._flood(
                inner_factory(), "drop:0.3+dup:0.2+delay:0.5:max=0.01+seed=3"
            )
            assert t.chaos_dropped > 0
            assert t.chaos_duplicated > 0
            assert t.chaos_delayed > 0
            # The invariant chaos must never break.
            assert t.messages_sent == (
                t.messages_delivered
                + t.messages_dropped
                + t.messages_dead_lettered
            )
            assert t.in_flight == 0
            # Everything not dropped arrived (duplicates included).
            assert len(got) == 200 - t.chaos_dropped + t.chaos_duplicated
            # Per-pair FIFO survives delays: the stream is nondecreasing
            # (duplicates ride directly behind their original).
            assert got == sorted(got)
            await t.close()

        asyncio.run(body())

    def test_same_seed_same_fates(self):
        async def runs():
            plan = "drop:0.25+dup:0.1+delay:0.4:max=0.005+seed=17"
            a, got_a = await self._flood(SimTransport(), plan)
            b, got_b = await self._flood(SimTransport(), plan)
            assert got_a == got_b
            assert (a.chaos_dropped, a.chaos_duplicated, a.chaos_delayed) == (
                b.chaos_dropped, b.chaos_duplicated, b.chaos_delayed
            )
            await a.close()
            await b.close()

        asyncio.run(runs())

    def test_disabled_chaos_is_a_passthrough(self):
        async def body():
            t = ChaosTransport(SimTransport(), "drop:1.0")
            t.enabled = False
            await t.start()
            got = []
            t.register("b", lambda env: got.append(env.payload.datum))
            for i in range(10):
                t.send("a", "b", _msg(i))
            await t.drain()
            assert got == list(range(10))
            assert t.chaos_dropped == 0
            await t.close()

        asyncio.run(body())

    def test_only_predicate_scopes_the_blast_radius(self):
        async def body():
            t = ChaosTransport(
                SimTransport(), "drop:1.0", only=lambda s, d: d == "victim"
            )
            await t.start()
            got = []
            t.register("b", lambda env: got.append(env.payload.datum))
            t.register("victim", lambda env: got.append("never"))
            t.send("a", "b", _msg(1))
            t.send("a", "victim", _msg(2))
            await t.drain()
            assert got == [1]
            assert t.chaos_dropped == 1
            await t.close()

        asyncio.run(body())

    def test_no_endpoint_name_is_exempt(self):
        """Only the ``only=`` predicate scopes chaos: names once reserved
        for an uncounted control plane are dropped like any other."""

        async def body():
            t = ChaosTransport(SimTransport(), "drop:1.0")
            await t.start()
            got = []
            t.register("@ctl-0", lambda env: got.append(env.payload))
            t.register("@coord", lambda env: got.append(env.payload))
            t.send("@coord", "@ctl-0", {"op": "ping"})
            t.send("@ctl-0", "@coord", {"id": 1, "ok": True})
            await t.drain()
            assert got == []
            assert t.chaos_dropped == 2
            assert t.messages_sent == t.messages_dropped == 2
            await t.close()

        asyncio.run(body())

    def test_crash_storm_fail_stops_an_endpoint(self):
        async def body():
            t = ChaosTransport(SimTransport(), "crash_storm:1.0+seed=1")
            await t.start()
            t.register("@sink", lambda env: None)
            t.register("px", lambda env: None)  # the only crashable name
            t.send("a", "@sink", _msg(1))
            await t.drain()
            assert t.crashed == ["px"]
            assert not t.is_registered("px")
            # The crash is fail-stop: traffic to the victim dead-letters.
            t.send("a", "px", _msg(2))
            await t.drain()
            assert t.messages_dead_lettered == 1
            assert t.messages_sent == (
                t.messages_delivered
                + t.messages_dropped
                + t.messages_dead_lettered
            )
            await t.close()

        asyncio.run(body())

    def test_partition_window_blocks_then_heals(self):
        async def body():
            t = ChaosTransport(SimTransport(), "partition:5@0:fraction=1.0")
            await t.start()
            got = []
            t.register("b", lambda env: got.append(env.payload.datum))
            for i in range(5):  # the sim clock sits inside the window
                t.send("a", "b", _msg(i))
            await t.drain()
            assert got == [] and t.chaos_dropped == 5
            # Advance the sim clock past the window: the partition heals.
            t.sim.schedule(10.0, lambda: None, label="advance")
            t.sim.run_until_idle()
            t.send("a", "b", _msg(99))
            await t.drain()
            assert got == [99]
            await t.close()

        asyncio.run(body())

    def test_partition_fraction_is_deterministic_per_pair(self):
        async def body():
            t = ChaosTransport(SimTransport(), "partition:100@0:fraction=0.5+seed=9")
            await t.start()
            t.register("b", lambda env: None)
            for _ in range(10):
                t.send("a", "b", _msg(0))
            await t.drain()
            # A pair is in the blocked fraction or it isn't — never flappy.
            assert t.chaos_dropped in (0, 10)
            await t.close()

        asyncio.run(body())

    def test_reset_accounting_starts_a_fresh_epoch(self):
        async def body():
            t, got = await self._flood(
                SimTransport(), "drop:0.5+seed=2", n=50
            )
            assert t.chaos_dropped > 0
            t.reset_accounting()
            assert t.chaos_dropped == 0
            assert t._pending_held == 0 and t.in_flight == t.inner.in_flight
            await t.close()

        asyncio.run(body())

    def test_close_counts_held_messages_dropped(self):
        async def body():
            t = ChaosTransport(LoopbackAsyncioTransport(), "delay:1.0:max=30.0")
            await t.start()
            t.register("b", lambda env: None)
            for i in range(3):
                t.send("a", "b", _msg(i))
            assert t.in_flight > 0
            await t.close()
            assert t._pending_held == 0
            assert t.chaos_dropped + t.messages_delivered >= 3

        asyncio.run(body())

    def test_delay_and_drop_on_the_simulator(self):
        """Latency and loss in simulated time are chaos clauses over
        ``SimTransport``: a held message arrives within ``[0, max)`` of its
        send, a dropped one takes no delay draw, and an endpoint that
        leaves while its messages are held dead-letters them."""

        async def body():
            t = ChaosTransport(SimTransport(), "delay:1.0:max=2.5+seed=5")
            sent_at, lag = {}, []
            t.register("b", lambda env: lag.append(t.now() - sent_at[env.payload.datum]))

            def send(i):
                sent_at[i] = t.now()
                t.send(f"a{i % 4}", "b", _msg(i))

            for i in range(100):
                t.sim.schedule(i * 0.25, lambda i=i: send(i))
            await t.drain()
            assert len(lag) == t.chaos_delayed == 100
            assert all(0.0 <= x < 2.5 for x in lag)
            assert max(lag) > 1.25

            t, _ = await self._flood(SimTransport(), "drop:0.3+delay:1.0+seed=6")
            assert 0 < t.chaos_dropped < t.messages_sent == 200
            assert t.chaos_delayed == t.messages_sent - t.chaos_dropped

            t = ChaosTransport(SimTransport(), "delay:1.0:max=5.0+seed=7")
            got = []
            t.register("b", lambda env: got.append(env.payload.datum))
            for i in range(50):
                t.send(f"a{i}", "b", _msg(i))
            t.sim.schedule(2.5, lambda: t.unregister("b"))
            await t.drain()
            assert 0 < len(got) < 50
            assert t.messages_delivered == len(got)
            assert t.messages_dead_lettered == 50 - len(got)
            assert t.messages_sent == (
                t.messages_delivered + t.messages_dropped + t.messages_dead_lettered
            )
            assert t.in_flight == 0

        asyncio.run(body())

    def test_delegation_reaches_the_inner_transport(self):
        async def body():
            inner = SimTransport()
            t = ChaosTransport(inner, "drop:0.1")
            await t.start()
            assert t.now() == inner.now()
            assert t.sim is inner.sim  # attribute fallthrough
            await t.close()

        asyncio.run(body())


def _small_trace(**overrides):
    params = dict(
        n_peers=12,
        n_keys=40,
        growth_units=2,
        total_units=5,
        load_fraction=0.05,
        faults="crash_storm:0.05:start=2:end=4",
        seed=1789,
    )
    params.update(overrides)
    return record_conformance_trace(**params)


#: Outcome-preserving chaos: delay and reorder shuffle schedules but
#: deliver everything, so replays through them must stay oracle-equal.
_PRESERVING = "delay:0.4:max=0.002+reorder:0.3+seed=11"


class TestChaosConformance:
    def test_preserving_chaos_is_oracle_equal(self):
        """The crash-storm conformance trace through a chaos-wrapped
        loopback transport yields the same canonical stream as the
        pristine simulator — chaos scheduling is invisible to outcomes."""
        trace = _small_trace()
        oracle = asyncio.run(replay_trace(trace, SimTransport()))
        chaotic_t = ChaosTransport(LoopbackAsyncioTransport(), _PRESERVING)
        chaotic = asyncio.run(replay_trace(trace, chaotic_t))
        assert diff_streams(oracle.outcomes, chaotic.outcomes) == []
        assert chaotic_t.chaos_delayed + chaotic_t.chaos_reordered > 0
        assert chaotic_t.chaos_dropped == 0
        # Zero loss: every message the replay sent was delivered or (for
        # the trace's own crashed peers) explicitly dead-lettered.
        assert chaotic.messages_sent == (
            chaotic.messages_delivered + chaotic.messages_dead_lettered
        )

    def test_chaotic_replay_is_deterministic(self):
        trace = _small_trace()
        first = asyncio.run(
            replay_trace(trace, ChaosTransport(LoopbackAsyncioTransport(), _PRESERVING))
        )
        second = asyncio.run(
            replay_trace(trace, ChaosTransport(LoopbackAsyncioTransport(), _PRESERVING))
        )
        assert first.outcomes == second.outcomes


@pytest.mark.net
class TestChaosLive:
    def test_multiprocess_chaos_stream_matches_oracle(self):
        """The two-process ring under outcome-preserving chaos (every
        worker transport wrapped, per-group derived seeds) still replays
        the crash-storm trace to the oracle's canonical stream."""
        trace = _small_trace()
        oracle = asyncio.run(replay_trace(trace, SimTransport()))
        multi = asyncio.run(
            replay_trace_multiprocess(
                trace, processes=2, chaos="delay:0.3:max=0.002+reorder:0.2+seed=5"
            )
        )
        assert diff_streams(oracle.outcomes, multi.outcomes) == []
        assert multi.messages_sent == (
            multi.messages_delivered + multi.messages_dead_lettered
        )

    def test_kill_chaos_severed_links_redial(self):
        async def body():
            a = ChaosTransport(AsyncioTransport(), "kill:1.0+seed=1")
            b = AsyncioTransport()
            await a.start()
            await b.start()
            a.set_resolve(lambda endpoint: b.address)
            got = []
            b.register("remote", lambda env: got.append(env.payload.datum))
            n = 8
            for i in range(n):
                a.send("local", "remote", _msg(i))
                # Let the frame settle before the next send kills the link.
                deadline = asyncio.get_running_loop().time() + 5.0
                while a.in_flight > 0:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.005)
            assert a.chaos_kills >= 1
            assert a.links_dialed >= 2  # severed links were re-dialed
            # Kills drop, they never corrupt: whatever arrived is an
            # in-order subsequence, nothing was recorded as an error, and
            # the accounting balances.
            assert got == sorted(got) and set(got) <= set(range(n))
            assert a.errors == []
            assert a.messages_sent == (
                a.messages_delivered + a.messages_dropped + a.messages_dead_lettered
            )
            await a.close()
            await b.close()

        asyncio.run(body())

    def test_no_acked_registration_is_lost_under_reply_chaos(self):
        """The no-lost-ack acceptance: chaos drops a quarter of the
        broker's replies to clients (requests and the protocol plane stay
        healthy, scoped via ``only``), a resilient client retries every
        silence under the same correlation id, and at the end *every*
        registration the client saw acknowledged is discoverable — an ack,
        once observed, is never lost (r >= 1)."""

        async def body():
            inner = AsyncioTransport()
            await inner.start()
            transport = ChaosTransport(
                inner,
                "drop:0.25+seed=23",
                only=lambda s, d: isinstance(d, str) and d.startswith("@client-"),
            )
            engine = ProtocolEngine(transport=transport)
            broker = Broker(LocalCluster(engine), transport)
            await broker.start()
            engine.bootstrap_peer("pm", 10)
            await transport.drain()
            client = await DLPTClient.connect(
                inner.address, timeout=0.25, retries=8, backoff=0.01
            )
            try:
                keys = [f"k{i:02d}" for i in range(20)]
                acked = []
                for key in keys:
                    reply = await client.register(key)
                    assert reply["ok"]
                    acked.append(key)
                assert len(acked) == 20
                # Chaos must actually have fired for this to prove much.
                assert transport.chaos_dropped > 0
                for key in acked:
                    row = await client.discover(key)
                    assert row["ok"] and row["found"], f"acked {key!r} was lost"
                assert client.timeouts > 0  # the retries did the riding
            finally:
                await client.close()
                await broker.close()
                await transport.drain()
                assert transport.messages_sent == (
                    transport.messages_delivered
                    + transport.messages_dropped
                    + transport.messages_dead_lettered
                )
                await transport.close()

        asyncio.run(body())
