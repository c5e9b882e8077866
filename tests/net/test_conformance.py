"""The proof obligation: trace replay is transport-conformant.

The same recorded ``repro-trace/1`` workload is replayed through the
protocol engine on every backend; the canonicalised outcome streams must
be *equal*.  Tier-1 runs the differential against the deterministic
loopback transport on a small trace, and against 2 and 4 engine groups in
this process on the small and the acceptance trace; the ``net``-marked
tests run the acceptance-scale traces (200 peers, uniform and zipf
request mixes, a crash storm) against a real socket and worker
processes, plus a crash/restart scenario on a live peer.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.net.asyncio_transport import AsyncioTransport, LoopbackAsyncioTransport
from repro.net.cluster import LocalCluster
from repro.net.conformance import (
    ConformanceError,
    diff_streams,
    record_conformance_trace,
    replay_trace,
)
from repro.net.procgroup import MultiProcessCluster
from repro.net.transport import SimTransport
from repro.workloads.traces import TraceUnit, WorkloadTrace

pytestmark = pytest.mark.asyncio


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


class TestTier1Conformance:
    def test_sim_and_loopback_streams_are_equal(self):
        trace = _small_trace()
        sim = asyncio.run(replay_trace(trace, LocalCluster(SimTransport())))
        loop = asyncio.run(replay_trace(trace, LocalCluster(LoopbackAsyncioTransport())))
        assert diff_streams(sim.outcomes, loop.outcomes) == []
        # Same protocol, same inputs, same delivery semantics (zero-latency
        # global FIFO): even the message totals agree.
        assert sim.messages_sent == loop.messages_sent
        assert sim.messages_delivered == loop.messages_delivered

    def test_replay_is_deterministic(self):
        trace = _small_trace()
        first = asyncio.run(replay_trace(trace, LocalCluster(LoopbackAsyncioTransport())))
        second = asyncio.run(replay_trace(trace, LocalCluster(LoopbackAsyncioTransport())))
        assert first.outcomes == second.outcomes

    def test_trace_exercises_the_interesting_axes(self):
        """Guard the fixture itself: a conformance pass over a trace with
        no churn, faults or requests would prove nothing."""
        trace = _small_trace()
        report = asyncio.run(replay_trace(trace, LocalCluster(SimTransport())))
        assert sum(o.crashes for o in report.outcomes) >= 1
        assert sum(o.joins for o in report.outcomes) >= 1
        assert sum(len(o.requests) for o in report.outcomes) >= 10
        assert any(o.keys for o in report.outcomes)

    def test_query_traces_conform_sim_vs_loopback(self):
        """Traces carrying set-query events (prefix/range/exact scans)
        replay to equal outcome streams — including the per-query result
        sets and hop counts folded into each unit's outcome."""
        trace = _small_trace(queries="mixed:n=2")
        assert any(u.queries for u in trace.units)
        sim = asyncio.run(replay_trace(trace, LocalCluster(SimTransport())))
        loop = asyncio.run(replay_trace(trace, LocalCluster(LoopbackAsyncioTransport())))
        assert diff_streams(sim.outcomes, loop.outcomes) == []
        served = [q for o in sim.outcomes for q in o.queries]
        assert served, "the fixture must actually exercise the query path"
        assert any(q[3] for q in served), "some query must match keys"

    def test_diff_streams_flags_query_divergence(self):
        trace = _small_trace(queries="mixed:n=2")
        a = asyncio.run(replay_trace(trace, LocalCluster(SimTransport()))).outcomes
        b = list(a)
        target = next(i for i, o in enumerate(b) if o.queries)
        broken = b[target]
        q = broken.queries[0]
        b[target] = type(broken)(
            unit=broken.unit,
            n_peers=broken.n_peers,
            n_nodes=broken.n_nodes,
            keys=broken.keys,
            requests=broken.requests,
            joins=broken.joins,
            leaves=broken.leaves,
            crashes=broken.crashes,
            queries=((q[0], q[1], q[2], q[3] + ("phantom",), q[4]),)
            + broken.queries[1:],
        )
        problems = diff_streams(a, b)
        assert problems and "query" in problems[0]

    def test_diff_streams_pinpoints_divergence(self):
        trace = _small_trace()
        a = asyncio.run(replay_trace(trace, LocalCluster(SimTransport()))).outcomes
        b = list(a)
        broken = b[2]
        b[2] = type(broken)(
            unit=broken.unit,
            n_peers=broken.n_peers + 1,
            n_nodes=broken.n_nodes,
            keys=broken.keys,
            requests=broken.requests,
            joins=broken.joins,
            leaves=broken.leaves,
            crashes=broken.crashes,
        )
        problems = diff_streams(a, b)
        assert problems and "unit 2" in problems[0] and "n_peers" in problems[0]

    def test_partition_faults_are_rejected(self):
        trace = WorkloadTrace(
            seed=1,
            meta={"n_bootstrap": 4},
            units=[TraceUnit(faults=[["partition", 0, 2, 1]])],
        )
        with pytest.raises(ConformanceError, match="partition"):
            asyncio.run(replay_trace(trace, LocalCluster(SimTransport())))

    def test_bootstrap_size_is_required(self):
        trace = WorkloadTrace(seed=1, units=[TraceUnit()])
        with pytest.raises(ConformanceError, match="n_bootstrap"):
            asyncio.run(replay_trace(trace, LocalCluster(SimTransport())))


@pytest.fixture(scope="module")
def sim_legs():
    """name -> (trace, its sim replay) for the small and acceptance traces."""
    traces = {"small": _small_trace(), "acceptance": record_conformance_trace()}
    return {
        name: (trace, asyncio.run(replay_trace(trace, LocalCluster(SimTransport()))))
        for name, trace in traces.items()
    }


class TestInProcessGroupLeg:
    """The fifth leg: the trace through N engine groups in this process
    — each its own socket transport, so placement, ``@sync`` replication,
    ``@client-g`` reply routing and cross-group frames all take part —
    equals the sim stream, in tier-1."""

    @pytest.mark.parametrize("n_groups", [2, 4])
    @pytest.mark.parametrize("name", ["small", "acceptance"])
    def test_stream_matches_sim(self, sim_legs, name, n_groups):
        trace, sim = sim_legs[name]
        transports = [AsyncioTransport() for _ in range(n_groups)]
        cluster = LocalCluster(*transports)
        report = asyncio.run(replay_trace(trace, cluster))
        assert diff_streams(sim.outcomes, report.outcomes) == []
        for snap in asyncio.run(cluster.counters()):
            assert snap["in_flight"] == 0
            assert snap["sent"] == snap["delivered"] + snap["dropped"] + snap["dead_lettered"]
        frames = sum(t.frames_out for t in transports)
        assert frames == sum(t.frames_in for t in transports)
        assert frames > 0  # the groups did talk over their sockets


@pytest.mark.net
class TestLiveConformance:
    """Acceptance scale: 200 bootstrap peers, crash storm, real sockets."""

    @pytest.mark.parametrize("workload", ["uniform", "zipf"])
    def test_live_socket_stream_matches_sim(self, workload):
        trace = record_conformance_trace(workload=workload)
        sim = asyncio.run(replay_trace(trace, LocalCluster(SimTransport())))
        live = asyncio.run(replay_trace(trace, LocalCluster(AsyncioTransport())))
        assert diff_streams(sim.outcomes, live.outcomes) == []
        assert sum(o.crashes for o in live.outcomes) >= 1
        assert sum(len(o.requests) for o in live.outcomes) >= 200
        assert live.messages_sent == (
            live.messages_delivered + live.messages_dead_lettered
        )

    @pytest.mark.parametrize("workload", ["uniform", "zipf"])
    def test_multiprocess_stream_matches_sim(self, workload):
        """The third leg of the differential: the same trace through
        engine groups in separate OS processes, protocol messages
        crossing peer-to-peer sockets."""
        trace = record_conformance_trace(workload=workload)
        sim = asyncio.run(replay_trace(trace, LocalCluster(SimTransport())))
        multi = asyncio.run(replay_trace(trace, MultiProcessCluster(processes=2)))
        assert diff_streams(sim.outcomes, multi.outcomes) == []
        assert sum(o.crashes for o in multi.outcomes) >= 1
        # Summed per-group counters still conserve every message (the
        # totals exceed the single-engine replays by exactly the locator
        # replication traffic, so only the invariant is comparable).
        assert multi.messages_sent == (
            multi.messages_delivered + multi.messages_dead_lettered
        )
        assert multi.messages_sent > sim.messages_sent


def _crash_restart_scenario(transport):
    """Crash a key-hosting peer mid-run, then restart it (same endpoint
    id), on any transport; returns the canonical final state."""

    async def body():
        cluster = LocalCluster(transport)
        await cluster.start()
        engine = cluster.engine
        ids = ["pa", "pc", "pe", "pg", "pi", "pk"]
        engine.bootstrap_peer(ids[0], 10)
        await transport.drain()
        for pid in ids[1:]:
            engine.join_peer(pid, 10, seed=min(engine.peers))
            await transport.drain()
        keys = ["ca", "cab", "ga", "gab", "ia", "iab"]
        for key in keys:
            engine.insert_data(key, via=min(engine.locator, default=None))
            await transport.drain()

        victim = engine.locator["ga"]
        await cluster.crash(victim)
        survived = engine.locator["ga"]

        # The victim restarts under its old endpoint id (re-registering
        # an endpoint replaces the dead handler per the contract).
        engine.join_peer(victim, 10, seed=min(engine.peers))
        await transport.drain()

        outcomes = []
        for key in keys:
            mark = len(engine.discovery_replies)
            engine.discover(key, via=min(engine.locator))
            await transport.drain()
            (reply,) = engine.discovery_replies[mark:]
            outcomes.append((key, reply.found, engine.locator.get(key)))
        engine.check_ring()
        await transport.close()
        return survived, victim, sorted(engine.peers), tuple(outcomes)

    return asyncio.run(body())


class TestCrashRestart:
    def test_loopback_matches_sim(self):
        sim = _crash_restart_scenario(SimTransport())
        loop = _crash_restart_scenario(LoopbackAsyncioTransport())
        assert sim == loop
        survived, victim, peers, outcomes = sim
        assert survived != victim and victim in peers
        assert all(found for _, found, _ in outcomes)

    @pytest.mark.net
    def test_live_socket_matches_sim(self):
        sim = _crash_restart_scenario(SimTransport())
        live = _crash_restart_scenario(AsyncioTransport())
        assert sim == live
