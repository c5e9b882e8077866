"""Engine groups: placement, control channel, global drain.

Tier-1 covers the pure pieces (placement hash, endpoint resolver), a
worker's reset and sync, and drives a ring of two in-process groups
through the full membership/data lifecycle; the ``net``-marked tests run
the same lifecycle on real worker processes.  Both assert the per-group
counter invariant and cluster-wide frame balance at every quiescence
point.
"""

from __future__ import annotations

import asyncio
import os
import signal

import pytest

from repro.dlpt import messages as m
from repro.net.asyncio_transport import AsyncioTransport, LoopbackAsyncioTransport
from repro.net.bootstrap import RegistryJournal
from repro.net.cluster import CLIENT_PREFIX, SYNC_PREFIX, LocalCluster, _make_resolver, group_of
from repro.net.procgroup import (
    ClusterError,
    ClusterRecovering,
    MultiProcessCluster,
    _Worker,
)
from repro.net.transport import TransportError

pytestmark = pytest.mark.asyncio


class TestPlacement:
    def test_group_of_is_stable_and_in_range(self):
        for n in (1, 2, 3, 8):
            for pid in ("pa", "zz", "abcd1234", ""):
                g = group_of(pid, n)
                assert 0 <= g < n
                assert g == group_of(pid, n)

    def test_single_group_owns_everything(self):
        assert group_of("anything", 1) == 0

    def test_resolver_maps_the_naming_scheme(self):
        groups = [("unix", "/g0"), ("unix", "/g1")]
        resolve = _make_resolver(2, groups)
        assert resolve(f"{SYNC_PREFIX}0") == groups[0]
        assert resolve(f"{CLIENT_PREFIX}1") == groups[1]
        assert resolve("pa") == groups[group_of("pa", 2)]

    def test_resolver_rejects_unmappable_endpoints(self):
        resolve = _make_resolver(2, [("unix", "/g0"), ("unix", "/g1")])
        assert resolve(123) is None

    def test_cluster_rejects_zero_processes(self):
        with pytest.raises(ValueError, match="processes"):
            MultiProcessCluster(processes=0)


class TestWorkerReset:
    def test_a_reset_leaves_a_blank_engine_that_serves(self):
        """``reset`` swaps in a fresh engine: no peer, location, parked
        message or reply survives it, and the fresh engine owns the
        group's reply sink and install hook (group 0 of two: a lone group
        has neither)."""

        async def body():
            transport = LoopbackAsyncioTransport()
            await transport.start()
            worker = _Worker(transport, 0, 2)
            old = worker.engine
            worker.bootstrap("pa", 10)
            worker.insert("dgemm", None, None)
            await transport.drain()
            worker.discover(["dgemm"], None)
            await transport.drain()
            old.pending_node_messages["gone"] = [("pa", None)]

            worker.reset([list(transport.address)] * 2)
            engine = worker.engine
            assert engine is not old and not transport.is_registered("pa")
            assert (engine.peers, engine.locator, engine.lowest_label) == ({}, {}, None)
            assert engine.pending_node_messages == {}
            assert engine.discovery_replies == engine.query_replies == []
            assert engine.on_node_installed == worker._broadcast_install

            worker.bootstrap("pb", 10)
            worker.insert("dgemv", None, None)
            await transport.drain()
            worker.discover(["dgemv"], None)
            await transport.drain()
            (hit,) = worker.collect()["discovery"]
            assert hit["found"] and hit["host"] == "pb"
            await transport.close()

        asyncio.run(body())


class TestWorkerSync:
    def test_a_sync_repoints_the_label_and_flushes_what_was_parked(self):
        """Another group's install reaches this one as an ``@sync-i``
        frame: the label now points at its host, the lowest label follows,
        and every message parked for it goes to that host from its own
        sender, in order."""

        async def body():
            transport = LoopbackAsyncioTransport()
            await transport.start()
            worker = _Worker(transport, 0, 2)
            engine = worker.engine
            parked = [m.DataInsertion(node="pbab", key="pbab", datum=n) for n in (1, 2)]
            for msg in parked:
                engine.send_to_node("pa", "pbab", msg)
            assert engine.pending_node_messages == {"pbab": [("pa", msg) for msg in parked]}
            arrived = []
            transport.register("pg", arrived.append)

            sync = {"label": "pbab", "host": "pg"}
            worker._on_sync(m.Envelope(f"{SYNC_PREFIX}1", f"{SYNC_PREFIX}0", sync))
            await transport.drain()
            assert (engine.locator, engine.lowest_label) == ({"pbab": "pg"}, "pbab")
            assert engine.pending_node_messages == {}
            assert [(env.src, env.dst, env.payload) for env in arrived] == [
                ("pa", "pg", msg) for msg in parked
            ]
            await transport.close()

        asyncio.run(body())


def _assert_balanced(counters):
    """The acceptance invariant, per group and cluster-wide."""
    for c in counters:
        assert c["sent"] == c["delivered"] + c["dropped"] + c["dead_lettered"], c
        assert c["in_flight"] == 0
    assert sum(c["frames_out"] for c in counters) == (
        sum(c["frames_in"] for c in counters)
    )


async def _traffic(cluster) -> list:
    """Per-group counters with the group's frame totals: a worker reports
    them, an in-process group's are its transport's."""
    counters = await cluster.counters()
    if isinstance(cluster, LocalCluster):
        counters = [
            {**c, "frames_out": t.frames_out, "frames_in": t.frames_in}
            for c, t in zip(counters, cluster.transports)
        ]
    return counters


def _two_groups() -> LocalCluster:
    """Two engine groups in this process, over real sockets."""
    return LocalCluster(AsyncioTransport(), AsyncioTransport())


def _run(cluster, scenario, *args) -> None:
    """Start ``cluster``, play ``scenario`` on it, close it."""

    async def body():
        await cluster.start()
        try:
            await scenario(cluster, *args)
        finally:
            await cluster.close()

    asyncio.run(body())


async def _full_lifecycle(cluster):
    peers = ["pa", "pd", "pg", "pj", "pm", "pq"]
    # The fixture must actually span both groups, or nothing
    # crosses a socket.
    assert len({group_of(p, 2) for p in peers}) == 2
    for pid in peers:
        ring = await cluster.join(pid)
    assert ring["pred"] in peers and ring["succ"] in peers
    assert cluster.live_ids() == sorted(peers)

    record = await cluster.register("dgemm")
    assert record["key"] == "dgemm"
    # Def. 3 mapping rule: lowest live id >= the key, wrapped.
    assert record["host"] == "pa"
    await cluster.register("sgemm")

    hit = await cluster.discover("dgemm")
    assert hit["found"] and hit["host"] == "pa"
    assert hit["data"] == ["dgemm"]
    miss = await cluster.discover("zzz-no-such-key")
    assert not miss["found"]

    band = await cluster.search("range", "dgemm", "zz")
    assert band["keys"] == ["dgemm", "sgemm"]
    assert band["hops"] >= 1

    snap = await cluster.snapshot()
    assert snap["live"] == sorted(peers)
    assert snap["hosted"]["dgemm"] is True
    # Locator replication: every group holds the full table.
    assert len(set(snap["locator_sizes"])) == 1

    _assert_balanced(await _traffic(cluster))


async def _key_batch_across_groups(cluster):
    """A batch with duplicates enters at the root on ``pa`` and forks at
    ``p`` into groups for ``pb`` and ``pe``, hosted on ``pd`` and ``pg``
    in the other engine group: a ``DiscoveryBatch`` crosses between the
    groups, and every row is the key's single discovery."""
    assert group_of("pa", 2) != group_of("pd", 2) == group_of("pg", 2)
    for pid in ("pa", "pd", "pg", "pj", "pm", "pq"):
        await cluster.join(pid)
    for key in ("dgemm", "pb1", "pb2", "pe1", "pe2", "pk1"):
        await cluster.register(key)
    batch = ["pb1", "pe2", "pb1", "pb2", "pe1", "pk1", "dgemm", "nope", "pe2"]
    rows = await cluster.discover_many(batch)
    singles = [await cluster.discover(key) for key in batch]
    assert rows == singles
    assert [row["found"] for row in rows] == [key != "nope" for key in batch]
    assert [singles[i]["host"] for i in (0, 1, 6)] == ["pd", "pg", "pa"]
    _assert_balanced(await _traffic(cluster))


async def _crash_adoption_across_groups(cluster):
    for pid in ("pa", "pd", "pg", "pj"):
        await cluster.join(pid)
    await cluster.register("dgemm")
    victim = (await cluster.discover("dgemm"))["host"]
    assert victim == "pa"

    await cluster.crash(victim)
    assert victim not in cluster.live_ids()
    # r=1 successor replication: the key survives on the
    # successor.
    after = await cluster.discover("dgemm")
    assert after["found"] and after["host"] == "pd"

    _assert_balanced(await _traffic(cluster))


async def _leave_and_membership_errors(cluster):
    await cluster.join("pa")
    await cluster.join("pd")
    await cluster.leave("pd")
    assert cluster.live_ids() == ["pa"]
    with pytest.raises(ClusterError, match="not joined"):
        await cluster.leave("pd")
    with pytest.raises(ClusterError, match="not joined"):
        await cluster.crash("nobody")


async def _handler_error_fails_one_drain(cluster, error, match):
    for pid in ("pa", "pd", "pg", "pj"):
        await cluster.join(pid)
    await cluster.register("dgemm")
    # The backend API trusts its caller (the broker is the
    # admission boundary): an unhashable datum for an existing
    # key blows up in the hosting peer's handler — or in the
    # codec of the link towards it — without touching the tree.
    with pytest.raises(error, match=match):
        await cluster.register("dgemm", datum={"rich": [1]})
    await cluster.drain()
    for _ in range(2):  # one discovery issued from each group
        hit = await cluster.discover("dgemm")
        assert hit["found"] and hit["host"] == "pa"
    _assert_balanced(await _traffic(cluster))


async def _empty_tree_has_no_entry_node(cluster):
    with pytest.raises(ClusterError, match="no peers"):
        await cluster.register("too-early")
    await cluster.join("pa")
    assert await cluster.discover("anything") is None
    assert await cluster.search("prefix", "a") is None


@pytest.mark.net
class TestClusterLifecycle:
    def test_full_lifecycle_two_groups(self):
        _run(MultiProcessCluster(processes=2), _full_lifecycle)

    def test_crash_adoption_across_groups(self):
        _run(MultiProcessCluster(processes=2), _crash_adoption_across_groups)

    def test_a_key_batch_across_groups(self):
        _run(MultiProcessCluster(processes=2), _key_batch_across_groups)

    def test_leave_and_membership_errors(self):
        _run(MultiProcessCluster(processes=2), _leave_and_membership_errors)

    def test_control_rpc_errors_surface_as_cluster_error(self):
        async def body():
            cluster = MultiProcessCluster(processes=1)
            await cluster.start()
            try:
                with pytest.raises(ClusterError):
                    await cluster.call(0, "no-such-op")
                # The worker survives a failed RPC: the next succeeds.
                counters = await cluster.counters()
                assert counters[0]["ok"]
            finally:
                await cluster.close()

        asyncio.run(body())

    def test_worker_handler_error_fails_one_drain_not_the_cluster(self):
        """A handler exception inside a worker is handed to the
        coordinator and raised by exactly one drain; it used to stay in
        the worker's error list and fail every later operation."""
        _run(
            MultiProcessCluster(processes=2),
            _handler_error_fails_one_drain,
            ClusterError,
            "worker transport error",
        )

    def test_empty_tree_has_no_entry_node(self):
        _run(MultiProcessCluster(processes=1), _empty_tree_has_no_entry_node)


class TestInProcessLifecycle:
    """The group protocol without processes: the lifecycle above on two
    in-process groups (:class:`LocalCluster` over two socket
    transports) — placement, ``@sync`` replication, ``@client-g`` reply
    routing and cross-group frames, in tier-1."""

    def test_full_lifecycle_two_groups(self):
        _run(_two_groups(), _full_lifecycle)

    def test_crash_adoption_across_groups(self):
        _run(_two_groups(), _crash_adoption_across_groups)

    def test_a_key_batch_across_groups(self):
        _run(_two_groups(), _key_batch_across_groups)

    def test_leave_and_membership_errors(self):
        _run(_two_groups(), _leave_and_membership_errors)

    def test_a_handler_error_fails_one_drain_not_the_cluster(self):
        """In one process the error is the drain's own: the transport
        that caught it raises it once the whole ring is quiet."""
        _run(_two_groups(), _handler_error_fails_one_drain, TransportError, "during drain")

    def test_empty_tree_has_no_entry_node(self):
        _run(_two_groups(), _empty_tree_has_no_entry_node)


#: The counters every message a transport carries moves.
_TRAFFIC = ("sent", "delivered", "dropped", "dead_lettered", "frames_out", "frames_in")


@pytest.mark.net
class TestControlChannel:
    """Coordinator↔worker RPCs ride the pipe each worker is spawned with,
    never a transport: what the counters count is protocol traffic only,
    by construction rather than by an exempt endpoint-name prefix."""

    def test_control_rpcs_move_no_transport_counter(self):
        async def body():
            cluster = MultiProcessCluster(processes=2)
            await cluster.start()
            try:
                peers = ["pa", "pd", "pg", "pj"]
                assert len({group_of(p, 2) for p in peers}) == 2
                for pid in peers:
                    await cluster.join(pid)
                await cluster.register("dgemm")
                await cluster.drain()
                before = [{k: c[k] for k in _TRAFFIC} for c in await cluster.counters()]
                assert sum(c["frames_out"] for c in before) > 0  # links did carry traffic
                for i in range(100):
                    assert (await cluster.call(i % 2, "ping"))["pong"]
                for _ in range(20):
                    after = [{k: c[k] for k in _TRAFFIC} for c in await cluster.counters()]
                    assert after == before
            finally:
                await cluster.close()

        asyncio.run(body())

    def test_a_started_cluster_holds_no_task(self):
        """A channel is a protocol whose read callback settles the replies:
        the coordinator used to keep one reader task per worker."""

        async def body():
            cluster = MultiProcessCluster(processes=2)
            await cluster.start()
            try:
                for pid in ("pa", "pd"):
                    await cluster.join(pid)
                assert (await cluster.register("dgemm"))["host"] is not None
                assert asyncio.all_tasks() == {asyncio.current_task()}
            finally:
                await cluster.close()

        asyncio.run(body())

    def test_close_stops_the_workers_by_end_of_file(self):
        """``close()`` aborts the channels and lets the sockets close
        before it blocks in ``join``: every worker reads end-of-file and
        exits cleanly at once, instead of being terminated 5 s later."""

        async def body():
            cluster = MultiProcessCluster(processes=2)
            await cluster.start()
            procs = list(cluster._procs)
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            await cluster.close()
            assert loop.time() - t0 < 2.0
            assert [proc.exitcode for proc in procs] == [0, 0]

        asyncio.run(body())

    def test_a_worker_dying_before_its_address_fails_start_at_once(self, tmp_path, monkeypatch):
        """Nothing is polled for and no timeout is waited out: the dead
        worker's channel reaches end-of-file.  Provoked with a temp dir
        whose socket path cannot fit ``sun_path`` — only workers bind."""
        long_tmp = tmp_path / ("t" * 120)
        long_tmp.mkdir()
        monkeypatch.setenv("TMPDIR", str(long_tmp))
        monkeypatch.setattr("repro.net.procgroup.RPC_TIMEOUT", 60.0)

        async def body():
            cluster = MultiProcessCluster(processes=2)
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            try:
                with pytest.raises(ClusterError, match=r"worker \d died during startup"):
                    await cluster.start()
                assert loop.time() - t0 < 10.0
            finally:
                await cluster.close()
            assert cluster._procs == []

        asyncio.run(body())


async def _await_recovery(cluster, timeout=15.0):
    """Poll until the supervisor has completed at least one recovery."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if cluster.recoveries >= 1 and not cluster._recovering:
            return
        await asyncio.sleep(0.05)
    raise AssertionError(
        f"supervisor never recovered: recoveries={cluster.recoveries} "
        f"recovering={cluster._recovering} errors={cluster.supervisor_errors}"
    )


@pytest.mark.net
class TestSupervision:
    """Fail-stop worker crashes under the heartbeat supervisor.

    These are the end-to-end halves of the chaos acceptance criteria: a
    SIGKILLed worker is detected within the heartbeat timeout, its peers
    are journaled as crashed and adopted by ring successors, every acked
    registration survives the rebuild, and the counter invariant holds
    at the post-recovery quiescence point.
    """

    PEERS = ["pa", "pd", "pg", "pj", "pm", "pq"]
    KEYS = ["dgemm", "sgemm", "zherk"]

    @pytest.fixture(autouse=True)
    def _fast_heartbeat(self, monkeypatch):
        monkeypatch.setattr("repro.net.procgroup.HEARTBEAT_INTERVAL", 0.1)
        monkeypatch.setattr("repro.net.procgroup.HEARTBEAT_TIMEOUT", 1.0)

    def test_supervisor_replaces_a_sigkilled_worker(self, tmp_path):
        async def body():
            journal = RegistryJournal(str(tmp_path / "registry.jsonl"))
            cluster = MultiProcessCluster(processes=2, supervise=True, journal=journal)
            await cluster.start()
            try:
                assert len({group_of(p, 2) for p in self.PEERS}) == 2
                for pid in self.PEERS:
                    await cluster.join(pid)
                    # The cluster API leaves journaling of joins to the
                    # serving layer (the Broker); mirror it here so
                    # the crash events have a membership to subtract from.
                    journal.record("join", pid, 10)
                for key in self.KEYS:
                    record = await cluster.register(key)
                    assert record["host"] is not None  # acked, ledgered

                victim_group = group_of(self.PEERS[-1], 2)
                os.kill(cluster._procs[victim_group].pid, signal.SIGKILL)
                await _await_recovery(cluster)

                assert cluster.supervisor_errors == []
                lost = [p for p in self.PEERS if group_of(p, 2) == victim_group]
                assert lost, "the victim group must have owned peers"
                assert set(cluster.crashed_peers) == set(lost)
                assert cluster.live_ids() == sorted(set(self.PEERS) - set(lost))
                # Satellite: the journal replays to the *post-adoption*
                # membership — one ``crash`` event per lost peer.
                assert journal.replay() == {p: 10 for p in cluster.live_ids()}
                # No acked registration is lost (r=1 successor adoption +
                # ledger replay).
                for key in self.KEYS:
                    hit = await cluster.discover(key)
                    assert hit["found"], key
                _assert_balanced(await cluster.counters())
            finally:
                await cluster.close()
                journal.close()

        asyncio.run(body())

    def test_kill_mid_flood_recovers(self, monkeypatch):
        monkeypatch.setattr("repro.net.procgroup.RPC_TIMEOUT", 2.0)  # dead-worker RPCs must fail fast

        async def body():
            cluster = MultiProcessCluster(processes=2, supervise=True)
            await cluster.start()
            try:
                for pid in self.PEERS:
                    await cluster.join(pid)
                for key in self.KEYS:
                    await cluster.register(key)

                async def flood():
                    loop = asyncio.get_running_loop()
                    deadline = loop.time() + 30.0
                    results = []
                    for i in range(40):
                        key = self.KEYS[i % len(self.KEYS)]
                        while True:
                            try:
                                results.append(await cluster.discover(key))
                                break
                            except (
                                ClusterRecovering,
                                ClusterError,
                                TransportError,
                                asyncio.TimeoutError,
                            ):
                                if loop.time() > deadline:
                                    raise
                                await asyncio.sleep(0.1)
                        await asyncio.sleep(0.02)
                    return results

                task = asyncio.create_task(flood())
                await asyncio.sleep(0.1)
                os.kill(cluster._procs[0].pid, signal.SIGKILL)
                results = await task
                await _await_recovery(cluster)

                assert cluster.supervisor_errors == []
                assert len(results) == 40
                assert all(r["found"] for r in results)
                _assert_balanced(await cluster.counters())
            finally:
                await cluster.close()

        asyncio.run(body())
