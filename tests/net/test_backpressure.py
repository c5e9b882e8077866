"""Broker backpressure/fairness/idempotency and client retry policy.

Tier-1 halves: the broker's bounded inbox, per-client round-robin and
correlation-id idempotency over the loopback transport, the
``RegistryJournal`` persistence format, and the ``DLPTClient``
timeout/retry/backoff machinery against a scripted broker on a socket
pair.  The ``net``-marked flood test drives a real served cluster with
more concurrent RPCs than the inbox admits and proves the accounting:
bounded ``max_pending``, and every request either served or *explicitly*
rejected — never silently lost.
"""

from __future__ import annotations

import asyncio
import gc
import socket

import pytest

from repro.dlpt.protocol import ProtocolEngine
from repro.net.asyncio_transport import LoopbackAsyncioTransport
from repro.net.bootstrap import (
    BROKER_ENDPOINT,
    REGISTRY_SCHEMA,
    Broker,
    RegistryJournal,
)
from repro.net.client import (
    DLPTClient,
    DLPTClientBusy,
    DLPTClientError,
    DLPTClientTimeout,
)
from repro.net.cluster import LocalCluster
from repro.net.procgroup import MultiProcessCluster
from repro.net.serve import start_cluster
from repro.net.wire import FrameReader, encode_frame

pytestmark = pytest.mark.asyncio


class _RawClient:
    """Sends broker requests over the loopback transport without waiting,
    so the inbox can be filled synchronously (the serve loop never runs
    between sends)."""

    def __init__(self, transport, endpoint, order=None):
        self.transport = transport
        self.endpoint = endpoint
        self.replies = []
        self._order = order
        transport.register(endpoint, self._on_reply)

    def _on_reply(self, env):
        self.replies.append(env.payload)
        if self._order is not None:
            self._order.append((self.endpoint, env.payload.get("id")))

    def send(self, rid, **body):
        body.update(id=rid, reply_to=self.endpoint)
        self.transport.send(self.endpoint, BROKER_ENDPOINT, body)

    async def settle(self, n, spins=20_000):
        for _ in range(spins):
            if len(self.replies) >= n:
                return
            await asyncio.sleep(0)
        raise AssertionError(
            f"{self.endpoint}: {len(self.replies)}/{n} replies after {spins} spins"
        )


async def _broker(**kwargs):
    transport = LoopbackAsyncioTransport()
    await transport.start()
    engine = ProtocolEngine(transport=transport)
    broker = Broker(LocalCluster(engine), transport, **kwargs)
    await broker.start()
    engine.bootstrap_peer("pm", 10)
    await transport.drain()
    return transport, engine, broker


class TestBoundedInbox:
    def test_over_capacity_requests_get_busy_replies(self):
        async def body():
            transport, engine, broker = await _broker(
                inbox_limit=2, retry_after=0.125
            )
            client = _RawClient(transport, "@flood")
            for rid in range(1, 6):  # 5 sends, limit 2: 3 must bounce
                client.send(rid, op="info")
            await client.settle(5)
            busy = [r for r in client.replies if r.get("busy")]
            served = [r for r in client.replies if r.get("ok")]
            assert len(busy) == 3 and len(served) == 2
            for reply in busy:
                assert reply["ok"] is False
                assert reply["retry_after"] == 0.125
                assert "busy" in reply["error"]
            assert broker.requests_rejected == 3
            assert broker.max_pending <= 2
            # Accounting: nothing vanished.
            assert broker.requests_served + broker.requests_rejected == 5
            await broker.close()
            await transport.close()

        asyncio.run(body())

    def test_rejected_request_succeeds_on_retry(self):
        async def body():
            transport, engine, broker = await _broker(inbox_limit=1)
            client = _RawClient(transport, "@retrier")
            client.send(1, op="info")
            client.send(2, op="info")  # bounced: inbox already holds rid 1
            await client.settle(2)
            assert any(r.get("busy") and r["id"] == 2 for r in client.replies)
            client.send(2, op="info")  # same correlation id, retried later
            await client.settle(3)
            final = [r for r in client.replies if r["id"] == 2 and r.get("ok")]
            assert len(final) == 1
            await broker.close()
            await transport.close()

        asyncio.run(body())


class TestFairness:
    def test_round_robin_across_clients(self):
        """A flooding client's queue is interleaved with everyone else's:
        service order alternates between clients, oldest-first within one."""

        async def body():
            transport, engine, broker = await _broker()
            order = []
            hog = _RawClient(transport, "@hog", order)
            meek = _RawClient(transport, "@meek", order)
            for rid in range(1, 5):
                hog.send(rid, op="info")
            meek.send(1, op="info")
            meek.send(2, op="info")
            await hog.settle(4)
            await meek.settle(2)
            assert order == [
                ("@hog", 1),
                ("@meek", 1),
                ("@hog", 2),
                ("@meek", 2),
                ("@hog", 3),
                ("@hog", 4),
            ]
            await broker.close()
            await transport.close()

        asyncio.run(body())


class TestIdempotentRetry:
    def test_duplicate_of_queued_request_is_absorbed(self):
        async def body():
            transport, engine, broker = await _broker()
            client = _RawClient(transport, "@dup")
            client.send(1, op="register", key="dgemm")
            client.send(1, op="register", key="dgemm")  # retransmit, same id
            await client.settle(1)
            await asyncio.sleep(0.02)  # a second reply would land by now
            assert len(client.replies) == 1 and client.replies[0]["ok"]
            assert broker.duplicates_absorbed == 1
            assert broker.requests_served == 1  # the op ran exactly once
            await broker.close()
            await transport.close()

        asyncio.run(body())

    def test_duplicate_of_completed_request_reuses_cached_reply(self):
        async def body():
            transport, engine, broker = await _broker()
            client = _RawClient(transport, "@late")
            client.send(7, op="register", key="dgemv")
            await client.settle(1)
            client.send(7, op="register", key="dgemv")  # late retry
            await client.settle(2)
            assert client.replies[0] == client.replies[1]
            assert broker.duplicates_absorbed == 1
            assert broker.requests_served == 1
            # The key was inserted once, not twice.
            host = engine.locator["dgemv"]
            assert engine.peers[host].nodes["dgemv"].data == {"dgemv"}
            await broker.close()
            await transport.close()

        asyncio.run(body())

    def test_completed_cache_is_bounded(self):
        async def body():
            transport, engine, broker = await _broker()
            client = _RawClient(transport, "@many")
            n = Broker.COMPLETED_CACHE + 10
            for rid in range(1, n + 1):
                client.send(rid, op="info")
                if rid % 32 == 0:
                    await client.settle(rid)
            await client.settle(n)
            assert len(broker._completed) == Broker.COMPLETED_CACHE
            await broker.close()
            await transport.close()

        asyncio.run(body())


class _GatedBackend:
    """A backend whose reads wait on ``gate``, a future the test settles."""

    RETRYABLE_ERRORS = ()

    def __init__(self):
        self.gate = asyncio.get_running_loop().create_future()
        self.batches = []

    async def discover_many(self, keys, via=None):
        self.batches.append(list(keys))
        await self.gate
        return [{"key": key, "found": False, "data": [], "hops": 0} for key in keys]


async def _gated_broker():
    transport = LoopbackAsyncioTransport()
    await transport.start()
    backend = _GatedBackend()
    broker = Broker(backend, transport)
    await broker.start()
    return transport, backend, broker


async def _turns(n=3):
    for _ in range(n):
        await asyncio.sleep(0)


def _other_tasks():
    return asyncio.all_tasks() - {asyncio.current_task()}


async def _replied(client, n, within=5.0):
    """Wait, in wall-clock time, until ``client`` holds ``n`` replies."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + within
    while len(client.replies) < n:
        assert loop.time() < deadline, f"{len(client.replies)}/{n} replies after {within}s"
        await asyncio.sleep(0.005)


async def _wait_for_gate(gate, delay):
    await asyncio.wait_for(gate, delay)


async def _timeout_gate(gate, delay):
    async with asyncio.timeout(delay):
        await gate


class _TimedOutBackend:
    """A backend whose reads wait, under ``wait``'s timeout, on a gate
    nobody settles — after one suspension, so the timeout is armed inside
    the broker's task (``asyncio.timeout``, and ``wait_for`` from 3.12 on,
    cancel the current task when they fire)."""

    RETRYABLE_ERRORS = ()

    def __init__(self, wait):
        self.wait = wait

    async def discover_many(self, keys, via=None):
        await asyncio.sleep(0)
        await self.wait(asyncio.get_running_loop().create_future(), 0.05)


class _ClosedChannel:
    def is_closing(self):
        return True


class _SilentWorkerBackend:
    """A backend whose reads are one control RPC to a worker that never
    answers, awaited at once — in the transport's idle callback."""

    RETRYABLE_ERRORS = MultiProcessCluster.RETRYABLE_ERRORS

    def __init__(self):
        self.cluster = MultiProcessCluster(1, rpc_timeout=0.05)
        self.cluster._channels = [_ClosedChannel()]
        self.current_tasks = []

    async def discover_many(self, keys, via=None):
        self.current_tasks.append(asyncio.current_task())
        return (await self.cluster.call(0, "discover_many", keys=keys))["rows"]


async def _broker_over(backend):
    transport = LoopbackAsyncioTransport()
    await transport.start()
    broker = Broker(backend, transport)
    await broker.start()
    return transport, broker


class TestServiceThatMustWait:
    """The broker serves in the transport's idle callback and holds a task
    only while a service waits; what is admitted meanwhile queues behind
    that task and is served by it."""

    @pytest.mark.filterwarnings("error")
    def test_requests_queue_behind_it_and_are_served_in_rotation(self):
        async def body():
            transport, backend, broker = await _gated_broker()
            order = []
            a, b, c = (_RawClient(transport, f"@{name}", order) for name in "abc")
            a.send(1, op="discover", key="k1")
            await _turns()
            assert backend.batches == [["k1"]]
            assert broker._task is not None and _other_tasks() == {broker._task}
            b.send(1, op="discover", key="k2")
            c.send(1, op="discover", key="k3")
            await _turns()
            assert backend.batches == [["k1"]] and broker.pending == 2
            assert _other_tasks() == {broker._task}
            backend.gate.set_result(None)
            await c.settle(1)
            assert order == [("@a", 1), ("@b", 1), ("@c", 1)]
            assert backend.batches == [["k1"], ["k2", "k3"]]
            replies = a.replies + b.replies + c.replies
            assert [reply["key"] for reply in replies] == ["k1", "k2", "k3"]
            assert broker._task is None and not _other_tasks()
            await broker.close()
            await transport.close()

        asyncio.run(body())

    @pytest.mark.filterwarnings("error")
    def test_close_ends_a_suspended_service_cleanly(self):
        async def body():
            reported = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context)
            )
            transport, backend, broker = await _gated_broker()
            client = _RawClient(transport, "@a")
            client.send(1, op="discover", key="k1")
            await _turns()
            assert broker._task is not None
            await broker.close()
            assert broker._task is None and not _other_tasks()
            assert backend.gate.cancelled() and client.replies == []
            await transport.close()
            gc.collect()
            await _turns()
            assert reported == []

        asyncio.run(body())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "wait",
        [
            pytest.param(_wait_for_gate, id="wait_for"),
            pytest.param(
                _timeout_gate,
                id="timeout",
                marks=pytest.mark.skipif(
                    not hasattr(asyncio, "timeout"), reason="asyncio.timeout is new in 3.11"
                ),
            ),
        ],
    )
    def test_a_timeout_inside_it_fails_the_request_not_the_broker(self, wait):
        """The timeout cancels the broker's task; that cancellation must
        reach the service at its await and come out as the request's
        ``TimeoutError``.  Closing the service instead left the request
        unanswered and its id in flight, so every retry was absorbed."""

        async def body():
            transport, broker = await _broker_over(_TimedOutBackend(wait))
            client = _RawClient(transport, "@a")
            client.send(1, op="discover", key="k1")
            await _replied(client, 1)
            (reply,) = client.replies
            assert reply["ok"] is False and reply["error"].startswith("TimeoutError")
            client.send(1, op="discover", key="k1")  # a retry: the same reply
            await _replied(client, 2)
            assert client.replies[1] == reply
            client.send(2, op="discover", key="k2")  # served afresh
            await _replied(client, 3)
            assert client.replies[2]["error"].startswith("TimeoutError")
            assert broker._task is None and not _other_tasks()
            await broker.close()
            await transport.close()

        asyncio.run(body())

    @pytest.mark.filterwarnings("error")
    def test_a_control_rpc_needs_no_current_task(self):
        """A multi-process read is a control RPC awaited in the idle
        callback, where no task is current: a worker that never answers
        times out into a retryable reply, not a ``RuntimeError``."""

        async def body():
            backend = _SilentWorkerBackend()
            transport, broker = await _broker_over(backend)
            client = _RawClient(transport, "@a")
            client.send(1, op="discover", key="k1")
            await _replied(client, 1)
            client.send(1, op="discover", key="k1")  # busy is not cached: re-served
            await _replied(client, 2)
            assert backend.current_tasks == [None, None]
            for reply in client.replies:
                assert reply["busy"] and reply["error"].startswith("retry: TimeoutError")
            assert backend.cluster._pending == {}
            assert broker._task is None and not _other_tasks()
            await broker.close()
            await transport.close()

        asyncio.run(body())


class TestRegistryJournal:
    def test_replay_folds_membership(self, tmp_path):
        journal = RegistryJournal(str(tmp_path / "reg.jsonl"))
        journal.record("join", "pa", 10)
        journal.record("join", "pb", 5)
        journal.record("join", "pc", 7)
        journal.record("leave", "pb")
        journal.record("crash", "pc")
        journal.record("join", "pd", 3)
        journal.close()
        assert journal.replay() == {"pa": 10, "pd": 3}

    def test_successor_oracle_matches_live_rule(self, tmp_path):
        journal = RegistryJournal(str(tmp_path / "reg.jsonl"))
        for pid in ("pd", "pm", "pt"):
            journal.record("join", pid, 10)
        journal.close()
        assert journal.successor_of("pa") == "pd"
        assert journal.successor_of("pd") == "pd"
        assert journal.successor_of("pe") == "pm"
        assert journal.successor_of("pz") == "pd"  # wraps to the minimum

    def test_missing_file_is_empty_membership(self, tmp_path):
        journal = RegistryJournal(str(tmp_path / "never-written.jsonl"))
        assert journal.replay() == {}
        assert journal.successor_of("pa") is None

    @pytest.mark.parametrize(
        "line, needle",
        [
            ("{not json", "not JSON"),
            ('{"v": "other/1", "op": "join", "peer": "pa"}', "schema"),
            (
                '{"v": "%s", "op": "explode", "peer": "pa"}' % REGISTRY_SCHEMA,
                "unknown op",
            ),
            ("[1, 2]", "not a JSON object"),
            ('{"v": "%s", "op": "join", "capacity": 3}' % REGISTRY_SCHEMA, "'peer'"),
            ('{"v": "%s", "op": "leave", "peer": 7}' % REGISTRY_SCHEMA, "'peer'"),
            ('{"v": "%s", "op": "join", "peer": "pa", "capacity": 0}' % REGISTRY_SCHEMA, "'capacity'"),
            (
                '{"v": "%s", "op": "join", "peer": "pa", "capacity": true}' % REGISTRY_SCHEMA,
                "'capacity'",
            ),
        ],
    )
    def test_corruption_fails_loudly(self, tmp_path, line, needle):
        path = tmp_path / "reg.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=needle) as caught:
            RegistryJournal(str(path)).replay()
        assert str(caught.value).startswith(f"{path}:1: ")

    def test_broker_records_membership_changes(self, tmp_path):
        async def body():
            path = str(tmp_path / "reg.jsonl")
            transport, engine, broker = await _broker(
                journal=RegistryJournal(path)
            )
            client = _RawClient(transport, "@member")
            client.send(1, op="peer_join", peer="px", capacity=4)
            await client.settle(1)
            client.send(2, op="peer_leave", peer="px")
            await client.settle(2)
            await broker.close()
            await transport.close()
            recovered = RegistryJournal(path)
            assert recovered.replay() == {}
            lines = open(path).read().splitlines()
            assert len(lines) == 2  # join then leave, both flushed

        asyncio.run(body())


class _ScriptedBroker:
    """The broker half of a socket pair, answering per a scripted policy.

    ``script`` maps the 1-based arrival ordinal of each *frame* to a
    behaviour: ``"ok"`` (correlated success), ``"busy"`` (backpressure
    reply), ``"error"`` (definitive failure), ``"drop"`` (no answer).
    """

    def __init__(self, reader, writer, script, default="ok"):
        self.reader = reader
        self.writer = writer
        self.script = script
        self.default = default
        self.frames = []  # every request envelope seen, in order
        self.task = asyncio.get_event_loop().create_task(self._run())

    async def _run(self):
        frames = FrameReader()
        while True:
            chunk = await self.reader.read(1 << 16)
            if not chunk:
                return
            for env in frames.feed(chunk):
                self.frames.append(env)
                action = self.script.get(len(self.frames), self.default)
                rid = env.payload.get("id")
                if action == "drop":
                    continue
                if action == "ok":
                    reply = {"id": rid, "ok": True, "echo": env.payload.get("op")}
                elif action == "busy":
                    reply = {
                        "id": rid,
                        "ok": False,
                        "busy": True,
                        "error": "busy: broker inbox full",
                        "retry_after": 0.01,
                    }
                else:
                    reply = {"id": rid, "ok": False, "error": "kaboom"}
                self.writer.write(
                    encode_frame(BROKER_ENDPOINT, env.src, reply)
                )

    async def close(self):
        self.task.cancel()
        await asyncio.gather(self.task, return_exceptions=True)
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _client_pair(script, default="ok", **policy):
    left, right = socket.socketpair()
    c_reader, c_writer = await asyncio.open_connection(sock=left)
    b_reader, b_writer = await asyncio.open_connection(sock=right)
    server = _ScriptedBroker(b_reader, b_writer, script, default)
    client = DLPTClient(c_reader, c_writer, "@client-test", **policy)
    return client, server


class TestClientPolicy:
    def test_construction_outside_a_running_loop_raises(self):
        """The client binds the *running* loop (its reader task lives on
        it); there is no silently-created or wrong loop to bind instead."""
        with pytest.raises(RuntimeError, match="no running event loop"):
            DLPTClient(None, None, "@client-test")

    def test_default_policy_is_bare(self):
        async def body():
            client, server = await _client_pair({})
            try:
                assert client.timeout is None and client.retries == 0
                reply = await client.info()
                assert reply["ok"] and reply["echo"] == "info"
                assert len(server.frames) == 1
            finally:
                await client.close()
                await server.close()

        asyncio.run(body())

    def test_busy_reply_without_retries_raises(self):
        async def body():
            client, server = await _client_pair({1: "busy"})
            try:
                with pytest.raises(DLPTClientBusy) as err:
                    await client.info()
                assert err.value.retry_after == 0.01
            finally:
                await client.close()
                await server.close()

        asyncio.run(body())

    def test_busy_then_served_on_retry(self):
        async def body():
            client, server = await _client_pair(
                {1: "busy", 2: "busy"}, retries=3, backoff=0.001
            )
            try:
                reply = await client.info()
                assert reply["ok"]
                assert client.busy_rejections == 2
                # Every attempt reused the same correlation id.
                rids = {f.payload["id"] for f in server.frames}
                assert len(server.frames) == 3 and len(rids) == 1
            finally:
                await client.close()
                await server.close()

        asyncio.run(body())

    def test_busy_retries_exhausted_raises_busy(self):
        async def body():
            client, server = await _client_pair(
                {}, default="busy", retries=2, backoff=0.001
            )
            try:
                with pytest.raises(DLPTClientBusy):
                    await client.info()
                assert len(server.frames) == 3  # 1 attempt + 2 retries
                assert client.busy_rejections == 3
            finally:
                await client.close()
                await server.close()

        asyncio.run(body())

    def test_timeout_retries_same_correlation_id(self):
        async def body():
            client, server = await _client_pair(
                {1: "drop"}, timeout=0.05, retries=2
            )
            try:
                reply = await client.info()
                assert reply["ok"]
                assert client.timeouts == 1
                rids = {f.payload["id"] for f in server.frames}
                assert len(server.frames) == 2 and len(rids) == 1
            finally:
                await client.close()
                await server.close()

        asyncio.run(body())

    def test_timeout_exhausted_raises_timeout(self):
        async def body():
            client, server = await _client_pair(
                {}, default="drop", timeout=0.02, retries=1
            )
            try:
                with pytest.raises(DLPTClientTimeout, match="timed out"):
                    await client.info()
                assert len(server.frames) == 2
                assert client.timeouts == 2
            finally:
                await client.close()
                await server.close()

        asyncio.run(body())

    def test_definitive_error_is_not_retried(self):
        async def body():
            client, server = await _client_pair(
                {1: "error"}, timeout=1.0, retries=5
            )
            try:
                with pytest.raises(DLPTClientError, match="kaboom"):
                    await client.info()
                assert len(server.frames) == 1  # no retry on a real error
            finally:
                await client.close()
                await server.close()

        asyncio.run(body())

    def test_late_original_reply_settles_the_retry(self):
        """A reply that arrives after the timeout fired (the 'original'
        finally answered) settles the in-flight retried attempt: same
        correlation id, one result, no crash."""

        async def body():
            client, server = await _client_pair(
                {1: "drop", 2: "ok"}, timeout=0.05, retries=3
            )
            try:
                reply = await client.info()
                assert reply["ok"]
            finally:
                await client.close()
                await server.close()

        asyncio.run(body())


@pytest.mark.net
class TestFloodOverSocket:
    """The acceptance flood: more concurrent RPCs than the inbox admits,
    against a real served cluster over a Unix socket."""

    def test_bounded_inbox_and_no_lost_rpcs(self):
        async def body():
            limit = 8
            transport, engine, broker = await start_cluster(
                4, inbox_limit=limit, retry_after=0.01
            )
            bare = await DLPTClient.connect(transport.address)
            resilient = await DLPTClient.connect(
                transport.address, timeout=5.0, retries=50, backoff=0.01
            )
            try:
                # Seed the tree so discovers have an entry node.
                assert (await bare.register("seed"))["ok"]
                # A bare client floods: every RPC either resolves or fails
                # with an *explicit* busy error — none hang, none vanish.
                flood = [bare.discover(f"k{i}") for i in range(64)]
                settled = await asyncio.gather(*flood, return_exceptions=True)
                served = [r for r in settled if isinstance(r, dict)]
                bounced = [r for r in settled if isinstance(r, DLPTClientBusy)]
                assert len(served) + len(bounced) == 64
                assert len(bounced) == broker.requests_rejected > 0
                assert broker.max_pending <= limit
                # A resilient client flooding the same broker loses nothing:
                # busy replies are retried until served.
                storm = [resilient.discover(f"r{i}") for i in range(32)]
                rows = await asyncio.gather(*storm)
                assert all(row["ok"] for row in rows)
                assert broker.max_pending <= limit
            finally:
                await bare.close()
                await resilient.close()
                await broker.close()
                await transport.close()

        asyncio.run(body())
