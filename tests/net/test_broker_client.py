"""Broker RPC semantics (tier-1, loopback) and the socket client (net)."""

from __future__ import annotations

import asyncio
import contextlib

import pytest

from repro.net.asyncio_transport import AsyncioTransport, LoopbackAsyncioTransport
from repro.net.bootstrap import BROKER_ENDPOINT, Broker, RegistryJournal
from repro.net.client import DLPTClient, DLPTClientError
from repro.net.cluster import LocalCluster, admission, successor_of
from repro.net.procgroup import MultiProcessCluster
from repro.net.serve import start_cluster

pytestmark = pytest.mark.asyncio


class TestBootstrapRegistry:
    def test_successor_is_lowest_id_at_or_after(self):
        async def body():
            transport = LoopbackAsyncioTransport()
            await transport.start()
            registry = LocalCluster(transport)
            engine = registry.engine
            engine.bootstrap_peer("m", 10)
            await transport.drain()
            for pid in ("d", "t"):
                engine.join_peer(pid, 10, seed=successor_of(registry.live_ids(), pid))
                await transport.drain()
            ids = registry.live_ids()
            assert ids == ["d", "m", "t"]
            assert successor_of(ids, "a") == "d"
            assert successor_of(ids, "d") == "d"
            assert successor_of(ids, "e") == "m"
            assert successor_of(ids, "z") == "d"  # wraps to the minimum
            admitted = admission(registry.live_ids(), "e")
            assert admitted["successor"] == "m"
            assert admitted["seeds"][0] == "m"
            await transport.close()

        asyncio.run(body())

    def test_seeded_join_is_one_message(self):
        """The registry's whole point: a seeded join costs O(1) messages
        instead of an O(ring) NewPredecessor walk."""

        async def body():
            transport = LoopbackAsyncioTransport()
            await transport.start()
            registry = LocalCluster(transport)
            engine = registry.engine
            for pid in ("ba", "bc", "be", "bg", "bi", "bk", "bm", "bo"):
                if not engine.peers:
                    engine.bootstrap_peer(pid, 10)
                else:
                    engine.join_peer(pid, 10, seed=successor_of(registry.live_ids(), pid))
                await transport.drain()
            engine.check_ring()
            before = transport.messages_sent
            engine.join_peer("bb", 10, seed=successor_of(registry.live_ids(), "bb"))
            await transport.drain()
            engine.check_ring()
            # NewPredecessor to the successor + YourInformation back +
            # UpdateSuccessor to the predecessor: constant, ring-size-free.
            assert transport.messages_sent - before <= 4
            assert engine.peers["bb"].succ == "bc"
            await transport.close()

        asyncio.run(body())


class _LoopbackClient:
    """A minimal in-process stand-in for DLPTClient: same RPC payloads,
    delivered through the loopback transport instead of a socket."""

    def __init__(self, transport, endpoint="@test-client"):
        self.transport = transport
        self.endpoint = endpoint
        self.replies = []
        self._next_id = 1
        transport.register(endpoint, lambda env: self.replies.append(env.payload))

    async def call(self, **body):
        rid, self._next_id = self._next_id, self._next_id + 1
        body.update(id=rid, reply_to=self.endpoint)
        self.transport.send(self.endpoint, BROKER_ENDPOINT, body)
        # Bare yields first (loopback answers within a few), then real
        # sleeps so a multi-process backend's workers get the CPU.
        for spin in range(40_000):
            for reply in self.replies:
                if reply.get("id") == rid:
                    return reply
            await asyncio.sleep(0 if spin < 10_000 else 0.001)
        raise AssertionError(f"no reply for request {rid}")


#: Malformed arguments, each with the field the error reply must name.
_MALFORMED = [
    (dict(op="register", key=None), "key"),
    (dict(op="register", key=5), "key"),
    (dict(op="register"), "key"),
    (dict(op="discover", key=["dgemm"]), "key"),
    (dict(op="discover_batch", keys="dge"), "keys"),
    (dict(op="discover_batch", keys=["dgemm", 7]), "keys"),
    (dict(op="search", kind="prefix", lo=None), "lo"),
    (dict(op="search", kind="range", lo="a", hi=5), "hi"),
    (dict(op="search", kind=7, lo="a"), "kind"),
    (dict(op="peer_join", peer="", capacity=10), "peer"),
    (dict(op="peer_join", peer=None, capacity=10), "peer"),
    (dict(op="peer_join", peer="px", capacity=0), "capacity"),
    (dict(op="peer_join", peer="px", capacity=True), "capacity"),
    (dict(op="peer_join", peer="px", capacity="10"), "capacity"),
    (dict(op="peer_leave", peer=None), "peer"),
]


class TestBrokerLoopback:
    async def _cluster(self, journal=None):
        transport = LoopbackAsyncioTransport()
        await transport.start()
        cluster = LocalCluster(transport)
        engine = cluster.engine
        broker = Broker(cluster, transport, journal=journal)
        await broker.start()
        for pid in ("pa", "pd", "pg", "pj"):
            reply = await _LoopbackClient(transport, f"@adm-{pid}").call(
                op="peer_join", peer=pid, capacity=10
            )
            assert reply["ok"], reply
        engine.check_ring()
        return transport, engine, broker

    def test_register_then_discover(self):
        async def body():
            transport, engine, broker = await self._cluster()
            client = _LoopbackClient(transport)
            reply = await client.call(op="register", key="dgemm", datum=42)
            assert reply["ok"] and reply["key"] == "dgemm"
            assert reply["host"] == engine.locator["dgemm"]
            hit = await client.call(op="discover", key="dgemm")
            assert hit["ok"] and hit["found"] and hit["data"] == [42]
            assert hit["host"] == reply["host"]
            miss = await client.call(op="discover", key="nope")
            assert miss["ok"] and not miss["found"]
            await broker.close()
            await transport.close()

        asyncio.run(body())

    def test_discover_batch_keeps_request_order(self):
        async def body():
            transport, engine, broker = await self._cluster()
            client = _LoopbackClient(transport)
            keys = ["ga", "da", "pa", "da"]  # duplicates allowed
            for key in set(keys):
                assert (await client.call(op="register", key=key))["ok"]
            reply = await client.call(op="discover_batch", keys=keys)
            assert reply["ok"]
            assert [row["key"] for row in reply["results"]] == keys
            assert all(row["found"] for row in reply["results"])
            await broker.close()
            await transport.close()

        asyncio.run(body())

    def test_info_and_peer_leave(self):
        async def body():
            transport, engine, broker = await self._cluster()
            client = _LoopbackClient(transport)
            assert (await client.call(op="register", key="abc"))["ok"]
            info = await client.call(op="info")
            assert info["peers"] == 4 and info["keys"] == ["abc"]
            left = await client.call(op="peer_leave", peer="pd")
            assert left["ok"] and left["peers"] == 3
            engine.check_ring()
            still = await client.call(op="discover", key="abc")
            assert still["found"]
            await broker.close()
            await transport.close()

        asyncio.run(body())

    def test_search_prefix_and_range(self):
        async def body():
            transport, engine, broker = await self._cluster()
            client = _LoopbackClient(transport)
            for key in ("dgemm", "dgemv", "dgetrf", "ggen", "pal"):
                assert (await client.call(op="register", key=key))["ok"]
            hit = await client.call(op="search", kind="prefix", lo="dge")
            assert hit["ok"] and hit["keys"] == ["dgemm", "dgemv", "dgetrf"]
            assert hit["hops"] >= 0
            band = await client.call(
                op="search", kind="range", lo="dgemv", hi="ggen"
            )
            assert band["ok"] and band["keys"] == ["dgemv", "dgetrf", "ggen"]
            empty = await client.call(op="search", kind="prefix", lo="zz")
            assert empty["ok"] and empty["keys"] == []
            await broker.close()
            await transport.close()

        asyncio.run(body())

    def test_bad_search_is_an_error_reply(self):
        async def body():
            transport, engine, broker = await self._cluster()
            client = _LoopbackClient(transport)
            assert (await client.call(op="register", key="dgemm"))["ok"]
            bad_kind = await client.call(op="search", kind="glob", lo="d*")
            assert not bad_kind["ok"] and "kind" in bad_kind["error"]
            bad_range = await client.call(op="search", kind="range", lo="z", hi="a")
            assert not bad_range["ok"] and "empty range" in bad_range["error"]
            # The broker survives rejected queries and keeps serving.
            again = await client.call(op="search", kind="prefix", lo="dg")
            assert again["ok"] and again["keys"] == ["dgemm"]
            await broker.close()
            await transport.close()

        asyncio.run(body())

    @pytest.mark.parametrize(
        "request_body, field",
        _MALFORMED,
        ids=[f"{body['op']}:{field}={body.get(field)!r}" for body, field in _MALFORMED],
    )
    def test_malformed_arguments_are_refused_not_coerced(self, tmp_path, request_body, field):
        """Outside input is validated at the broker: the error names the
        field, the backend is never called (tree, membership and journal
        untouched) and the same endpoint keeps getting service.  Coercion
        acked ``key=None`` as the key ``"None"``, looked ``keys="dge"`` up
        as ``d``, ``g``, ``e`` and admitted (and journaled) a peer of
        capacity 0."""

        async def body():
            path = tmp_path / "registry.jsonl"
            transport, engine, broker = await self._cluster(RegistryJournal(str(path)))
            client = _LoopbackClient(transport)
            assert (await client.call(op="register", key="dgemm"))["ok"]
            before, journaled = await client.call(op="info"), path.read_text()
            bad = await client.call(**request_body)
            assert not bad["ok"] and repr(field) in bad["error"], bad
            after = await client.call(op="info")
            for name in ("peers", "nodes", "keys"):
                assert after[name] == before[name], name
            assert path.read_text() == journaled
            hit = await client.call(op="discover", key="dgemm")
            assert hit["ok"] and hit["found"]
            await broker.close()
            await transport.close()

        asyncio.run(body())

    @pytest.mark.parametrize(
        "envelope, field, answered_over",
        [
            (dict(op="info", id=[1, 2], reply_to="@a"), "id", "@a"),
            (dict(op="info", id={"n": 1}, reply_to="@a"), "id", "@a"),
            (dict(op="info", id=1.5, reply_to="@a"), "id", "@a"),
            (dict(op="info", id=3, reply_to=["@a"]), "reply_to", "@a-conn"),
            (dict(op="info", id=3, reply_to=None), "reply_to", "@a-conn"),
        ],
        ids=["id=list", "id=dict", "id=float", "reply_to=list", "reply_to=None"],
    )
    def test_malformed_envelope_is_answered_and_fails_nobody_else(
        self, envelope, field, answered_over
    ):
        """``id`` and ``reply_to`` are outside input like every argument.
        An unhashable ``id`` used to raise inside ``Broker._on_message`` —
        i.e. inside the transport's delivery, which files the error for
        whoever drains next: the sender got no reply at all and an
        unrelated client's next operation failed with ``TransportError:
        1 handler/codec/link error(s) during drain``."""

        async def body():
            transport, engine, broker = await self._cluster()
            inboxes = {"@a": [], "@a-conn": []}
            for endpoint, inbox in inboxes.items():
                transport.register(endpoint, lambda env, inbox=inbox: inbox.append(env.payload))
            other = _LoopbackClient(transport, "@b")
            assert (await other.call(op="register", key="dgemm", datum=1))["ok"]
            served = broker.requests_served
            transport.send("@a-conn", BROKER_ENDPOINT, envelope)
            # The very next operation of another client is served normally ...
            hit = await other.call(op="discover", key="dgemm")
            assert hit["ok"] and hit["found"] and hit["data"] == [1], hit
            assert transport.errors == []
            # ... and the sender was told which field, where it can be reached.
            (reply,) = inboxes[answered_over]
            assert not reply["ok"] and repr(field) in reply["error"], reply
            assert reply["id"] == (3 if field == "reply_to" else None)
            assert inboxes["@a" if answered_over != "@a" else "@a-conn"] == []
            # It was refused at admission: never queued, never served.
            assert broker.requests_served == served + 1 and not broker._inflight
            await broker.close()
            await transport.close()

        asyncio.run(body())

    def test_unknown_op_is_an_error_reply(self):
        async def body():
            transport, engine, broker = await self._cluster()
            client = _LoopbackClient(transport)
            reply = await client.call(op="frobnicate")
            assert not reply["ok"] and "unknown broker op" in reply["error"]
            # The broker survives bad requests and keeps serving.
            assert (await client.call(op="info"))["ok"]
            await broker.close()
            await transport.close()

        asyncio.run(body())


#: The reply contract, per scripted step: the key set every backend must
#: answer with (``group`` — the worker placement — is the multi-process
#: ring's one documented extra, on ``peer_join``).
_OK = {"id", "ok"}
_ERROR = {"id", "ok", "error"}
_DISCOVERY = {"key", "found", "data", "hops", "host"}
_QUERY = {"kind", "lo", "hi", "keys", "hops"}
_ADMISSION = _OK | {"peer", "successor", "seeds", "pred", "succ"}
_EXPECTED_KEYS = {
    "empty:register": _ERROR,
    "join:pa": _ADMISSION,
    "join:pd": _ADMISSION,
    "join:pg": _ADMISSION,
    "empty:discover": _ERROR,
    "empty:discover_batch": _ERROR,
    "empty:search": _ERROR,
    "register": _OK | {"key", "host"},
    "register:2": _OK | {"key", "host"},
    "discover:hit": _OK | _DISCOVERY,
    "discover:miss": _OK | _DISCOVERY,
    "discover_batch": _OK | {"results"},
    "search:prefix": _OK | _QUERY,
    "search:range": _OK | _QUERY,
    "search:bad": _ERROR,
    "unknown": _ERROR,
    "info": _OK
    | {"peers", "nodes", "keys", "served", "rejected", "pending", "max_pending"},
    "leave": _OK | {"peer", "peers"},
    "leave:unknown": _ERROR,
    "leave:2": _OK | {"peer", "peers"},
    "leave:last": _ERROR,
}


async def _rpc_script(transport):
    """Every broker op once, in a fixed order, against whatever backend
    serves ``"@broker"`` on ``transport``; returns ``{step: reply}``."""
    client = _LoopbackClient(transport, "@script")
    steps = [
        ("empty:register", dict(op="register", key="too-early")),
        ("join:pa", dict(op="peer_join", peer="pa", capacity=10)),
        ("join:pd", dict(op="peer_join", peer="pd", capacity=10)),
        ("join:pg", dict(op="peer_join", peer="pg", capacity=10)),
        ("empty:discover", dict(op="discover", key="dgemm")),
        ("empty:discover_batch", dict(op="discover_batch", keys=["dgemm"])),
        ("empty:search", dict(op="search", kind="prefix", lo="dg")),
        ("register", dict(op="register", key="dgemm", datum=42)),
        ("register:2", dict(op="register", key="dgemv")),
        ("discover:hit", dict(op="discover", key="dgemm")),
        ("discover:miss", dict(op="discover", key="nope")),
        ("discover_batch", dict(op="discover_batch", keys=["dgemv", "dgemm"])),
        ("search:prefix", dict(op="search", kind="prefix", lo="dge")),
        ("search:range", dict(op="search", kind="range", lo="dgemm", hi="pz")),
        ("search:bad", dict(op="search", kind="glob", lo="d*")),
        ("unknown", dict(op="frobnicate")),
        ("info", dict(op="info")),
        ("leave", dict(op="peer_leave", peer="pd")),
        ("leave:unknown", dict(op="peer_leave", peer="nobody")),
        ("leave:2", dict(op="peer_leave", peer="pg")),
        ("leave:last", dict(op="peer_leave", peer="pa")),
    ]
    return {step: await client.call(**body) for step, body in steps}


@contextlib.asynccontextmanager
async def _local_broker():
    """``"@broker"`` over a :class:`LocalCluster` on the loopback
    transport; yields ``(transport, engine)``."""
    transport = LoopbackAsyncioTransport()
    await transport.start()
    cluster = LocalCluster(transport)
    engine = cluster.engine
    broker = Broker(cluster, transport)
    await broker.start()
    try:
        yield transport, engine
    finally:
        await broker.close()
        await transport.close()


@contextlib.asynccontextmanager
async def _multiprocess_broker():
    """``"@broker"`` on a client-facing socket listener in front of a
    2-process ring; yields the listener's transport."""
    cluster = MultiProcessCluster(processes=2)
    await cluster.start()
    transport = AsyncioTransport()
    await transport.start()
    broker = Broker(cluster, transport)
    await broker.start()
    try:
        yield transport
    finally:
        await broker.close()
        await transport.close()
        await cluster.close()


async def _local_script():
    async with _local_broker() as (transport, _engine):
        return await _rpc_script(transport)


async def _refused_datum_script(transport):
    """A non-scalar ``datum`` is outside input the protocol cannot carry:
    the broker must refuse it before any handler runs — the reply names
    the datum, the tree is exactly as it was, and the same connection
    keeps getting service."""
    client = _LoopbackClient(transport, "@datum")
    for pid in ("pa", "pd", "pg"):
        assert (await client.call(op="peer_join", peer=pid, capacity=10))["ok"]
    # With "dgemm" in the tree, inserting "dgemv" splits a structural node
    # "dgem" first — the half-done mutation an unvalidated datum leaves.
    assert (await client.call(op="register", key="dgemm"))["ok"]
    before = await client.call(op="info")
    bad = await client.call(op="register", key="dgemv", datum={"rich": [1]})
    assert not bad["ok"]
    assert "not wire-encodable" in bad["error"] and "{'rich': [1]}" in bad["error"]
    after = await client.call(op="info")
    for field in ("peers", "nodes", "keys"):
        assert after[field] == before[field], field
    assert (await client.call(op="register", key="dgemv", datum=7))["ok"]
    hit = await client.call(op="discover", key="dgemv")
    assert hit["ok"] and hit["found"] and hit["data"] == [7]


def _check_contract(replies, extra=frozenset()):
    for step, expected in _EXPECTED_KEYS.items():
        allowed = extra if step.startswith("join:") else frozenset()
        assert set(replies[step]) - allowed == expected, step
    assert set(replies["discover_batch"]["results"][0]) == _DISCOVERY
    # One broker, one empty-tree answer — whatever the op or topology.
    for step in ("empty:discover", "empty:discover_batch", "empty:search"):
        assert replies[step]["error"] == "RuntimeError: tree is empty", step
    # ...and one operation layer, so one wording for what the ring itself
    # refuses, whichever process notices.
    assert replies["empty:register"]["error"] == "ClusterError: no peers joined"
    assert replies["leave:unknown"]["error"] == "ClusterError: peer 'nobody' not joined"
    assert replies["leave:last"]["error"] == (
        "ClusterError: cannot remove 'pa': it is the ring's last peer"
    )
    assert "kind" in replies["search:bad"]["error"]
    assert "unknown broker op" in replies["unknown"]["error"]


class TestBrokerBackends:
    """One ``Broker``, two backends: the same RPC script must produce the
    same reply shapes (and the same answers) from both."""

    def test_local_backend_reply_contract(self):
        replies = asyncio.run(_local_script())
        _check_contract(replies)
        assert replies["discover:hit"]["data"] == [42]
        assert replies["search:prefix"]["keys"] == ["dgemm", "dgemv"]

    @pytest.mark.net
    def test_multiprocess_backend_answers_like_the_local_one(self):
        async def body():
            async with _multiprocess_broker() as transport:
                return await _rpc_script(transport)

        multi = asyncio.run(body())
        _check_contract(multi, extra={"group"})
        local = asyncio.run(_local_script())
        volatile = {"id", "group", "served", "error"}
        for step in _EXPECTED_KEYS:
            assert {k: v for k, v in multi[step].items() if k not in volatile} == {
                k: v for k, v in local[step].items() if k not in volatile
            }, step
        for step in ("empty:register", "leave:unknown", "leave:last"):
            assert multi[step]["error"] == local[step]["error"], step


    def test_local_backend_refuses_a_non_scalar_datum(self):
        async def body():
            async with _local_broker() as (transport, engine):
                await _refused_datum_script(transport)
                engine.check_tree()

        asyncio.run(body())

    @pytest.mark.net
    def test_multiprocess_backend_refuses_a_non_scalar_datum(self):
        """Before the admission check this raised ``TypeError: unhashable
        type`` inside a worker handler after the tree was already split."""

        async def body():
            async with _multiprocess_broker() as transport:
                await _refused_datum_script(transport)

        asyncio.run(body())


@pytest.mark.net
class TestSocketClient:
    """The real DLPTClient against a served cluster, over a socket."""

    def _with_cluster(self, scenario, **kwargs):
        async def body():
            transport, engine, broker = await start_cluster(6, **kwargs)
            try:
                return await scenario(transport, engine)
            finally:
                await broker.close()
                await transport.close()

        return asyncio.run(body())

    def test_futures_pipeline_over_unix_socket(self):
        async def scenario(transport, engine):
            client = await DLPTClient.connect(transport.address)
            try:
                keys = ["dgemm", "dgemv", "sgemm", "spotrf"]
                records = await asyncio.gather(*[client.register(k) for k in keys])
                assert [r["key"] for r in records] == keys
                assert all(r["host"] in engine.peers for r in records)
                rows = await client.discover_batch(keys)
                assert [(r["key"], r["found"]) for r in rows] == [
                    (k, True) for k in keys
                ]
                assert (await client.discover("absent"))["found"] is False
                info = await client.info()
                assert info["peers"] == 6 and info["keys"] == sorted(keys)
            finally:
                await client.close()

        self._with_cluster(scenario)

    def test_tcp_and_broker_errors(self):
        async def scenario(transport, engine):
            assert transport.address[0] == "tcp"
            client = await DLPTClient.connect(transport.address)
            try:
                # A non-scalar datum crosses the client/broker hop fine
                # (it is plain JSON) but cannot enter the protocol: the
                # broker rejects it at admission by the wire codec's rule,
                # and the failure comes back as a correlated error reply.
                with pytest.raises(DLPTClientError, match="not wire-encodable"):
                    await client.register("key", datum={"rich": [1, 2]})
                # The same connection still gets service afterwards.
                assert (await client.info())["peers"] == 6
            finally:
                await client.close()

        self._with_cluster(scenario, tcp=True)

    def test_prefix_completion_and_range_over_socket(self):
        async def scenario(transport, engine):
            client = await DLPTClient.connect(transport.address)
            try:
                keys = ["dgemm", "dgemv", "dgetrf", "sgemm"]
                await asyncio.gather(*[client.register(k) for k in keys])
                done = await client.complete("dge")
                assert done["keys"] == ["dgemm", "dgemv", "dgetrf"]
                band = await client.range_search("dgemv", "sgemm")
                assert band["keys"] == ["dgemv", "dgetrf", "sgemm"]
                with pytest.raises(DLPTClientError, match="empty range"):
                    await client.range_search("z", "a")
            finally:
                await client.close()

        self._with_cluster(scenario)

    def test_client_driven_membership(self):
        async def scenario(transport, engine):
            client = await DLPTClient.connect(transport.address)
            try:
                joined = await client.peer_join("zz", capacity=5)
                assert joined["ok"] and "zz" in engine.peers
                engine.check_ring()
                left = await client.peer_leave("zz")
                assert left["ok"] and "zz" not in engine.peers
                engine.check_ring()
            finally:
                await client.close()

        self._with_cluster(scenario)
