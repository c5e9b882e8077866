"""Shared quiescence for reads: the broker serves the pending run of
``discover`` / ``discover_batch`` requests as one group under one drain.

Tier-1, on the loopback transport, and deterministic: ``_RawClient.send``
fills the inbox before the serve loop runs, so which requests are pending
together is the test's choice, not the scheduler's.  The group rule under
test: pop order is exactly one-at-a-time service order; the run of reads at
its head shares one ``discover_many`` (one quiescence wait); any other op
ends the run and is served alone; ``Broker.READ_GROUP`` bounds a group.
The ``net``-marked case repeats the count against a 2-process ring.
"""

from __future__ import annotations

import asyncio
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.asyncio_transport import AsyncioTransport, LoopbackAsyncioTransport
from repro.net.bootstrap import Broker
from repro.net.client import DLPTClient
from repro.net.cluster import LocalCluster
from repro.net.procgroup import MultiProcessCluster
from strategies import keys_st
from test_backpressure import _RawClient
from test_cluster import _count_calls, lossy_loopback

pytestmark = pytest.mark.asyncio

PEERS = ["pa", "pd", "pg", "pj"]
REGISTERED = {"dgemm": 42, "dgemv": 7, "dtrsm": "x", "sgemm": None, "zherk": 2.5}


def _spy(backend):
    """Record the backend's quiescence waits and batches: returns
    ``(drains, batches)`` — a one-element tally and the ``keys`` of every
    ``discover_many`` call."""
    drains, batches = _count_calls(backend, "drain"), []
    discover_many = backend.discover_many

    async def recorded(keys, via=None):
        batches.append(list(keys))
        return await discover_many(keys, via)

    backend.discover_many = recorded
    return drains, batches


async def _ring(transport=None, registered=REGISTERED):
    """A broker over a four-peer loopback ring holding ``registered``."""
    if transport is None:
        transport = LoopbackAsyncioTransport()
    await transport.start()
    cluster = LocalCluster(transport)
    engine = cluster.engine
    broker = Broker(cluster, transport)
    await broker.start()
    for pid in PEERS:
        await broker.backend.join(pid)
    for key, datum in registered.items():
        await broker.backend.register(key, datum)
    return transport, engine, broker


async def _shutdown(transport, broker):
    await broker.close()
    await transport.close()


class TestOneGroupOneDrain:
    def test_pending_discovers_share_one_quiescence_wait(self):
        async def body():
            transport, engine, broker = await _ring()
            keys = ["dgemm", "nope", "dgemv", "dtrsm", "sgemm", "dgemm", "zherk", "dge"]
            oracle = {key: await broker.backend.discover(key) for key in set(keys)}
            drains, batches = _spy(broker.backend)
            order = []
            a, b = _RawClient(transport, "@a", order), _RawClient(transport, "@b", order)
            for i, key in enumerate(keys):
                (a, b)[i % 2].send(10 * (i % 2) + i // 2, op="discover", key=key)
            await a.settle(4)
            await b.settle(4)
            assert drains == [1] and batches == [keys]
            # Replies leave in pop order — round-robin over the clients,
            # oldest first within one — each with its own id and record.
            assert order == [("@a", 0), ("@b", 10), ("@a", 1), ("@b", 11),
                             ("@a", 2), ("@b", 12), ("@a", 3), ("@b", 13)]
            replies = [r for pair in zip(a.replies, b.replies) for r in pair]
            for key, reply in zip(keys, replies):
                assert reply == {"id": reply["id"], "ok": True, **oracle[key]}, key
            assert [r["found"] for r in replies] == [k in REGISTERED for k in keys]
            assert replies[0]["data"] == [42] and replies[0]["host"] == engine.locator["dgemm"]
            assert broker.requests_served == 8 and broker.pending == 0
            await _shutdown(transport, broker)

        asyncio.run(body())

    def test_batches_and_discovers_mix_and_rows_go_back_to_their_owner(self):
        async def body():
            transport, engine, broker = await _ring()
            drains, batches = _spy(broker.backend)
            a, b = _RawClient(transport, "@a"), _RawClient(transport, "@b")
            a.send(1, op="discover_batch", keys=["dgemv", "nope", "dgemm"])
            b.send(1, op="discover", key="zherk")
            a.send(2, op="discover_batch", keys=[])
            b.send(2, op="discover_batch", keys=["zherk"])
            await a.settle(2)
            await b.settle(2)
            assert drains == [1]
            assert batches == [["dgemv", "nope", "dgemm", "zherk", "zherk"]]
            assert [(r["key"], r["found"]) for r in a.replies[0]["results"]] == [
                ("dgemv", True), ("nope", False), ("dgemm", True)
            ]
            assert a.replies[1] == {"id": 2, "ok": True, "results": []}
            assert b.replies[0]["key"] == "zherk" and b.replies[0]["data"] == [2.5]
            assert b.replies[1]["results"] == [
                {k: v for k, v in b.replies[0].items() if k not in ("id", "ok")}
            ]
            await _shutdown(transport, broker)

        asyncio.run(body())


class TestWritesAreBarriers:
    def test_a_write_ends_the_run_and_is_served_alone(self):
        async def body():
            transport, engine, broker = await _ring()
            drains, batches = _spy(broker.backend)
            order = []
            a, b = _RawClient(transport, "@a", order), _RawClient(transport, "@b", order)
            a.send(1, op="discover", key="fresh")
            a.send(2, op="register", key="fresh", datum=1)
            a.send(3, op="discover", key="fresh")
            b.send(1, op="discover", key="fresh")
            await a.settle(3)
            await b.settle(1)
            # Rotation: a1, b1 | a2 (the write, alone) | a3.
            assert order == [("@a", 1), ("@b", 1), ("@a", 2), ("@a", 3)]
            assert batches == [["fresh", "fresh"], ["fresh"]]
            assert drains == [3]
            assert [r["ok"] for r in a.replies] == [True, True, True]
            assert a.replies[0]["found"] is False and b.replies[0]["found"] is False
            assert a.replies[1]["host"] == engine.locator["fresh"]
            assert a.replies[2]["found"] is True and a.replies[2]["data"] == [1]
            await _shutdown(transport, broker)

        asyncio.run(body())

    @pytest.mark.parametrize(
        "barrier",
        [
            dict(op="search", kind="prefix", lo="dge"),
            dict(op="info"),
            dict(op="peer_join", peer="pz", capacity=3),
            dict(op="peer_leave", peer="pj"),
            dict(op="frobnicate"),
            dict(op=["discover"]),
        ],
        ids=lambda body: str(body["op"]),
    )
    def test_every_other_op_is_a_group_of_one(self, barrier):
        async def body():
            transport, engine, broker = await _ring()
            _drains, batches = _spy(broker.backend)
            client = _RawClient(transport, "@a")
            client.send(1, op="discover", key="dgemm")
            client.send(2, **barrier)
            client.send(3, op="discover", key="dgemv")
            await client.settle(3)
            assert [r["id"] for r in client.replies] == [1, 2, 3]
            assert batches == [["dgemm"], ["dgemv"]]
            assert client.replies[0]["found"] and client.replies[2]["found"]
            await _shutdown(transport, broker)

        asyncio.run(body())


class TestGroupBound:
    def test_a_hogs_backlog_is_not_one_giant_group(self):
        """Fairness survives grouping: the meek client's one read is in
        the *first* group, and that group is ``READ_GROUP`` long, not the
        hog's whole backlog."""

        async def body():
            transport, engine, broker = await _ring()
            drains, batches = _spy(broker.backend)
            order = []
            hog, meek = _RawClient(transport, "@hog", order), _RawClient(transport, "@meek", order)
            backlog = 4 * Broker.READ_GROUP
            for rid in range(backlog):
                hog.send(rid, op="discover", key="dgemm")
            meek.send(1, op="discover", key="zherk")
            await hog.settle(backlog)
            await meek.settle(1)
            assert order.index(("@meek", 1)) == 1
            assert len(batches[0]) == Broker.READ_GROUP and batches[0][1] == "zherk"
            assert [len(batch) for batch in batches] == [Broker.READ_GROUP] * 4 + [1]
            assert drains == [5]
            await _shutdown(transport, broker)

        asyncio.run(body())


class TestIdempotencyInsideAGroup:
    def test_duplicate_is_absorbed_and_late_retry_is_cached(self):
        async def body():
            transport, engine, broker = await _ring()
            _drains, batches = _spy(broker.backend)
            client = _RawClient(transport, "@dup")
            client.send(1, op="discover", key="dgemm")
            client.send(1, op="discover", key="dgemm")  # retransmit, still queued
            client.send(2, op="discover", key="dgemv")
            await client.settle(2)
            await asyncio.sleep(0.02)  # a third reply would land by now
            assert [r["id"] for r in client.replies] == [1, 2]
            assert batches == [["dgemm", "dgemv"]]
            assert broker.requests_served == 2 and broker.duplicates_absorbed == 1
            assert not broker._inflight
            client.send(1, op="discover", key="dgemm")  # late retry of a grouped request
            await client.settle(3)
            assert client.replies[2] == client.replies[0]
            assert broker.requests_served == 2 and broker.duplicates_absorbed == 2
            assert len(batches) == 1  # answered from the cache, not the ring
            await _shutdown(transport, broker)

        asyncio.run(body())

    def test_a_busy_group_is_never_cached(self):
        """What ends the shared wait is every member's outcome — and a
        retryable one stays transient for each of them."""

        class Recovering(Exception):
            pass

        async def body():
            transport, engine, broker = await _ring()
            backend = broker.backend
            backend.RETRYABLE_ERRORS = (Recovering,)
            discover_many = backend.discover_many

            async def recovering(keys, via=None):
                raise Recovering("respawning group 1")

            backend.discover_many = recovering
            client = _RawClient(transport, "@busy")
            client.send(1, op="discover", key="dgemm")
            client.send(2, op="discover_batch", keys=["dgemv"])
            await client.settle(2)
            for reply in client.replies:
                assert reply["busy"] and not reply["ok"], reply
                assert reply["error"] == "retry: Recovering: respawning group 1"
            assert not broker._completed and not broker._inflight
            backend.discover_many = discover_many
            client.send(1, op="discover", key="dgemm")  # same id, after recovery
            await client.settle(3)
            assert client.replies[2]["ok"] and client.replies[2]["found"]
            await _shutdown(transport, broker)

        asyncio.run(body())


class TestMembersFailAlone:
    def test_a_malformed_member_fails_alone(self):
        async def body():
            transport, engine, broker = await _ring()
            _drains, batches = _spy(broker.backend)
            a, b = _RawClient(transport, "@a"), _RawClient(transport, "@b")
            a.send(1, op="discover", key="dgemm")
            b.send(1, op="discover", key=None)
            a.send(2, op="discover_batch", keys="dge")
            b.send(2, op="discover", key="dgemv")
            await a.settle(2)
            await b.settle(2)
            assert batches == [["dgemm", "dgemv"]]  # the backend never saw the bad ones
            assert a.replies[0]["ok"] and a.replies[0]["found"]
            assert b.replies[1]["ok"] and b.replies[1]["found"]
            assert b.replies[0] == {
                "id": 1, "ok": False, "error": "ValueError: 'key' must be a string, got None"
            }
            assert not a.replies[1]["ok"] and "'keys'" in a.replies[1]["error"]
            await _shutdown(transport, broker)

        asyncio.run(body())

    def test_a_lost_reply_fails_only_the_request_that_owns_the_key(self):
        """Eight pending discovers, the third discovery reply dropped in
        flight: seven are answered, one gets ``discover``'s own definitive
        error naming its key (it was ``KeyError: 'dtrsm'`` for a batch)."""

        async def body():
            transport, lose = lossy_loopback()
            transport, engine, broker = await _ring(transport)
            keys = ["dgemm", "dgemv", "dtrsm", "sgemm", "zherk", "nope", "dge", "d"]
            lose(2)
            drains, _batches = _spy(broker.backend)
            a, b = _RawClient(transport, "@a"), _RawClient(transport, "@b")
            for i, key in enumerate(keys):
                (a, b)[i % 2].send(i, op="discover", key=key)
            await a.settle(4)
            await b.settle(4)
            assert drains == [1] and transport.chaos_dropped == 1
            by_id = {r["id"]: r for r in a.replies + b.replies}
            failed = [i for i in range(8) if not by_id[i]["ok"]]
            assert len(failed) == 1
            (lost,) = failed
            assert by_id[lost] == {
                "id": lost,
                "ok": False,
                "error": f"ClusterError: expected 1 reply for discovery of {keys[lost]!r}, got 0",
            }
            for i in set(range(8)) - {lost}:
                assert by_id[i]["ok"] and by_id[i]["key"] == keys[i]
            a.send(100, op="discover", key=keys[lost])  # the next one is served normally
            await a.settle(5)
            assert a.replies[4]["ok"] and a.replies[4]["key"] == keys[lost]
            await _shutdown(transport, broker)

        asyncio.run(body())

    def test_a_batch_whose_own_row_is_lost_fails_whole(self):
        """A batch's reply is one frame, so one lost row fails that batch
        — and only that batch."""

        async def body():
            transport, lose = lossy_loopback()
            transport, engine, broker = await _ring(transport)
            batches = {1: ["dgemm", "dgemv", "nope"], 2: ["dtrsm", "zherk"]}
            client = _RawClient(transport, "@a")
            lose(0)
            for rid, keys in batches.items():
                client.send(rid, op="discover_batch", keys=keys)
            await client.settle(2)
            (failed,) = [r for r in client.replies if not r["ok"]]
            (served,) = [r for r in client.replies if r["ok"]]
            assert failed["error"] in [
                f"ClusterError: expected 1 reply for discovery of {key!r}, got 0"
                for key in batches[failed["id"]]
            ]
            assert [row["key"] for row in served["results"]] == batches[served["id"]]
            await _shutdown(transport, broker)

        asyncio.run(body())


#: One scripted request: ``(client index, body)``.
_key = st.text(alphabet="abc", min_size=1, max_size=8)


@st.composite
def _scripts(draw):
    corpus = draw(keys_st)
    key = st.one_of(st.sampled_from(corpus), _key)
    op = st.one_of(
        st.builds(lambda k: dict(op="discover", key=k), key),
        st.builds(lambda ks: dict(op="discover_batch", keys=ks), st.lists(key, max_size=4)),
        st.builds(lambda k, d: dict(op="register", key=k, datum=d), key, st.integers(0, 3)),
        st.builds(lambda k: dict(op="search", kind="prefix", lo=k), key),
        st.builds(lambda lo, hi: dict(op="search", kind="range", lo=lo, hi=hi), key, key),
    )
    return draw(st.lists(st.tuples(st.integers(0, 2), op), min_size=1, max_size=24))


async def _serve_script(script):
    """Pend the whole script, let the broker serve it; returns the reply
    order and the replies' canonical bytes per ``(client, id)``."""
    transport, engine, broker = await _ring(registered={})
    order = []
    clients = [_RawClient(transport, f"@c{i}", order) for i in range(3)]
    for rid, (index, body) in enumerate(script):
        clients[index].send(rid, **body)
    for index, client in enumerate(clients):
        await client.settle(sum(1 for i, _body in script if i == index))
    replies = {
        (client.endpoint, reply["id"]): json.dumps(reply, sort_keys=True)
        for client in clients
        for reply in client.replies
    }
    engine.check_tree()
    await _shutdown(transport, broker)
    return order, replies


class TestEquivalenceToSerialService:
    @settings(max_examples=40, deadline=None)
    @given(_scripts())
    def test_grouped_service_answers_exactly_like_one_at_a_time(self, script):
        """``READ_GROUP = 1`` is the broker that served strictly one
        request at a time; at the default bound every ``(client, id)``
        must get byte-equal replies, in the same order."""
        with mock.patch.object(Broker, "READ_GROUP", 1):
            serial = asyncio.run(_serve_script(script))
        grouped = asyncio.run(_serve_script(script))
        assert grouped == serial


@pytest.mark.net
class TestAcrossProcesses:
    def test_concurrent_discovers_share_the_coordinators_quiescence_wait(self):
        """The group rule needs nothing from the backend but
        ``discover_many``: over a 2-process ring, eight concurrent
        ``DLPTClient.discover`` calls are all correct and cost fewer
        counter-poll waits than requests."""

        async def body():
            cluster = MultiProcessCluster(processes=2)
            await cluster.start()
            transport = AsyncioTransport()
            await transport.start()
            broker = Broker(cluster, transport)
            await broker.start()
            clients = [await DLPTClient.connect(transport.address) for _ in range(2)]
            try:
                for pid in PEERS:
                    assert (await clients[0].peer_join(pid))["ok"]
                for key, datum in REGISTERED.items():
                    assert (await clients[0].register(key, datum))["ok"]
                keys = ["dgemm", "nope", "dgemv", "dtrsm", "sgemm", "dgemm", "zherk", "dge"]
                oracle = {key: await cluster.discover(key) for key in set(keys)}
                drains, batches = _spy(cluster)
                rows = await asyncio.gather(
                    *[clients[i % 2].discover(key) for i, key in enumerate(keys)]
                )
                for key, row in zip(keys, rows):
                    assert {k: row[k] for k in oracle[key]} == oracle[key], key
                assert sorted(k for batch in batches for k in batch) == sorted(keys)
                assert drains[0] == len(batches) < len(keys)
            finally:
                for client in clients:
                    await client.close()
                await broker.close()
                await transport.close()
                await cluster.close()

        asyncio.run(body())
