"""A node migrates as itself.

A join's split (Algorithm 2, lines 2.06–2.08) and a graceful leave move
whole logical nodes between peers.  Within one process the record a peer
hosts is the thing that travels: the sender gives its ``NodeState`` up and
the receiver installs that very object, so a migration constructs no node
at all.  Across a codec (the loopback transport, another process) the node
arrives as an equal copy.

The second half pins the wire form of every frame that carries nodes —
``YourInformation``, ``LeaveTransfer`` (a crash's frame too: a crash is
the departure), ``Host`` and ``SearchingHost`` — byte for byte: children
sorted, data in set order.  The fixture's data are small integers, whose set order does
not depend on the interpreter's string-hash seed.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.dlpt import messages as m
from repro.dlpt.protocol import NodeState, ProtocolEngine
from repro.net.asyncio_transport import AsyncioTransport, LoopbackAsyncioTransport
from repro.net.cluster import LocalCluster
from repro.net.wire import decode_record, encode_frame, encode_record

pytestmark = pytest.mark.asyncio

#: Three peers and a corpus that gives every arc several nodes: ``pg``
#: hosts the ``pb…`` subtree, ``pm`` the ``ph…`` one.
PEERS = ["pa", "pg", "pm"]
KEYS = ["pbab", "pbac", "pbb", "pc", "phx", "phy", "pk"]
#: ``pe`` splits ``pg``'s arc: it takes the nodes at or below ``pe``.
JOINER = "pe"


def _counting(monkeypatch):
    """Count every ``NodeState`` built from here on (a wrapper, not a
    timer)."""
    built = []
    init = NodeState.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["label"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(NodeState, "__init__", counted)
    return built


class _Sim:
    """The engine on the simulator, driven the way the cluster drives it."""

    def __init__(self):
        self.engine = engine = ProtocolEngine()
        engine.bootstrap_peer(PEERS[0])
        for pid in PEERS[1:]:
            engine.join_peer(pid)
            engine.run()
        for i, key in enumerate(KEYS):
            engine.insert_data(key, i)
            engine.run()

    async def join(self, pid):
        self.engine.join_peer(pid)
        self.engine.run()

    async def leave(self, pid):
        self.engine.leave_peer(pid)
        self.engine.run()

    async def register(self, key, datum):
        self.engine.insert_data(key, datum)
        self.engine.run()

    async def close(self):
        pass


async def _simulated():
    return _Sim()


async def _served(transport):
    await transport.start()
    cluster = LocalCluster(transport)
    for pid in PEERS:
        await cluster.join(pid)
    for i, key in enumerate(KEYS):
        await cluster.register(key, i)
    return cluster


#: The backends on which a migration stays in one process.  The socket
#: transport binds its listener but nothing connects: every delivery is
#: in-process, the path a single-process ``repro serve`` takes.
IN_PROCESS = [
    pytest.param(_simulated, id="sim"),
    pytest.param(lambda: _served(AsyncioTransport()), id="asyncio"),
]


class TestHandOver:
    @pytest.mark.parametrize("factory", IN_PROCESS)
    def test_a_leavers_nodes_are_installed_as_themselves(self, factory):
        async def body():
            ring = await factory()
            peers = ring.engine.peers
            leaving = dict(peers["pg"].nodes)
            assert len(leaving) >= 3
            await ring.leave("pg")
            successor = peers["pm"].nodes
            for label, st in leaving.items():
                assert successor[label] is st, label
            await ring.close()

        asyncio.run(body())

    @pytest.mark.parametrize("factory", IN_PROCESS)
    def test_a_joiner_installs_its_successors_former_objects(self, factory):
        async def body():
            ring = await factory()
            peers = ring.engine.peers
            former = dict(peers["pg"].nodes)
            await ring.join(JOINER)
            taken = peers[JOINER].nodes
            assert len(taken) >= 2
            assert set(taken).isdisjoint(peers["pg"].nodes)
            for label, st in taken.items():
                assert st is former[label], label
            await ring.close()

        asyncio.run(body())

    @pytest.mark.parametrize("factory", IN_PROCESS)
    def test_a_join_and_a_leave_construct_no_node(self, factory, monkeypatch):
        async def body():
            ring = await factory()
            built = _counting(monkeypatch)
            await ring.join(JOINER)
            await ring.leave(JOINER)
            assert built == []
            ring.engine.check_mapping()
            ring.engine.check_tree()
            await ring.close()

        asyncio.run(body())

    @pytest.mark.parametrize("factory", IN_PROCESS)
    def test_a_new_node_is_constructed_once(self, factory, monkeypatch):
        """``pbaa`` is one new node, ``pdqr`` beside ``pdqq`` is two (the
        key and their structural ``pdq``), and ``pbaa`` again is none."""

        async def body():
            ring = await factory()
            engine = ring.engine
            for key in ("pbaa", "pdqq", "pdqr", "pbaa"):
                before = set(engine.locator)
                built = _counting(monkeypatch)
                await ring.register(key, 99)
                assert sorted(built) == sorted(set(engine.locator) - before), key
                monkeypatch.undo()
            await ring.close()

        asyncio.run(body())

    def test_across_the_codec_a_node_arrives_as_an_equal_copy(self):
        async def body():
            cluster = await _served(LoopbackAsyncioTransport())
            peers = cluster.engine.peers
            leaving = dict(peers["pg"].nodes)
            await cluster.leave("pg")
            successor = peers["pm"].nodes
            for label, st in leaving.items():
                assert successor[label] == st and successor[label] is not st, label
            former = dict(successor)
            await cluster.join(JOINER)
            taken = peers[JOINER].nodes
            assert taken
            for label, st in taken.items():
                assert st == former[label] and st is not former[label], label
            await cluster.close()

        asyncio.run(body())


class TestTheRecordIsItsOwnIndex:
    def test_after_a_seeded_replay_every_leaf_holds_the_empty_tuple(self):
        """Joins, leaves and fresh inserts replayed from a seed, every node
        crossing the codec: each record's children end as a sorted tuple,
        and a leaf's as ``()`` — no record keeps a child container."""
        rng = random.Random(41)

        async def body():
            ring = await _served(LoopbackAsyncioTransport())
            live, used = list(PEERS), set(PEERS)
            for step in range(150):
                roll = rng.random()
                if roll < 0.08:
                    pid = "p" + "".join(rng.choices("abcdefghijklm", k=2))
                    if pid not in used:
                        await ring.join(pid)
                        live.append(pid)
                        used.add(pid)
                elif roll < 0.14 and len(live) > 2:
                    pid = rng.choice(live)
                    await ring.leave(pid)
                    live.remove(pid)
                else:
                    key = "p" + "".join(rng.choices("abcdhk", k=rng.randint(1, 4)))
                    await ring.register(key, step)
            engine = ring.engine
            engine.check_ring()
            engine.check_tree()
            engine.check_mapping()
            records = [st for peer in engine.peers.values() for st in peer.nodes.values()]
            leaves = [st for st in records if not st.children]
            assert len(leaves) > 20 and len(records) > len(leaves)
            assert all(st.children == () for st in leaves)
            assert not any(isinstance(st.children, (set, frozenset)) for st in records)
            await ring.close()

        asyncio.run(body())


# -- golden frames -------------------------------------------------------------


def _golden_ring():
    """``pbz`` joins and leaves a two-peer ring whose ``pb`` node has
    three children and two data: every frame carrying nodes, recorded as
    it is sent."""
    engine = ProtocolEngine()
    engine.bootstrap_peer("pm")
    engine.join_peer("pz")
    engine.run()
    for key, datum in [("pba", 5), ("pbb", 6), ("pbc", 7), ("pb", 3), ("pb", 10), ("q", 1)]:
        engine.insert_data(key, datum)
        engine.run()
    frames = {}
    send = engine.transport.send

    def recorded(src, dst, payload):
        if isinstance(payload, (m.YourInformation, m.LeaveTransfer)):
            frames[type(payload).__name__] = encode_frame(src, dst, payload)
        send(src, dst, payload)

    engine.transport.send = recorded
    engine.join_peer("pbz")
    engine.run()
    engine.leave_peer("pbz")
    engine.run()
    engine.transport.send = send
    return engine, frames


GOLDEN = {
    "YourInformation": (
        b'\x00\x00\x01\xc0{"d":"pbz","f":{"nodes":[{"children":[],"data":[5],'
        b'"father":"pb","label":"pba"},{"children":["pba","pbb","pbc"],'
        b'"data":[10,3],"father":"","label":"pb"},{"children":[],"data":[6],'
        b'"father":"pb","label":"pbb"},{"children":[],"data":[7],'
        b'"father":"pb","label":"pbc"},{"children":["pb","q"],"data":[],'
        b'"father":null,"label":""},{"children":[],"data":[1],"father":"",'
        b'"label":"q"}],"pred":"pz","succ":"pm"},"s":"pm",'
        b'"t":"YourInformation","w":"repro-wire/1"}'
    ),
    "LeaveTransfer": (
        b'\x00\x00\x01\xb2{"d":"pm","f":{"nodes":[{"children":[],"data":[5],'
        b'"father":"pb","label":"pba"},{"children":["pba","pbb","pbc"],'
        b'"data":[10,3],"father":"","label":"pb"},{"children":[],"data":[6],'
        b'"father":"pb","label":"pbb"},{"children":[],"data":[7],'
        b'"father":"pb","label":"pbc"},{"children":["pb","q"],"data":[],'
        b'"father":null,"label":""},{"children":[],"data":[1],"father":"",'
        b'"label":"q"}],"pred":"pz"},"s":"pbz","t":"LeaveTransfer",'
        b'"w":"repro-wire/1"}'
    ),
    "Host": (
        b'\x00\x00\x00\x89{"d":"pm","f":{"payload":{"children":["pba","pbb","pbc"],'
        b'"data":[10,3],"father":"","label":"pb"}},"s":"pm","t":"Host",'
        b'"w":"repro-wire/1"}'
    ),
    "SearchingHost": (
        b'\x00\x00\x00\x9d{"d":"pz","f":{"node":"p","payload":{"children":["pba","pbb",'
        b'"pbc"],"data":[10,3],"father":"","label":"pb"}},"s":"pm",'
        b'"t":"SearchingHost","w":"repro-wire/1"}'
    ),
}


class TestGoldenNodeFrames:
    """``pb``'s data went in as 3, then 10, and travel in set order."""

    def test_the_fixture_node_is_rich(self):
        engine, _ = _golden_ring()
        pb = engine.peers["pm"].nodes["pb"]
        assert len(pb.children) >= 3 and len(pb.data) >= 2

    def test_migration_frames(self):
        _, frames = _golden_ring()
        assert frames == {name: GOLDEN[name] for name in ("YourInformation", "LeaveTransfer")}

    def test_new_node_frames(self):
        """A new node has at most two children and one datum, so these
        frames carry a codec-built copy of ``pb``."""
        engine, _ = _golden_ring()
        node = decode_record(m.NodeState, encode_record(engine.peers["pm"].nodes["pb"]))
        assert encode_frame("pm", "pm", m.Host(payload=node)) == GOLDEN["Host"]
        searching = m.SearchingHost(node="p", payload=node)
        assert encode_frame("pm", "pz", searching) == GOLDEN["SearchingHost"]
