"""Asynchronous protocol engine: Algorithms 1–3 over simulated messages.

The strongest checks are the equivalence tests: after any quiesced sequence
of joins and insertions, the distributed state must match (a) the Section 3
mapping rule, (b) a consistent bidirectional ring, and (c) the *reference*
PGCP tree built from the same keys.
"""

from __future__ import annotations

import asyncio
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ids import common_prefix_len
from repro.core.pgcp import PGCPTree
from repro.dlpt.protocol import NodeState, ProtocolEngine
from repro.net.asyncio_transport import LoopbackAsyncioTransport
from repro.net.chaos import ChaosTransport
from repro.net.transport import SimTransport
from repro.net.wire import MESSAGE_TYPES


def engine_with_peers(peer_ids, latency_seed=None):
    if latency_seed is None:
        eng = ProtocolEngine()
    else:
        plan = f"delay:1.0:max=1.5+seed={latency_seed}"
        eng = ProtocolEngine(transport=ChaosTransport(SimTransport(), plan))
    ids = list(peer_ids)
    eng.bootstrap_peer(ids[0])
    for pid in ids[1:]:
        eng.join_peer(pid)
        eng.run()
    return eng


class _Parking(dict):
    """A ``pending_node_messages`` table that logs every label parked."""

    def __init__(self):
        super().__init__()
        self.parked = []

    def setdefault(self, label, default=None):
        self.parked.append(label)
        return super().setdefault(label, default)


def _nothing_waits(eng):
    """Quiescence leaves no message waiting for its node or ring slot."""
    assert eng.pending_node_messages == {}
    assert not any(p.deferred for p in eng.peers.values())


class TestPeerJoin:
    def test_two_peer_ring(self):
        eng = engine_with_peers(["mmmm", "aaaa"])
        eng.check_ring()
        a, m = eng.peers["aaaa"], eng.peers["mmmm"]
        assert a.succ == "mmmm" and a.pred == "mmmm"
        assert m.succ == "aaaa" and m.pred == "aaaa"

    def test_many_peers_form_sorted_ring(self):
        rng = random.Random(3)
        ids = {"".join(rng.choice("abcdef") for _ in range(6)) for _ in range(20)}
        eng = engine_with_peers(sorted(ids, key=lambda _: rng.random()))
        eng.check_ring()

    def test_join_routed_through_tree(self):
        eng = engine_with_peers(["mmmm"])
        eng.insert_data("dgemm")
        eng.run()
        eng.join_peer("dzzz", via="dgemm")
        eng.run()
        eng.check_ring()
        eng.check_mapping()

    def test_join_splits_node_set(self):
        eng = engine_with_peers(["zzzz"])
        for k in ("aa", "mm", "zz"):
            eng.insert_data(k)
            eng.run()
        eng.join_peer("nnnn")
        eng.run()
        eng.check_mapping()
        # The newcomer owns the interval (zzzz, nnnn]: keys aa and mm.
        assert set(eng.peers["nnnn"].nodes) >= {"aa", "mm"}

    def test_duplicate_join_rejected(self):
        eng = engine_with_peers(["aaaa"])
        with pytest.raises(ValueError):
            eng.join_peer("aaaa")

    def test_joiner_above_pmax_wraps(self):
        eng = engine_with_peers(["bbbb", "cccc"])
        eng.join_peer("zzzz")  # above every existing peer
        eng.run()
        eng.check_ring()


class TestOverlappingJoins:
    """A ``NewPredecessor`` can reach a peer whose own join is in flight:
    ``m`` hands ``f`` its arc and counts ``f`` as its predecessor while
    ``f``'s ``YourInformation`` is still queued behind ``d``'s request,
    which was seeded at ``f``.  ``f`` holds the request until its pointers
    and nodes are installed, then answers it."""

    KEYS = ["b", "bb", "c", "e", "g", "h", "n", "z"]

    @pytest.mark.parametrize(
        "factory", [SimTransport, LoopbackAsyncioTransport], ids=["sim", "loopback"]
    )
    def test_a_join_that_reaches_a_joiner_waits_for_it(self, factory):
        async def body():
            t = factory()
            await t.start()
            eng = ProtocolEngine(transport=t)
            eng.bootstrap_peer("a")
            eng.join_peer("m", seed="a")
            await t.drain()
            for k in self.KEYS:
                eng.insert_data(k)
                await t.drain()
            eng.join_peer("f", seed="m")
            eng.join_peer("d", seed="f")
            await t.drain()
            ring, pid = [], "a"
            for _ in eng.peers:
                ring.append(pid)
                pid = eng.peers[pid].succ
            assert ring == ["a", "d", "f", "m"] and pid == "a"
            eng.check_ring()
            eng.check_tree()
            eng.check_mapping()
            assert not any(p.deferred for p in eng.peers.values())
            for k in self.KEYS:
                eng.discover(k)
            await t.drain()
            assert sorted(r.key for r in eng.discovery_replies if r.found) == self.KEYS
            _nothing_waits(eng)
            await t.close()

        asyncio.run(body())


def _ring_with_keys():
    """``(transport, engine)``: ring ``c h m r`` holding eight keys, on a
    simulator whose messages from ``h`` to ``f`` are delayed from now on."""
    t = ChaosTransport(
        SimTransport(), "delay:1.0:max=0.5+seed=1", only=lambda s, d: (s, d) == ("h", "f")
    )
    t.enabled = False
    eng = ProtocolEngine(transport=t)
    eng.bootstrap_peer("c")
    for pid in ("h", "m", "r"):
        eng.join_peer(pid, seed="c")
        eng.run()
    for k in ("ab", "ca", "cb", "fa", "ha", "ka", "ma", "pa"):
        eng.insert_data(k)
        eng.run()
    t.enabled = True
    return t, eng


class TestEarlyMessagesWait:
    """A message that reaches a peer before what it is for must wait
    there, never be dropped: both runs below used to lose the key while
    the ring, tree and mapping checks all passed."""

    @pytest.mark.parametrize(
        "factory", [SimTransport, LoopbackAsyncioTransport], ids=["sim", "loopback"]
    )
    def test_a_message_for_a_node_in_flight_follows_it(self, factory):
        """``m`` hands ``cb`` to the joiner ``f`` while a ``DataInsertion``
        for ``cb`` is already queued at ``m``: the location table names
        ``f`` from the hand-over on, so the insertion follows the node
        over the same link, behind the ``YourInformation`` carrying it."""

        async def body():
            t = factory()
            await t.start()
            eng = ProtocolEngine(transport=t)
            eng.bootstrap_peer("m")
            await t.drain()
            for k in ("aa", "ab", "ba", "bb", "ca", "cb", "ma", "mb"):
                eng.insert_data(k)
                await t.drain()
            eng.pending_node_messages = parking = _Parking()
            eng.join_peer("f", seed="m")
            eng.insert_data("cbz", via="cb")
            await t.drain()
            assert eng.locator["cbz"] == "f" and "cbz" in eng.peers["f"].nodes
            assert parking.parked == []  # forwarded at once, never parked
            eng.check_ring()
            eng.check_tree()
            eng.check_mapping()
            _nothing_waits(eng)
            await t.close()

        asyncio.run(body())

    @pytest.mark.parametrize(
        "factory", [SimTransport, LoopbackAsyncioTransport], ids=["sim", "loopback"]
    )
    def test_an_operation_issued_after_a_leave_reaches_the_successor(self, factory):
        """``h`` leaves hosting ``fa``; an insertion entering at ``fa``
        before ``m`` has installed the transfer goes to ``m`` and waits
        there.  It used to go to ``h``'s endpoint, gone, and dead-letter."""

        async def body():
            t = factory()
            await t.start()
            eng = ProtocolEngine(transport=t)
            eng.bootstrap_peer("c")
            for pid in ("h", "m", "r"):
                eng.join_peer(pid, seed="c")
                await t.drain()
            for k in ("ab", "ca", "cb", "fa", "ha", "ka", "ma", "pa"):
                eng.insert_data(k)
                await t.drain()
            assert "fa" in eng.peers["h"].nodes
            eng.leave_peer("h")
            eng.insert_data("fab", via="fa")
            await t.drain()
            assert eng.locator["fab"] == "m" and t.messages_dead_lettered == 0
            eng.check_ring()
            eng.check_tree()
            eng.check_mapping()
            _nothing_waits(eng)
            await t.close()

        asyncio.run(body())

    def test_a_message_that_reaches_the_new_host_first_waits_for_the_node(self):
        """``h`` hands ``ca`` and ``cb`` to the joiner ``f``, and a
        discovery of ``cb`` issued just after that goes straight to ``f``
        — which overtakes the delayed ``YourInformation`` carrying the
        node.  ``f`` keeps it until ``cb`` is installed, then answers."""
        t, eng = _ring_with_keys()
        eng.join_peer("f", seed="h")
        t.call_later(0.0, lambda: eng.discover("cb", via="cb"))
        eng.run()
        assert [(r.key, r.found) for r in eng.discovery_replies] == [("cb", True)]
        assert eng.locator["cb"] == "f"
        _nothing_waits(eng)

    def test_a_host_that_reaches_a_joiner_waits_for_its_arc(self):
        """``c`` already names ``f`` its successor when ``h``'s delayed
        ``YourInformation`` has not reached ``f``: the ``Host`` for ``ccz``
        that ``c`` forwards to ``f`` waits there until ``f`` knows its arc,
        and then installs the node ``c`` already lists as a child."""
        t, eng = _ring_with_keys()
        eng.join_peer("f", seed="h")
        eng.insert_data("ccz", via="c")
        eng.run()
        assert t.chaos_delayed >= 1
        assert eng.locator["ccz"] == "f"
        eng.check_ring()
        eng.check_tree()
        eng.check_mapping()
        _nothing_waits(eng)


class TestWireVocabulary:
    def test_the_engine_sends_every_wire_message_type(self):
        """A type the codec accepts but no handler path sends is dead
        protocol; one of each operation — seeded and tree-routed joins, a
        leave, inserts that split and splice, a discovery, a key batch and
        a prefix query — must send exactly the codec's types."""
        transport = SimTransport()
        sent = set()
        send = transport.send

        def record(src, dst, payload):
            sent.add(type(payload).__name__)
            send(src, dst, payload)

        transport.send = record
        eng = ProtocolEngine(transport=transport)
        eng.bootstrap_peer("mmmm")
        eng.join_peer("dzzz", seed="mmmm")
        eng.run()
        for key in ("dgemm", "dgemv", "dg", "sgemm", "d", "dgetrf", "a"):
            eng.insert_data(key)
            eng.run()
        eng.join_peer("tttt", via="dgemm")
        eng.run()
        eng.leave_peer("dzzz")
        eng.run()
        eng.discover("dgemm")
        eng.discover_batch(["dgemm", "sgemm", "sgemm"])
        eng.search_query("prefix", "dge")
        eng.run()
        eng.check_ring()
        eng.check_tree()
        assert sent == set(MESSAGE_TYPES)


class TestDataInsertion:
    def test_single_key_becomes_root(self):
        eng = engine_with_peers(["mmmm"])
        eng.insert_data("dgemm")
        eng.run()
        assert eng.node_labels() == {"dgemm"}
        eng.check_tree()

    def test_paper_figure1_shape(self):
        eng = engine_with_peers(["mmmm", "0a", "10b", "11c"])
        for k in ("01", "10101", "10111", "101111"):
            eng.insert_data(k)
            eng.run()
        eng.check_tree()
        eng.check_mapping()
        assert eng.node_labels() == {"", "01", "101", "10101", "10111", "101111"}

    def test_duplicate_key_accumulates_data(self):
        eng = engine_with_peers(["mmmm"])
        eng.insert_data("dgemm", datum="server1")
        eng.run()
        eng.insert_data("dgemm", datum="server2")
        eng.run()
        host = eng.locator["dgemm"]
        assert eng.peers[host].nodes["dgemm"].data == {"server1", "server2"}

    def test_concurrent_insertions_in_disjoint_subtrees(self):
        eng = engine_with_peers(["mmmm", "cccc", "ssss"])
        eng.insert_data("d1")
        eng.run()
        # Two batches issued without quiescing in between.
        eng.insert_data("daxpy")
        eng.insert_data("sgemm")
        eng.run()
        eng.check_tree()
        eng.check_mapping()

    def test_no_pending_messages_after_quiesce(self):
        eng = engine_with_peers(["mmmm", "aaaa"])
        for k in ("dgemm", "dgemv", "dgetrf"):
            eng.insert_data(k)
            eng.run()
        _nothing_waits(eng)


class TestDiscovery:
    def test_found_with_data(self):
        eng = engine_with_peers(["mmmm", "aaaa"])
        eng.insert_data("dgemm", datum="s1")
        eng.run()
        eng.discover("dgemm")
        eng.run()
        (reply,) = eng.discovery_replies
        assert reply.found and reply.data == ("s1",)

    def test_not_found(self):
        eng = engine_with_peers(["mmmm"])
        eng.insert_data("dgemm")
        eng.run()
        eng.discover("zzz")
        eng.run()
        (reply,) = eng.discovery_replies
        assert not reply.found

    def test_discover_on_empty_tree_raises(self):
        eng = engine_with_peers(["mmmm"])
        with pytest.raises(RuntimeError):
            eng.discover("x")

    def test_insert_on_an_empty_ring_is_a_named_error(self):
        """Not a ``StopIteration``: inside a coroutine that leaks out as
        ``RuntimeError: coroutine raised StopIteration``."""
        with pytest.raises(RuntimeError, match="no peers joined"):
            ProtocolEngine().insert_data("x")

    def test_hop_counts_reported(self):
        eng = engine_with_peers(["mmmm"])
        for k in ("01", "10101", "10111"):
            eng.insert_data(k)
            eng.run()
        eng.discover("10111", via="01")
        eng.run()
        (reply,) = eng.discovery_replies
        assert reply.found and reply.hops == 3  # 01 -> ε -> 101 -> 10111


class TestNodeState:
    @settings(max_examples=200, deadline=None)
    @given(
        label=st.text(alphabet="abc", max_size=3),
        tails=st.dictionaries(st.sampled_from("abc"), st.text(alphabet="abc", max_size=3)),
        key=st.text(alphabet="abc", max_size=7),
        under=st.booleans(),
    )
    def test_child_sharing_longer_prefix_is_line_3_05(self, label, tails, key, under):
        """The descent step of discovery, set-query routing and Algorithm 3
        finds the one child the definition names: the child sharing more
        digits with the key than the node itself does."""
        children = tuple(sorted(label + digit + tail for digit, tail in tails.items()))
        node = NodeState(label=label, father=None, children=children)
        key = label + key if under else key
        depth = common_prefix_len(label, key)
        wanted = [q for q in node.children if common_prefix_len(q, key) > depth]
        assert node.child_sharing_longer_prefix(key) == (wanted[0] if wanted else None)

    def test_add_child_keeps_the_tuple_sorted_and_unique(self):
        node = NodeState(label="a", father=None)
        assert node.children == ()
        for label in ("ac", "aa", "ab"):
            node.add_child(label)
        assert node.children == ("aa", "ab", "ac")
        before = node.children
        node.add_child("ab")  # an existing child: a no-op
        assert node.children is before

    @pytest.mark.parametrize(
        "old, new, after",
        [
            ("ab", "abx", ("aa", "abx", "ac")),  # an existing child
            ("az", "ad", ("aa", "ab", "ac", "ad")),  # a missing old
            ("ab", "ac", ("aa", "ac")),  # a new already present
        ],
    )
    def test_replace_child_keeps_set_semantics(self, old, new, after):
        node = NodeState(label="a", father=None, children=("aa", "ab", "ac"))
        node.replace_child(old, new)
        assert node.children == after


class TestCheckTreeRefuses:
    """``check_tree`` is the oracle every engine proof ends with, so each
    of its label and record rules must fail on a corruption of its own."""

    @staticmethod
    def built():
        # Root ε over "ab" (data, one child "abc") and "b" (two children).
        eng = engine_with_peers(["mmmm", "cccc"])
        for k in ("ab", "abc", "b", "bc", "bd"):
            eng.insert_data(k)
            eng.run()
        eng.check_tree()
        return eng

    @staticmethod
    def record(eng, label):
        return eng.peers[eng.locator[label]].nodes[label]

    @pytest.mark.parametrize(
        "children, message",
        [
            (("xabc",), "does not extend"),
            (("ab",), "is its own child"),
            ({"abc"}, "not a tuple"),
            ((5,), "is no label"),
        ],
    )
    def test_a_single_child_that_breaks_the_rules(self, children, message):
        eng = self.built()
        node = self.record(eng, "ab")
        assert node.children == ("abc",)
        node.children = children
        with pytest.raises(AssertionError, match=message):
            eng.check_tree()

    @pytest.mark.parametrize("children", [("bd", "bc"), ("bc", "bc")])
    def test_unsorted_or_repeated_children(self, children):
        eng = self.built()
        node = self.record(eng, "b")
        assert node.children == ("bc", "bd")
        node.children = children
        with pytest.raises(AssertionError, match="not sorted and unique"):
            eng.check_tree()


class TestEquivalenceWithReference:
    """The distributed tree equals the sequential reference tree."""

    def run_and_compare(self, peer_ids, keys, latency_seed=None):
        eng = engine_with_peers(peer_ids, latency_seed=latency_seed)
        ref = PGCPTree()
        for k in keys:
            eng.insert_data(k)
            eng.run()
            ref.insert(k)
        eng.check_tree()
        eng.check_mapping()
        eng.check_ring()
        assert eng.node_labels() == ref.labels()
        ref_edges = {
            (n.parent.label, n.label)
            for n in ref.nodes()
            if n.parent is not None
        }
        assert eng.tree_edges() == ref_edges
        return eng

    def test_blas_subset(self):
        keys = ["dgemm", "dgemv", "daxpy", "sgemm", "S3L_fft", "Pdgesv", "dg"]
        self.run_and_compare(["mmmm", "aaaa", "ssss", "zzzz"], keys)

    def test_with_random_latency(self):
        keys = ["10", "1010", "1001", "11", "0", "101"]
        self.run_and_compare(["mmmm", "aaaa"], keys, latency_seed=9)

    @settings(max_examples=25, deadline=None)
    @given(
        keys=st.lists(
            st.text(alphabet="01", min_size=1, max_size=8),
            min_size=1,
            max_size=12,
            unique=True,
        ),
        n_peers=st.integers(1, 6),
        seed=st.integers(0, 1000),
    )
    def test_any_key_sequence_matches_reference(self, keys, n_peers, seed):
        rng = random.Random(seed)
        ids = set()
        while len(ids) < n_peers:
            ids.add("".join(rng.choice("0123456789abcdef") for _ in range(6)))
        self.run_and_compare(sorted(ids, key=lambda _: rng.random()), keys,
                             latency_seed=seed)

    @settings(max_examples=15, deadline=None)
    @given(
        keys=st.lists(
            st.text(alphabet="01", min_size=1, max_size=6),
            min_size=1, max_size=8, unique=True,
        ),
        seed=st.integers(0, 1000),
    )
    def test_interleaved_joins_and_inserts(self, keys, seed):
        """Joins interleaved with insertions (quiescing between operations)
        still end at reference-equivalent state with a correct mapping."""
        rng = random.Random(seed)
        eng = engine_with_peers(["mmmmmm"])
        ref = PGCPTree()
        for i, k in enumerate(keys):
            eng.insert_data(k)
            eng.run()
            ref.insert(k)
            if i % 2 == 0:
                pid = "".join(rng.choice("0123456789abcdef") for _ in range(6))
                if pid not in eng.peers:
                    eng.join_peer(pid)
                    eng.run()
        eng.check_tree()
        eng.check_mapping()
        eng.check_ring()
        assert eng.node_labels() == ref.labels()
