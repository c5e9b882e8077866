"""Asynchronous protocol engine: Algorithms 1–3 over simulated messages.

The strongest checks are the equivalence tests: after any quiesced sequence
of joins and insertions, the distributed state must match (a) the Section 3
mapping rule, (b) a consistent bidirectional ring, and (c) the *reference*
PGCP tree built from the same keys.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ids import common_prefix_len
from repro.core.pgcp import PGCPTree
from repro.dlpt.protocol import NodeState, ProtocolEngine
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


class TestWireVocabulary:
    def test_the_engine_sends_every_wire_message_type(self):
        """A type the codec accepts but no handler path sends is dead
        protocol; one of each operation — seeded and tree-routed joins, a
        leave, inserts that split and splice, a discovery and a prefix
        query — must send exactly the codec's types."""
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
        assert eng.pending_node_messages == {}
        assert eng.dead_node_messages == 0


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
        children = {label + digit + tail for digit, tail in tails.items()}
        node = NodeState(label=label, father=None, children=children)
        key = label + key if under else key
        depth = common_prefix_len(label, key)
        wanted = [q for q in node.children if common_prefix_len(q, key) > depth]
        assert node.child_sharing_longer_prefix(key) == (wanted[0] if wanted else None)


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
