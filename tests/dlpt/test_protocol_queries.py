"""Engine set queries: the scan token vs the macro model vs the oracle.

The message-level engine serves :class:`SetQueryRequest` scan tokens; the
macro model (:meth:`DLPTSystem.search`) serves the same queries with
global knowledge.  After any quiesced build the two must return identical
result sets — and both must equal the brute-force filter over the
inserted keys.  The engine's hop counter must equal the macro model's
logical climb + descent + scan accounting, and the requests the engine
sends for one operation must number one (the client's) plus the macro
model's physical hops: a walk steps through its own peer's nodes without a
message.
"""

from __future__ import annotations

import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import keys_st, prefix_queries, range_queries

from repro.core.queries import PrefixQuery
from repro.dlpt.protocol import ProtocolEngine
from repro.dlpt.system import DLPTSystem
from repro.peers.capacity import FixedCapacity

from test_protocol import engine_with_peers


def issue(eng: ProtocolEngine, kind: str, lo: str, hi: str = "", via=None):
    mark = len(eng.query_replies)
    eng.search_query(kind, lo, hi, via=via)
    eng.run()
    replies = eng.query_replies[mark:]
    del eng.query_replies[mark:]
    assert len(replies) == 1, f"{len(replies)} replies for one query"
    return replies[0]


PEERS = ("dddd", "hhhh", "pppp", "tttt")


def build_engine(keys):
    eng = engine_with_peers(PEERS)
    for key in keys:
        eng.insert_data(key)
        eng.run()
    return eng


class TestEngineAnswers:
    def test_prefix_completion(self):
        eng = build_engine(["dgemm", "dgemv", "dgetrf", "sgemm"])
        reply = issue(eng, "prefix", "dge")
        assert list(reply.keys) == ["dgemm", "dgemv", "dgetrf"]

    def test_range(self):
        eng = build_engine(["dgemm", "dgemv", "dgetrf", "sgemm"])
        reply = issue(eng, "range", "dgemv", "sgemm")
        assert list(reply.keys) == ["dgemv", "dgetrf", "sgemm"]

    def test_empty_prefix_returns_everything(self):
        keys = ["dgemm", "dgemv", "sgemm"]
        eng = build_engine(keys)
        assert list(issue(eng, "prefix", "").keys) == sorted(keys)

    def test_foreign_prefix_returns_nothing(self):
        eng = build_engine(["dgemm", "dgemv"])
        reply = issue(eng, "prefix", "zz")
        assert reply.keys == ()

    def test_exact_probe_as_degenerate_range(self):
        eng = build_engine(["dgemm", "dgemv"])
        assert list(issue(eng, "range", "dgemm", "dgemm").keys) == ["dgemm"]
        assert issue(eng, "range", "dgemx", "dgemx").keys == ()

    def test_entry_node_does_not_change_answer(self):
        eng = build_engine(["dgemm", "dgemv", "dgetrf", "sgemm", "ssyrk"])
        answers = {
            issue(eng, "prefix", "dge", via=label).keys
            for label in list(eng.locator)
        }
        assert answers == {("dgemm", "dgemv", "dgetrf")}


class TestEngineValidation:
    def test_unknown_kind_rejected(self):
        eng = build_engine(["dgemm"])
        with pytest.raises(ValueError, match="kind"):
            eng.search_query("glob", "d*")

    def test_empty_range_rejected(self):
        eng = build_engine(["dgemm"])
        with pytest.raises(ValueError, match="empty range"):
            eng.search_query("range", "z", "a")

    def test_empty_tree_raises(self):
        eng = engine_with_peers(["dddd", "pppp"])
        with pytest.raises(RuntimeError, match="empty"):
            eng.search_query("prefix", "d")


class TestEngineVsMacroVsOracle:
    """The differential triangle on a common key set.

    Node labels are tree-structural, so the engine's locator and the
    macro tree hold the same labels; issuing the same query from the same
    entry node must yield identical result sets (both equal to the
    brute-force oracle) and identical hop counts — the engine's reply
    counter against the macro model's logical hops.
    """

    def _systems(self, keys, seed=0):
        eng = build_engine(keys)
        macro = DLPTSystem(capacity_model=FixedCapacity(10**9))
        macro.build(random.Random(seed), 6)
        macro.register_batch(keys)
        assert set(eng.locator) == {n.label for n in macro.tree.nodes()}
        return eng, macro

    def _compare(self, eng, macro, query):
        kind = "prefix" if isinstance(query, PrefixQuery) else "range"
        lo = query.prefix if kind == "prefix" else query.lo
        hi = "" if kind == "prefix" else query.hi
        oracle = sorted(
            k for k in eng.locator if self._filled(eng, k) and query.matches(k)
        )
        entries = sorted(eng.locator)
        picked = entries[:: max(1, len(entries) // 5)][:5]
        for entry in picked:
            out = macro.search(query, entry_label=entry)
            reply = issue(eng, kind, lo, hi, via=entry)
            assert list(reply.keys) == list(out.results) == oracle
            assert reply.hops == out.logical_hops

    @staticmethod
    def _filled(eng, label):
        host = eng.locator[label]
        return bool(eng.peers[host].nodes[label].data)

    @settings(max_examples=25, deadline=None)
    @given(data=keys_st.flatmap(
        lambda keys: prefix_queries(keys).map(lambda q: (keys, q))
    ))
    def test_prefix_triangle(self, data):
        keys, query = data
        eng, macro = self._systems(keys)
        self._compare(eng, macro, query)

    @settings(max_examples=25, deadline=None)
    @given(data=keys_st.flatmap(
        lambda keys: range_queries(keys).map(lambda q: (keys, q))
    ))
    def test_range_triangle(self, data):
        keys, query = data
        eng, macro = self._systems(keys)
        self._compare(eng, macro, query)


#: Keys whose characters straddle the engine's peer ids, so the lowest-peer
#: mapping spreads one tree over all four peers.
spread_keys_st = st.lists(
    st.text(alphabet="cdhpt", min_size=1, max_size=6), min_size=1, max_size=25
)


class TestPhysicalHops:
    """The triangle's physical side: the macro model is built on the
    engine's own four peers, so both place every node on the same host.
    For one request from one entry node the engine's reply counts the
    macro model's *logical* hops, the engine sends ``1 + physical_hops``
    requests (the client's, then one per step to another peer), and the
    answer is the oracle's."""

    def _systems(self, keys):
        eng = build_engine(keys)
        macro = DLPTSystem(capacity_model=FixedCapacity(10**9))
        rng = random.Random(0)
        for peer_id in PEERS:
            macro.add_peer(rng, peer_id=peer_id)
        macro.register_batch(keys)
        host_of = macro.mapping.host_of
        assert eng.locator == {n.label: host_of(n.label).id for n in macro.tree.nodes()}
        sent = collections.Counter()
        send = eng.transport.send

        def counted(src, dst, payload):
            sent[type(payload).__name__] += 1
            send(src, dst, payload)

        eng.transport.send = counted
        return eng, macro, sent

    @staticmethod
    def _entries(eng):
        entries = sorted(eng.locator)
        return entries[:: max(1, len(entries) // 5)][:5]

    @settings(max_examples=25, deadline=None)
    @given(keys=spread_keys_st)
    def test_discovery(self, keys):
        eng, macro, sent = self._systems(keys)
        probes = sorted({k for key in keys for k in (key, key + "c", key[:-1], "cc" + key) if k})
        for entry in self._entries(eng):
            for key in probes:
                sent.clear()
                mark = len(eng.discovery_replies)
                eng.discover(key, via=entry)
                eng.run()
                (reply,) = eng.discovery_replies[mark:]
                out = macro.discover(key, entry_label=entry)
                assert reply.hops == out.logical_hops
                assert sent["DiscoveryRequest"] == 1 + out.physical_hops
                assert reply.found == out.found == (key in eng.locator)
                assert set(reply.data) == ({key} if key in keys else set())

    def _compare(self, keys, query):
        eng, macro, sent = self._systems(keys)
        kind = "prefix" if isinstance(query, PrefixQuery) else "range"
        lo = query.prefix if kind == "prefix" else query.lo
        hi = "" if kind == "prefix" else query.hi
        oracle = sorted(k for k in set(keys) if query.matches(k))
        for entry in self._entries(eng):
            sent.clear()
            reply = issue(eng, kind, lo, hi, via=entry)
            out = macro.search(query, entry_label=entry)
            assert reply.hops == out.logical_hops
            assert sent["SetQueryRequest"] == 1 + out.physical_hops
            assert list(reply.keys) == list(out.results) == oracle

    @settings(max_examples=25, deadline=None)
    @given(data=spread_keys_st.flatmap(
        lambda keys: prefix_queries(keys).map(lambda q: (keys, q))
    ))
    def test_prefix(self, data):
        keys, query = data
        self._compare(keys, query)

    @settings(max_examples=25, deadline=None)
    @given(data=spread_keys_st.flatmap(
        lambda keys: range_queries(keys).map(lambda q: (keys, q))
    ))
    def test_range(self, data):
        keys, query = data
        self._compare(keys, query)
