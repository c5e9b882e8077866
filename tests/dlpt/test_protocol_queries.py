"""Engine set queries: the scan token vs the macro model vs the oracle.

The message-level engine serves :class:`SetQueryRequest` scan tokens; the
macro model (:meth:`DLPTSystem.search`) serves the same queries with
global knowledge.  After any quiesced build the two must return identical
result sets — and both must equal the brute-force filter over the
inserted keys.  The engine's hop counter must equal the macro model's
logical climb + descent + scan accounting, and the requests the engine
sends for one operation must number one (the client's) plus the macro
model's physical hops: a walk steps through its own peer's nodes without a
message.  A key batch walks once: each key's reply is its single
discovery's, and the batch sends one request per cross-peer edge of the
union of the keys' macro paths, plus the client's.
"""

from __future__ import annotations

import bisect
import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import keys_st, prefix_queries, range_queries

from repro.core.keyspace import in_interval_open_closed
from repro.core.queries import PrefixQuery
from repro.dlpt.messages import NodeState, SetQueryReply, SetQueryRequest
from repro.dlpt.protocol import ProtocolEngine, ProtocolPeer
from repro.dlpt.routing import route_path
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
    answer is the oracle's.  A key batch from that entry answers each key
    as its single discovery does, and sends the client's request plus one
    per cross-peer edge of the union of the keys' paths."""

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

    @settings(max_examples=25, deadline=None)
    @given(keys=spread_keys_st, data=st.data())
    def test_discovery_batch(self, keys, data):
        eng, macro, sent = self._systems(keys)
        probes = sorted({k for key in keys for k in (key, key + "c", key[:-1], "cc" + key) if k})
        batch = data.draw(st.lists(st.sampled_from(probes), min_size=1, max_size=12))
        batch.append(batch[0])  # a duplicate: answered once per copy
        for entry in self._entries(eng):
            single = {}
            for key in set(batch):
                mark = len(eng.discovery_replies)
                eng.discover(key, via=entry)
                eng.run()
                (single[key],) = eng.discovery_replies[mark:]
                assert single[key].hops == macro.discover(key, entry_label=entry).logical_hops
            sent.clear()
            mark = len(eng.discovery_replies)
            eng.discover_batch(batch, via=entry)
            eng.run()
            replies = eng.discovery_replies[mark:]
            assert sorted(reply.key for reply in replies) == sorted(batch)
            for reply in replies:
                assert reply == single[reply.key]
            edges = set()
            for key in batch:
                labels = route_path(macro.tree, entry, key).labels
                edges.update(zip(labels, labels[1:]))
            crossings = sum(eng.locator[a] != eng.locator[b] for a, b in edges)
            assert sent["DiscoveryRequest"] + sent["DiscoveryBatch"] == 1 + crossings

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


@settings(max_examples=300, deadline=None)
@given(
    label=st.text(alphabet="abc", max_size=3),
    digits=st.sets(st.sampled_from("abcd"), max_size=4),
    data=st.data(),
)
def test_the_last_child_at_or_below_a_key_is_the_one_that_can_prefix_it(label, digits, data):
    """The discovery walks' descent step: of a node's children (which
    diverge right after its label), the one that prefixes ``key`` is the
    last child ``<= key`` when that child prefixes it — the rule of
    :meth:`NodeState.child_sharing_longer_prefix` plus its prefix check."""
    tails = st.text(alphabet="abcd", max_size=3)
    kids = tuple(sorted(label + digit + data.draw(tails) for digit in digits))
    key = data.draw(st.one_of(
        st.text(alphabet="abcd", max_size=7), tails.map(lambda tail: label + tail)
    ))
    want = NodeState(label, None, kids).child_sharing_longer_prefix(key)
    if want is not None and not key.startswith(want):
        want = None
    i = bisect.bisect_right(kids, key)
    assert (kids[i - 1] if i and key.startswith(kids[i - 1]) else None) == want


class _Sends(list):
    """A transport stand-in that keeps every payload the engine sends."""

    def register(self, endpoint, handler):
        pass

    def send(self, src, dst, payload):
        self.append(payload)


@settings(max_examples=400, deadline=None)
@given(
    label=st.text(alphabet="abc", max_size=3),
    digits=st.sets(st.sampled_from("abcd"), max_size=4),
    data=st.data(),
)
def test_a_range_scan_step_pushes_the_children_the_band_filter_keeps(label, digits, data):
    """A range scan's visit at a node pushes, as one slice of its sorted
    children, exactly the children the band filter keeps, in order: those
    ``<= hi`` that are ``>= lo`` or prefix ``lo``.  Bounds are drawn at,
    around and inside the children, so a bound equal to a child and a
    ``lo`` that extends one are common.  The node's children live on
    another peer, so the token's first message names the first pushed
    child and carries the rest as its pending stack."""
    tails = st.text(alphabet="abcd", max_size=3)
    kids = tuple(sorted(label + digit + data.draw(tails) for digit in digits))
    bounds = [st.text(alphabet="abcd", max_size=7), tails.map(lambda tail: label + tail)]
    if kids:
        near = st.sampled_from(kids)
        bounds += [near, st.tuples(near, tails).map("".join)]
    lo, hi = sorted(data.draw(st.one_of(bounds)) for _ in range(2))
    sends = _Sends()
    eng = ProtocolEngine(transport=sends)
    eng.locator = dict.fromkeys(kids, "pb")
    peer = ProtocolPeer("pa", 10, nodes={label: NodeState(label, None, kids)})
    eng._on_set_query(peer, SetQueryRequest(label, "range", lo, hi, "@client", 1))
    (sent,) = sends
    pushed = [] if isinstance(sent, SetQueryReply) else [sent.node, *reversed(sent.pending)]
    assert pushed == [c for c in kids if not (c > hi or (c < lo and not lo.startswith(c)))]


class TestInsertionFromEveryEntry:
    """The write row of the triangle: Algorithm 3 entered at any node of a
    fixture tree builds the tree the macro model's ``register`` builds, on
    the same hosts.  Entering below the new key's place makes the
    insertion climb — a key at or above the entry's father is forwarded up
    (``a`` via ``abcd`` in a tree of ``ab`` and ``abcd``)."""

    FIXTURE = ("dd", "ddhh", "ddhp", "dp", "pt", "ptc")
    NEW = ("d", "dd", "ddh", "ddhhc", "dh", "c", "p", "t", "ptcd")

    @staticmethod
    def _macro(keys):
        macro = DLPTSystem(capacity_model=FixedCapacity(10**9))
        rng = random.Random(0)
        for peer_id in PEERS:
            macro.add_peer(rng, peer_id=peer_id)
        macro.register_batch(keys)
        return macro

    def test_every_entry_node_and_key(self):
        entries = sorted(build_engine(self.FIXTURE).locator)
        assert "ddh" in entries  # an internal node enters too
        for key in self.NEW:
            macro = self._macro(self.FIXTURE)
            macro.register(key)
            host_of = macro.mapping.host_of
            nodes = list(macro.tree.nodes())
            locator = {n.label: host_of(n.label).id for n in nodes}
            edges = {(n.parent.label, n.label) for n in nodes if n.parent is not None}
            for entry in entries:
                eng = build_engine(self.FIXTURE)
                eng.insert_data(key, via=entry)
                eng.run()
                eng.check_tree()
                eng.check_mapping()
                assert eng.locator == locator, (key, entry)
                assert eng.tree_edges() == edges, (key, entry)
                host = eng.locator[key]
                assert key in eng.peers[host].nodes[key].data, (key, entry)


class TestInsertionSends:
    """The write row's physical side: Algorithm 3 steps through its own
    peer's nodes, so for every entry node and key of
    :class:`TestInsertionFromEveryEntry`'s sweep no ``DataInsertion`` is
    addressed to the peer that sends it, and a new node's ``Host`` goes to
    the sender's own peer only when the mapping rule fails there — that
    ``Host`` is then forwarded along the ring (fidelity note 2), and the
    sweep must reach it.  The trees are still ``register``'s."""

    @staticmethod
    def _counted(eng):
        sent = []
        send = eng.transport.send

        def counted(src, dst, payload):
            if src == dst and type(payload).__name__ == "Host":
                peer = eng.peers[src]
                label = payload.payload.label
                rule = in_interval_open_closed(label, peer.pred, peer.id)
                sent.append(("Host", "self", rule))
            else:
                sent.append((type(payload).__name__, "self" if src == dst else "cross", None))
            send(src, dst, payload)

        eng.transport.send = counted
        return sent

    def test_every_entry_node_and_key(self):
        case = TestInsertionFromEveryEntry
        entries = sorted(build_engine(case.FIXTURE).locator)
        totals = collections.Counter()
        for key in case.NEW:
            macro = case._macro(case.FIXTURE)
            macro.register(key)
            host_of = macro.mapping.host_of
            nodes = list(macro.tree.nodes())
            locator = {n.label: host_of(n.label).id for n in nodes}
            edges = {(n.parent.label, n.label) for n in nodes if n.parent is not None}
            for entry in entries:
                eng = build_engine(case.FIXTURE)
                sent = self._counted(eng)
                eng.insert_data(key, via=entry)
                eng.run()
                eng.check_tree()
                eng.check_mapping()
                assert eng.locator == locator, (key, entry)
                assert eng.tree_edges() == edges, (key, entry)
                assert ("DataInsertion", "self", None) not in sent, (key, entry)
                assert ("Host", "self", True) not in sent, (key, entry)
                totals.update(sent)
        assert totals[("Host", "self", False)] > 0  # a Host the ring forwards
        assert totals[("Host", "cross", None)] >= totals[("Host", "self", False)]
        assert totals[("SearchingHost", "self", None)] > 0
        assert totals[("UpdateChild", "cross", None)] > 0
        # The client's one per insertion, and at least one step across peers.
        assert totals[("DataInsertion", "cross", None)] > len(case.NEW) * len(entries)

    def test_a_host_the_mapping_rule_sends_on(self):
        """``dh`` climbs from ``dd`` to ``d`` and becomes its leaf: the
        descent ends at ``d`` on ``dddd``, but ``dh`` belongs to ``hhhh``,
        so the ``Host`` is sent to ``dddd`` itself and forwarded to its
        successor."""
        eng = build_engine(TestInsertionFromEveryEntry.FIXTURE)
        sent = self._counted(eng)
        eng.insert_data("dh", via="dd")
        eng.run()
        eng.check_mapping()
        assert eng.locator["dh"] == "hhhh"
        assert sent.count(("Host", "self", False)) == 1
        assert sent.count(("Host", "cross", None)) == 1
