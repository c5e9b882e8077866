"""Discovery equivalence: the live resolvers ≡ the seed's per-request walk.

The macro model routes a request one of two ways: a single
:meth:`DLPTSystem.discover` walks the route (as do ``transit`` accounting
and entries in crash-damaged fragments), and :meth:`DLPTSystem.discover_batch`
resolves it through the label-indexed :class:`repro.dlpt.routing.DiscoveryRouter`.
Both must be pure refactors of the seed: on any tree, any workload and any
damage state, every request's outcome (satisfied / found / logical and
physical hops / drop point), every batch counter and every peer's capacity
accounting must be identical to the frozen seed implementation in
:mod:`repro.perf.reference_routing`.  These property tests drive triplet
systems — one served request by request by the walk, one as a single
batch by the index, one by the seed walk — through identical operation and
request sequences.

All inputs come from hypothesis strategies (the shared ones in
``tests/strategies.py``): trees, churn scripts *and* the request mixes,
so shrinking works end to end — a failing example minimises the requests
too, not just the tree they run against.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from strategies import ALPHABET, keys_st, peer_ids_st

from repro.dlpt.failures import ReplicationManager, crash_peer, repair
from repro.dlpt.routing import BatchOutcome
from repro.dlpt.system import DLPTSystem
from repro.peers.capacity import FixedCapacity
from repro.perf.reference_routing import seed_discover
from repro.workloads.dynamics import AdversarialPrefixStacking
from repro.workloads.requests import HotSpotRequests, UniformRequests, ZipfRequests


def _build_twins(peer_ids, keys, capacity):
    """Three identically-constructed systems (same peers, same tree): one
    each for the walk, the seed reference and the batch index."""
    twins = []
    for _ in range(3):
        system = DLPTSystem(
            alphabet=ALPHABET, capacity_model=FixedCapacity(capacity)
        )
        rng = random.Random(0)
        for pid in peer_ids:
            system.add_peer(rng, peer_id=pid)
        for key in keys:
            system.register(key)
        twins.append(system)
    return twins


def _outcome_tuple(outcome):
    return (
        outcome.satisfied,
        outcome.found,
        outcome.logical_hops,
        outcome.physical_hops,
        outcome.dropped_at,
    )


def _peer_accounting(system):
    return {
        p.id: (p.used, p.total_processed, p.total_rejected, dict(p.node_load))
        for p in system.ring
    }


def _absorb(counters, outcome):
    """Fold one seed outcome into ``counters`` the way a batch aggregates
    it (hops and histogram cover satisfied requests only)."""
    if outcome.satisfied:
        counters.satisfied += 1
        counters.logical_hops += outcome.logical_hops
        counters.physical_hops += outcome.physical_hops
        hist = counters.hop_histogram
        hist[outcome.logical_hops] = hist.get(outcome.logical_hops, 0) + 1
    elif outcome.dropped:
        counters.dropped += 1
    else:
        counters.not_found += 1


def _assert_equal_requests(walk, seed, batch, requests, accounting="destination"):
    """Issue ``requests`` (key, entry) one by one on the walk and seed
    twins and as one batch on the third; compare everything."""
    want = BatchOutcome(issued=len(requests))
    for key, entry in requests:
        got = _outcome_tuple(
            walk.discover(key, entry_label=entry, accounting=accounting)
        )
        outcome = seed_discover(seed, key, entry_label=entry, accounting=accounting)
        assert got == _outcome_tuple(outcome), (key, entry, got, outcome)
        _absorb(want, outcome)
    assert _peer_accounting(walk) == _peer_accounting(seed)
    assert batch.discover_batch(requests, accounting=accounting) == want
    assert _peer_accounting(batch) == _peer_accounting(seed)


class TestRandomTrees:
    @settings(max_examples=60, deadline=None)
    @given(peer_ids=peer_ids_st, keys=keys_st, data=st.data())
    def test_uniform_requests_equivalent(self, peer_ids, keys, data):
        walk, seed_sys, batch_sys = _build_twins(peer_ids, keys, capacity=3)
        requests = data.draw(
            strategies.request_mixes(keys, walk.tree.labels(), n=60)
        )
        _assert_equal_requests(walk, seed_sys, batch_sys, requests)

    @settings(max_examples=30, deadline=None)
    @given(peer_ids=peer_ids_st, keys=keys_st, data=st.data())
    def test_transit_accounting_equivalent(self, peer_ids, keys, data):
        walk, seed_sys, batch_sys = _build_twins(peer_ids, keys, capacity=4)
        requests = data.draw(
            strategies.request_mixes(keys, walk.tree.labels(), n=40)
        )
        _assert_equal_requests(
            walk, seed_sys, batch_sys, requests, accounting="transit"
        )


class TestWorkloadGenerators:
    @pytest.mark.parametrize(
        "make_generator",
        [
            lambda: UniformRequests(),
            lambda: ZipfRequests(s=1.2, seed_rng=random.Random(7)),
            lambda: HotSpotRequests("a", intensity=0.9),
            lambda: AdversarialPrefixStacking("ab", s=1.1),
        ],
        ids=["uniform", "zipf", "hotspot", "adversarial"],
    )
    @settings(max_examples=25, deadline=None)
    @given(
        peer_ids=peer_ids_st,
        keys=keys_st,
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_generator_driven_equivalent(self, make_generator, peer_ids, keys, seed, data):
        walk, seed_sys, batch_sys = _build_twins(peer_ids, keys, capacity=3)
        generator = make_generator()
        # The generator's own draws stay on its random.Random API (that
        # sampling behaviour is part of what runs in production); entry
        # nodes come from a strategy, so they shrink with the example.
        rng = random.Random(seed)
        available = sorted(set(keys))
        entries = data.draw(strategies.entry_labels(walk.tree.labels(), n=50))
        requests = [
            (generator.sample(rng, available), entry) for entry in entries
        ]
        _assert_equal_requests(walk, seed_sys, batch_sys, requests)


class TestBatchMatchesPerRequest:
    @settings(max_examples=40, deadline=None)
    @given(peer_ids=peer_ids_st, keys=keys_st, data=st.data())
    def test_batch_counters_match_seed_loop(self, peer_ids, keys, data):
        """discover_batch (the runner's path) aggregates exactly what the
        seed per-request loop would: counters, hop sums, histogram, and
        the peers' capacity state."""
        batch_sys, seed_sys, _ = _build_twins(peer_ids, keys, capacity=2)
        requests = data.draw(
            strategies.request_mixes(keys, batch_sys.tree.labels(), n=80)
        )
        batch = batch_sys.discover_batch(requests)
        want = BatchOutcome(issued=len(requests))
        for key, entry in requests:
            _absorb(want, seed_discover(seed_sys, key, entry_label=entry))
        assert batch == want
        assert _peer_accounting(batch_sys) == _peer_accounting(seed_sys)


class TestAfterChurn:
    @settings(max_examples=40, deadline=None)
    @given(
        peer_ids=peer_ids_st,
        keys=keys_st,
        churn=st.lists(
            st.one_of(
                st.tuples(st.just("join"), st.text(alphabet="abc", min_size=2, max_size=6)),
                st.tuples(st.just("leave"), st.integers(0, 10**6)),
                st.tuples(st.just("register"), st.text(alphabet="abc", min_size=1, max_size=8)),
                st.tuples(st.just("unregister"), st.integers(0, 10**6)),
            ),
            max_size=15,
        ),
        data=st.data(),
    )
    def test_post_churn_equivalent(self, peer_ids, keys, churn, data):
        walk, seed_sys, batch_sys = _build_twins(peer_ids, keys, capacity=3)
        live_keys = sorted(set(keys))
        for op in churn:
            for system in (walk, seed_sys, batch_sys):
                ring = system.ring
                if op[0] == "join" and op[1] not in ring:
                    system.add_peer(random.Random(1), peer_id=op[1], capacity=3)
                elif op[0] == "leave" and len(ring) > 1:
                    system.remove_peer(ring.id_at(op[1] % len(ring)))
                elif op[0] == "register":
                    system.register(op[1])
                elif op[0] == "unregister" and live_keys:
                    system.unregister(live_keys[op[1] % len(live_keys)])
            if op[0] == "register" and op[1] not in live_keys:
                live_keys = sorted(set(live_keys) | {op[1]})
            elif op[0] == "unregister" and live_keys:
                live_keys.pop(op[1] % len(live_keys))
        if not walk.tree.labels():
            return  # churn emptied the tree: nothing to route
        pool = live_keys or sorted(walk.tree.labels())
        requests = data.draw(
            strategies.request_mixes(pool, walk.tree.labels(), n=50)
        )
        _assert_equal_requests(walk, seed_sys, batch_sys, requests)


class TestAfterFaults:
    @settings(max_examples=40, deadline=None)
    @given(
        peer_ids=strategies.peer_ids_min3_st,
        keys=keys_st,
        crash_draws=st.lists(st.integers(0, 10**6), min_size=1, max_size=3),
        do_repair=st.booleans(),
        data=st.data(),
    )
    def test_post_crash_equivalent(self, peer_ids, keys, crash_draws, do_repair, data):
        """Crash-damaged forests (and repaired trees) route identically —
        including entries inside detached fragments, which exercise the
        batch index's walking fallback."""
        walk, seed_sys, batch_sys = _build_twins(peer_ids, keys, capacity=3)
        replications = [
            ReplicationManager(s, factor=1) for s in (walk, seed_sys, batch_sys)
        ]
        for r in replications:
            r.replicate_all()
        lost: set[str] = set()
        for draw in crash_draws:
            if len(walk.ring) <= 1:
                break
            victim = walk.ring.id_at(draw % len(walk.ring))
            for system, replication in zip((walk, seed_sys, batch_sys), replications):
                report = crash_peer(system, victim)
                replication.on_peer_removed(victim)
            lost |= report.lost_keys
        if do_repair:
            for system, replication in zip((walk, seed_sys, batch_sys), replications):
                repair(system, replication, lost_keys=frozenset(lost))
        labels = sorted(walk.tree.labels())
        assert labels == sorted(seed_sys.tree.labels())
        assert labels == sorted(batch_sys.tree.labels())
        if not labels:
            return
        pool = sorted(walk.tree.keys()) or labels
        requests = data.draw(
            strategies.request_mixes(pool, walk.tree.labels(), n=50)
        )
        _assert_equal_requests(walk, seed_sys, batch_sys, requests)
