"""Crash failures, successor replication and tree repair."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dlpt_dht import HashedMapping
from repro.core.alphabet import BINARY
from repro.dlpt.failures import ReplicationManager, crash_peer, repair
from repro.dlpt.mapping import LexicographicMapping
from repro.dlpt.system import DLPTSystem
from repro.peers.capacity import FixedCapacity

KEYS = ["000", "001", "010", "011", "100", "101", "110", "111"]


def build(rng, n_peers=8, keys=KEYS):
    s = DLPTSystem(alphabet=BINARY, capacity_model=FixedCapacity(1000))
    s.build(rng, n_peers)
    for k in keys:
        s.register(k)
    return s


class TestReplication:
    def test_factor_must_be_positive(self, rng):
        with pytest.raises(ValueError):
            ReplicationManager(build(rng), factor=0)

    def test_replicas_on_distinct_successors(self, rng):
        s = build(rng)
        rep = ReplicationManager(s, factor=2)
        peers = rep.replica_peers("101")
        host = s.mapping.host_of("101")
        assert host not in peers
        assert len({p.id for p in peers}) == len(peers) <= 2

    def test_replicate_all_covers_every_key(self, rng):
        s = build(rng)
        rep = ReplicationManager(s, factor=1)
        writes = rep.replicate_all()
        assert writes >= len(KEYS)
        assert set(rep.surviving_records()) == set(KEYS)

    def test_structural_nodes_not_replicated(self, rng):
        s = build(rng)
        rep = ReplicationManager(s, factor=1)
        rep.replicate_all()
        # structural labels (e.g. "0", "00") carry no data records.
        assert all(k in KEYS for k in rep.surviving_records())

    def test_dead_peer_store_dropped(self, rng):
        s = build(rng)
        rep = ReplicationManager(s, factor=1)
        rep.replicate_all()
        some_peer = next(iter(rep.stores))
        rep.on_peer_removed(some_peer)
        assert some_peer not in rep.stores

    def test_replicas_survive_peer_reposition(self, rng):
        """MLT rebalances by *renaming* peers (Ring.reposition); a replica
        held by a renamed peer must stay recoverable — stores are keyed by
        peer identity, not by the mutable ring id."""
        s = build(rng)
        rep = ReplicationManager(s, factor=1)
        rep.replicate_all()
        key = "101"
        (holder,) = rep.replica_peers(key)
        old_id = holder.id
        # Nudge the holder within its (old_id, successor) gap through the
        # mapping layer: order keeps, id changes, node intervals migrate —
        # exactly what MLT's split move does.
        s.mapping.reposition(holder, old_id + "0")
        assert holder.id != old_id
        assert key in rep.surviving_records()
        victim = s.mapping.host_of(key)
        report = crash_peer(s, victim.id)
        rep.on_peer_removed(report.peer_id)
        rr = repair(s, rep, lost_keys=report.lost_keys)
        assert key not in rr.unrecoverable_keys
        assert key in s.registered_keys()

    def test_single_peer_ring_has_no_replica_targets(self, rng):
        s = DLPTSystem(alphabet=BINARY, capacity_model=FixedCapacity(10))
        s.build(rng, 1)
        s.register("1")
        rep = ReplicationManager(s, factor=3)
        assert rep.replica_peers("1") == []


class TestCrash:
    def test_crash_loses_hosted_nodes(self, rng):
        s = build(rng)
        victim = max(s.ring.peers(), key=lambda p: len(p.nodes))
        hosted = set(victim.nodes)
        report = crash_peer(s, victim.id)
        assert report.lost_nodes == hosted
        assert victim.id not in s.ring
        for lbl in hosted:
            assert s.tree.node(lbl) is None

    def test_crash_reports_lost_keys_only(self, rng):
        s = build(rng)
        victim = max(s.ring.peers(), key=lambda p: len(p.nodes))
        report = crash_peer(s, victim.id)
        assert report.lost_keys <= report.lost_nodes
        assert all(k in KEYS for k in report.lost_keys)

    def test_cannot_crash_last_peer(self, rng):
        s = DLPTSystem(alphabet=BINARY, capacity_model=FixedCapacity(10))
        s.build(rng, 1)
        with pytest.raises(RuntimeError):
            crash_peer(s, s.ring.peers()[0].id)

    def test_crash_without_nodes_is_clean(self, rng):
        s = build(rng)
        victim = min(s.ring.peers(), key=lambda p: len(p.nodes))
        if victim.nodes:
            pytest.skip("every peer hosts nodes in this draw")
        crash_peer(s, victim.id)
        s.check_invariants()


class TestRepair:
    def test_repair_without_replication_keeps_survivors(self, rng):
        s = build(rng)
        victim = max(s.ring.peers(), key=lambda p: len(p.nodes))
        report = crash_peer(s, victim.id)
        rr = repair(s, None, lost_keys=report.lost_keys)
        s.check_invariants()
        assert rr.unrecoverable_keys == report.lost_keys
        assert s.registered_keys() == set(KEYS) - set(report.lost_keys)

    def test_repair_with_replication_recovers_everything(self, rng):
        s = build(rng)
        rep = ReplicationManager(s, factor=2)
        rep.replicate_all()
        victim = max(s.ring.peers(), key=lambda p: len(p.nodes))
        report = crash_peer(s, victim.id)
        rep.on_peer_removed(victim.id)
        rr = repair(s, rep, lost_keys=report.lost_keys)
        s.check_invariants()
        assert rr.unrecoverable_keys == frozenset()
        assert s.registered_keys() == set(KEYS)

    def test_repair_preserves_data_values(self, rng):
        s = build(rng, keys=[])
        s.register("1010", "server-A")
        s.register("1010", "server-B")
        rep = ReplicationManager(s, factor=2)
        rep.replicate_all()
        victim = s.mapping.host_of("1010")
        report = crash_peer(s, victim.id)
        repair(s, rep, lost_keys=report.lost_keys)
        assert s.tree.node("1010").data == {"server-A", "server-B"}

    def test_repair_registers_its_pairs_in_sorted_order(self, rng, monkeypatch):
        """The rebuild's input is the surviving keys, then the recovered
        ones, each in key order with a key's data by ``repr``, so its work
        does not depend on set iteration order (the hash seed)."""
        s = build(rng, keys=KEYS[::-1])  # the tree indexes its nodes unsorted
        data = {key: {key} for key in KEYS}
        for datum in ("server-C", "server-A", "server-B"):
            s.register("000", datum)
            data["000"].add(datum)
        rep = ReplicationManager(s, factor=2)
        rep.replicate_all()
        victim = max(s.ring.peers(), key=lambda p: sum(bool(s.tree.node(n).data) for n in p.nodes))
        report = crash_peer(s, victim.id)
        rep.on_peer_removed(victim.id)
        seen = []
        register = s.register_pairs
        monkeypatch.setattr(s, "register_pairs", lambda pairs: register(seen.extend(pairs) or pairs))
        repair(s, rep, lost_keys=report.lost_keys)
        order = sorted(set(KEYS) - report.lost_keys) + sorted(report.lost_keys)
        assert len(report.lost_keys) >= 2
        assert seen == [(key, datum) for key in order for datum in sorted(data[key], key=repr)]
        assert s.registered_keys() == set(KEYS)

    def test_repair_counts_cost(self, rng):
        s = build(rng)
        rep = ReplicationManager(s, factor=1)
        rep.replicate_all()
        victim = max(s.ring.peers(), key=lambda p: len(p.nodes))
        report = crash_peer(s, victim.id)
        rr = repair(s, rep, lost_keys=report.lost_keys)
        # Rebuild re-registers every surviving + recovered key once per datum.
        assert rr.reinserted_keys == len(KEYS) - len(rr.unrecoverable_keys)

    def test_crash_of_the_roots_host_is_repairable(self, rng):
        """The root is the tree's routing apex: its host crashing detaches
        every top-level child, and repair must rebuild a rooted tree."""
        s = build(rng)
        rep = ReplicationManager(s, factor=2)
        rep.replicate_all()
        root_label = s.tree.root.label
        victim = s.mapping.host_of(root_label)
        report = crash_peer(s, victim.id)
        assert root_label in report.lost_nodes
        rep.on_peer_removed(victim.id)
        rr = repair(s, rep, lost_keys=report.lost_keys)
        s.check_invariants()
        assert rr.unrecoverable_keys == frozenset()
        assert s.tree.root is not None
        assert s.registered_keys() == set(KEYS)

    def test_losing_every_replica_reports_true_data_loss(self, rng):
        """When a key's host and all ``r`` of its replica peers crash before
        any re-replication, the loss must surface as unrecoverable — never
        be silently papered over by repair."""
        s = build(rng)
        rep = ReplicationManager(s, factor=1)
        rep.replicate_all()
        key = "101"
        holders = [s.mapping.host_of(key).id] + [p.id for p in rep.replica_peers(key)]
        lost: set[str] = set()
        for pid in holders:
            report = crash_peer(s, pid)
            rep.on_peer_removed(pid)
            lost |= report.lost_keys
        assert key in lost
        rr = repair(s, rep, lost_keys=frozenset(lost))
        s.check_invariants()
        assert key in rr.unrecoverable_keys
        assert key not in s.registered_keys()

    def test_repair_is_idempotent_on_double_invocation(self, rng):
        """A second repair pass over an already-consistent tree must change
        nothing: same keys, no recoveries, no losses."""
        s = build(rng)
        rep = ReplicationManager(s, factor=2)
        rep.replicate_all()
        victim = max(s.ring.peers(), key=lambda p: len(p.nodes))
        report = crash_peer(s, victim.id)
        rep.on_peer_removed(victim.id)
        first = repair(s, rep, lost_keys=report.lost_keys)
        keys_after_first = s.registered_keys()
        second = repair(s, rep)
        s.check_invariants()
        assert s.registered_keys() == keys_after_first
        assert second.recovered_from_replicas == 0
        assert second.unrecoverable_keys == frozenset()
        # The rebuild re-registers the same survivor set both times.
        assert second.reinserted_keys == first.reinserted_keys

    @settings(max_examples=25, deadline=None)
    @given(
        keys=st.lists(st.text(alphabet="01", min_size=1, max_size=8),
                      min_size=1, max_size=20, unique=True),
        seed=st.integers(0, 5000),
        n_crashes=st.integers(1, 3),
    )
    def test_repair_after_multiple_crashes(self, keys, seed, n_crashes):
        rng = random.Random(seed)
        s = build(rng, n_peers=8, keys=keys)
        rep = ReplicationManager(s, factor=2)
        rep.replicate_all()
        lost: set[str] = set()
        for _ in range(min(n_crashes, len(s.ring) - 2)):
            victims = s.ring.ids()
            report = crash_peer(s, victims[rng.randrange(len(victims))])
            rep.on_peer_removed(report.peer_id)
            lost |= report.lost_keys
        rr = repair(s, rep, lost_keys=frozenset(lost))
        s.check_invariants()
        # With factor-2 replication, a key is lost only if its host AND
        # both replicas crashed before any re-replication.
        assert s.registered_keys() | rr.unrecoverable_keys == set(keys)


class TestCrashBooks:
    """Unrepaired crashes keep every structure's books in step, under both
    mappings: the tree's index and counter, the host map and the entry-node
    index (aliased under the lexicographic mapping, hook-chained under the
    hashed one); repair then matches a fresh build."""

    @pytest.mark.parametrize("mapping_factory", [LexicographicMapping, HashedMapping])
    @settings(max_examples=15, deadline=None)
    @given(
        keys=st.lists(st.text(alphabet="01", min_size=1, max_size=8),
                      min_size=1, max_size=20, unique=True),
        seed=st.integers(0, 5000),
        n_crashes=st.integers(1, 4),
    )
    def test_books_after_every_crash(self, mapping_factory, keys, seed, n_crashes):
        rng = random.Random(seed)
        s = DLPTSystem(alphabet=BINARY, capacity_model=FixedCapacity(1000),
                       mapping_factory=mapping_factory)
        s.build(rng, 8)
        s.register_batch(keys)
        rep = ReplicationManager(s, factor=1)
        rep.replicate_all()
        removed: list[str] = []
        hooked = s.tree.on_remove

        def on_remove(node):
            removed.append(node.label)
            hooked(node)

        s.tree.on_remove = on_remove
        tree = s.tree
        lost: set[str] = set()
        for _ in range(n_crashes):
            ids = s.ring.ids()
            del removed[:]
            report = crash_peer(s, ids[rng.randrange(len(ids))])
            rep.on_peer_removed(report.peer_id)
            lost |= report.lost_keys
            assert sorted(removed) == sorted(report.lost_nodes)
            assert tree.filled_count == len(tree.keys())
            assert set(s.mapping.labels()) == tree.labels() == set(s.node_index)
            for node in tree.nodes():
                if node.parent is not None:
                    assert tree.node(node.parent.label) is node.parent
                for child in node.children.values():
                    assert tree.node(child.label) is child
        expected = tree.keys() | (set(rep.surviving_records()) & lost)
        repair(s, rep, lost_keys=frozenset(lost))
        s.check_invariants()
        fresh = DLPTSystem(alphabet=BINARY, mapping_factory=mapping_factory)
        fresh.add_peers(random.Random(0), peer_ids=s.ring.ids())
        fresh.register_batch(sorted(expected))
        assert s.tree.labels() == fresh.tree.labels()
        assert ({lbl: p.id for lbl, p in s.mapping.host.items()}
                == {lbl: p.id for lbl, p in fresh.mapping.host.items()})


#: Builds a seeded system, replicates it and prints the replica-store order
#: and the write count (run in a child, under a chosen hash seed).
_STORE_ORDER = """
import json, random
from repro.dlpt.failures import ReplicationManager
from repro.dlpt.system import DLPTSystem
from repro.workloads.keys import blas_routines

system = DLPTSystem()
system.build(random.Random(5), 30)
for key in blas_routines():
    system.register(key)
replication = ReplicationManager(system, factor=2)
replication.replicate_all()
print(json.dumps([[p.id for p in replication.stores], replication.replica_writes]))
"""


def test_replica_stores_fill_in_the_same_order_under_any_hash_seed():
    """``on_peer_removed(id)`` scans ``stores`` in insertion order, so that
    order (and with it the cost of a crash) must not follow the hash seed."""
    import os
    import subprocess
    import sys

    outputs = [
        subprocess.run(
            [sys.executable, "-c", _STORE_ORDER], capture_output=True, text=True,
            timeout=60, check=True, env=dict(os.environ, PYTHONHASHSEED=seed),
        ).stdout
        for seed in ("0", "7")
    ]
    assert outputs[0] == outputs[1]
