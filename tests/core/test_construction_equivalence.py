"""Construction equivalence: the bulk fast path ≡ sequential insertion.

The bulk-construction PR (:meth:`PGCPTree.insert_batch`'s sorted-cursor
walk, :meth:`LexicographicMapping.place_batch`'s deferred run-grouped
placement, :meth:`Ring.join_many`, and the :meth:`DLPTSystem.register_batch`
/ :meth:`DLPTSystem.add_peers` plumbing) must be a pure performance change:
on any key set — random, post-churn, or re-registered by fault repair — the
final tree (node set, parent/child edges, per-node data), the node→peer
placements, the entry-node index, the ``tree.version`` advance and the
O(1) registered-key counter must be identical to the sequential seed path.
These property tests drive twin systems through identical inputs, one per
key and one batched — same style as
``tests/dlpt/test_discovery_equivalence.py``.
"""

from __future__ import annotations

import itertools
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alphabet import Alphabet
from repro.core.pgcp import PGCPTree
from repro.dlpt.failures import ReplicationManager, crash_peer, repair
from repro.dlpt.system import DLPTSystem
from repro.peers.capacity import FixedCapacity
from repro.perf.reference import SeedDLPTSystem

ALPHABET = Alphabet(digits=("a", "b", "c"), name="abc")

keys_st = st.lists(
    st.text(alphabet="abc", min_size=1, max_size=8), min_size=1, max_size=25
)
pairs_st = st.lists(
    st.tuples(st.text(alphabet="abc", min_size=1, max_size=8), st.integers(0, 3)),
    min_size=1,
    max_size=25,
)
peer_ids_st = st.lists(
    st.text(alphabet="abc", min_size=2, max_size=6),
    min_size=2,
    max_size=8,
    unique=True,
)


def tree_shape(tree: PGCPTree) -> dict:
    """Full structural fingerprint: every node's parent edge, child edges
    and registered data."""
    return {
        node.label: (
            node.parent.label if node.parent is not None else None,
            sorted(child.label for child in node.children.values()),
            sorted(map(repr, node.data)),
        )
        for node in tree.nodes()
    }


def placements(system: DLPTSystem) -> dict:
    return {label: peer.id for label, peer in system.mapping.host.items()}


def assert_equivalent(batch: DLPTSystem, seq: DLPTSystem) -> None:
    batch.check_invariants()
    seq.check_invariants()
    assert tree_shape(batch.tree) == tree_shape(seq.tree)
    assert batch.tree.version == seq.tree.version
    assert batch.tree.filled_count == seq.tree.filled_count
    assert batch.registered_key_count == len(seq.tree.keys())
    assert placements(batch) == placements(seq)
    assert list(batch.node_index) == list(seq.node_index)


def _twin_systems(peer_ids, capacity=3):
    """Two systems: one bootstrapped via add_peers, one via the per-peer
    loop — both on the same identifiers."""
    batch = DLPTSystem(alphabet=ALPHABET, capacity_model=FixedCapacity(capacity))
    batch.add_peers(random.Random(0), peer_ids=peer_ids)
    seq = DLPTSystem(alphabet=ALPHABET, capacity_model=FixedCapacity(capacity))
    for pid in peer_ids:
        seq.add_peer(random.Random(0), peer_id=pid)
    return batch, seq


class TestRandomTrees:
    """Bare-tree equivalence: insert_batch vs per-key insert."""

    @settings(max_examples=80, deadline=None)
    @given(keys=keys_st)
    def test_one_batch_matches_sequential(self, keys):
        seq, batch = PGCPTree(), PGCPTree()
        for key in keys:
            seq.insert(key)
        batch.insert_batch([(key, None) for key in keys])
        seq.check_invariants()
        batch.check_invariants()
        assert tree_shape(batch) == tree_shape(seq)
        assert batch.version == seq.version  # same created-node count
        assert batch.filled_count == seq.filled_count == len(set(keys))

    @settings(max_examples=60, deadline=None)
    @given(keys=keys_st, chunk=st.integers(1, 6))
    def test_chunked_batches_on_existing_tree(self, keys, chunk):
        """Batches applied to a non-empty tree (the runner registers one
        batch per growth unit) still converge to the sequential tree."""
        seq, batch = PGCPTree(), PGCPTree()
        for key in keys:
            seq.insert(key)
        for i in range(0, len(keys), chunk):
            batch.insert_batch([(key, None) for key in keys[i : i + chunk]])
        batch.check_invariants()
        assert tree_shape(batch) == tree_shape(seq)
        assert batch.version == seq.version
        assert batch.filled_count == seq.filled_count

    @settings(max_examples=60, deadline=None)
    @given(pairs=pairs_st)
    def test_explicit_data_and_duplicate_keys(self, pairs):
        """(key, datum) pairs — including repeated keys with distinct data
        — accumulate identically; filled_count counts keys, not data."""
        seq, batch = PGCPTree(), PGCPTree()
        for key, datum in pairs:
            seq.insert(key, datum)
        batch.insert_batch(pairs)
        batch.check_invariants()
        assert tree_shape(batch) == tree_shape(seq)
        assert batch.filled_count == seq.filled_count == len({k for k, _ in pairs})


class TestSystemTwins:
    @settings(max_examples=60, deadline=None)
    @given(peer_ids=peer_ids_st, keys=keys_st)
    def test_bulk_bootstrap_and_register_batch(self, peer_ids, keys):
        batch, seq = _twin_systems(peer_ids)
        batch.register_batch(keys)
        for key in keys:
            seq.register(key)
        assert_equivalent(batch, seq)

    @settings(max_examples=40, deadline=None)
    @given(peer_ids=peer_ids_st, pairs=pairs_st)
    def test_register_pairs_with_data(self, peer_ids, pairs):
        batch, seq = _twin_systems(peer_ids)
        batch.register_pairs(pairs)
        for key, datum in pairs:
            seq.register(key, datum)
        assert_equivalent(batch, seq)

    @settings(max_examples=30, deadline=None)
    @given(peer_ids=peer_ids_st, seed=st.integers(0, 2**16), n=st.integers(1, 12))
    def test_random_id_bootstrap_consumes_the_stream_identically(self, peer_ids, seed, n):
        """add_peers with drawn identifiers makes exactly the draws the
        sequential loop would (same ids, same ring) — the RNG-stream
        contract the runner's build_system relies on."""
        batch = DLPTSystem(alphabet=ALPHABET, capacity_model=FixedCapacity(3))
        batch.add_peers(random.Random(seed), n)
        seq = DLPTSystem(alphabet=ALPHABET, capacity_model=FixedCapacity(3))
        rng = random.Random(seed)
        for _ in range(n):
            seq.add_peer(rng)
        assert batch.ring.ids() == seq.ring.ids()

    def test_an_id_repeated_inside_one_batch_is_redrawn(self):
        """A sampler that repeats an id before the batch joins: the bulk
        path must treat the earlier draw as taken, exactly as the
        sequential loop treats a peer already on the ring."""

        def sampler_factory():
            ids = itertools.cycle(["aa", "aa", "bb"])
            return lambda rng: (rng.random(), next(ids))[1]

        batch = DLPTSystem(alphabet=ALPHABET, capacity_model=FixedCapacity(3),
                           peer_id_sampler=sampler_factory())
        batch_rng = random.Random(5)
        peers = batch.add_peers(batch_rng, 2)
        seq = DLPTSystem(alphabet=ALPHABET, capacity_model=FixedCapacity(3),
                         peer_id_sampler=sampler_factory())
        seq_rng = random.Random(5)
        for _ in range(2):
            seq.add_peer(seq_rng)
        assert [p.id for p in peers] == ["aa", "bb"]
        assert batch.ring.ids() == seq.ring.ids() == ["aa", "bb"]
        assert batch_rng.getstate() == seq_rng.getstate()


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
        late_keys=keys_st,
    )
    def test_post_churn_batch_matches_sequential(self, peer_ids, keys, churn, late_keys):
        """After identical membership churn and un/registrations, a late
        batch lands identically to the per-key loop — and the O(1) key
        counter tracks removals and contractions correctly throughout."""
        batch, seq = _twin_systems(peer_ids)
        batch.register_batch(keys)
        for key in keys:
            seq.register(key)
        live_keys = sorted(set(keys))
        for op in churn:
            for system in (batch, seq):
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
        batch.register_batch(late_keys)
        for key in late_keys:
            seq.register(key)
        assert_equivalent(batch, seq)
        assert batch.registered_key_count == len(batch.tree.keys())


class TestAfterFaults:
    @settings(max_examples=40, deadline=None)
    @given(
        peer_ids=st.lists(
            st.text(alphabet="abc", min_size=2, max_size=6),
            min_size=3, max_size=8, unique=True,
        ),
        keys=keys_st,
        crash_draws=st.lists(st.integers(0, 10**6), min_size=1, max_size=3),
    )
    def test_repair_bulk_matches_repair_seed(self, peer_ids, keys, crash_draws):
        """Fault repair through register_pairs rebuilds the exact tree the
        per-key re-registration loop (the frozen reference system, seed
        mapping included) would, and reconciles the key counter after the
        crash surgery that bypassed the normal remove path."""
        twins = []
        for system_class in (DLPTSystem, SeedDLPTSystem):
            system = system_class(alphabet=ALPHABET, capacity_model=FixedCapacity(3))
            system.add_peers(random.Random(0), peer_ids=peer_ids)
            system.register_batch(keys)
            twins.append(system)
        bulk_sys, seed_sys = twins
        replications = [ReplicationManager(s, factor=1) for s in twins]
        for r in replications:
            r.replicate_all()
        lost: set[str] = set()
        for draw in crash_draws:
            if len(bulk_sys.ring) <= 1:
                break
            victim = bulk_sys.ring.id_at(draw % len(bulk_sys.ring))
            for system, replication in zip(twins, replications):
                report = crash_peer(system, victim)
                replication.on_peer_removed(victim)
            lost |= report.lost_keys
            # Crash surgery must keep the counter consistent pre-repair.
            for system in twins:
                assert system.registered_key_count == len(system.tree.keys())
        repair(bulk_sys, replications[0], lost_keys=frozenset(lost))
        repair(seed_sys, replications[1], lost_keys=frozenset(lost))
        assert_equivalent(bulk_sys, seed_sys)
        assert bulk_sys.registered_key_count == len(bulk_sys.tree.keys())


class TestRunnerEquivalence:
    """End-to-end: a run is metrics-invariant under the system class it is
    executed on (live vs the frozen ``SeedDLPTSystem``: construction,
    serving and mapping all differ), and trace replay stays byte-identical
    under the default bulk path."""

    def _config(self, **overrides):
        from repro.experiments.config import ExperimentConfig
        from repro.lb.mlt import MLT
        from repro.peers.churn import DYNAMIC

        defaults = dict(
            n_peers=30,
            total_units=12,
            growth_units=4,
            load_fraction=0.3,
            churn=DYNAMIC,
            workload="flash_crowd:S3L:onset=5:half_life=3",
            lb=MLT(),
        )
        defaults.update(overrides)
        return ExperimentConfig(**defaults)

    @staticmethod
    def _metrics_bytes(result) -> str:
        from repro.experiments.metrics import run_metrics_dict

        return json.dumps(run_metrics_dict(result), sort_keys=True)

    def test_construction_axis_is_metrics_invariant(self):
        from repro.experiments.runner import run_single

        cfg = self._config()
        bulk = run_single(cfg, 0)
        seed = run_single(cfg, 0, system_factory=SeedDLPTSystem)
        assert self._metrics_bytes(bulk) == self._metrics_bytes(seed)

    def test_construction_axis_invariant_under_faults(self):
        """With fault injection the runner reads the O(1) key counter and
        repair re-registers through the batch path — still invariant."""
        from repro.experiments.runner import run_single

        cfg = self._config(faults="crash_storm:0.05:r=2")
        bulk = run_single(cfg, 0)
        seed = run_single(cfg, 0, system_factory=SeedDLPTSystem)
        assert self._metrics_bytes(bulk) == self._metrics_bytes(seed)

    def test_record_replay_byte_identical_under_bulk(self):
        from repro.experiments.runner import record_single, replay_single
        from repro.workloads.traces import WorkloadTrace

        cfg = self._config()
        result, trace = record_single(cfg, 0)
        replayed = replay_single(cfg, WorkloadTrace.loads(trace.dumps()))
        assert self._metrics_bytes(replayed) == self._metrics_bytes(result)
