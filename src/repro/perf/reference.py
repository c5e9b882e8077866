"""The frozen seed reference — the "before" of every speedup.

:class:`SeedDLPTSystem` is the one seam through which a benchmark or an
equivalence test selects the reference implementation: construct it
instead of :class:`repro.dlpt.system.DLPTSystem` and every batch entry
point — ``add_peers``, ``register_batch``, ``register_pairs``,
``discover_batch`` — runs the repository's original per-peer, per-key,
per-datum and per-request loops over the original per-label mapping
(:class:`SeedLexicographicMapping`, the default ``mapping_factory``) and
the original per-request walk (:mod:`repro.perf.reference_routing`).
Nothing else selects it: no option on the experiment config, the runner
or ``repair`` — the implementation is the class you construct
(``run_single(config, system_factory=SeedDLPTSystem)``).

The mapping classes are byte-for-byte behavioural copies of the original
per-label code: membership changes scan the successor's whole node set
with a Python-level interval predicate per label, and every migration
updates the host map and peer node-sets one label at a time.

None of this is used by the live system.  It exists so that

* :mod:`repro.perf.bench` can report honest before/after timings against
  the interval-batched mapping, the indexed discovery router and the bulk
  construction path on identical workloads, and
* ``tests/dlpt/test_mapping_equivalence.py`` and
  ``tests/core/test_construction_equivalence.py`` can property-check that
  the optimised :class:`repro.dlpt.mapping.LexicographicMapping` and the
  batched :meth:`DLPTSystem.register_batch` / :meth:`PGCPTree.insert_batch`
  fast path produce byte-identical ``host`` maps, ``migrations`` counters,
  trees and run metrics.

Do not "optimise" this module; its slowness is its specification.
"""

from __future__ import annotations

from typing import Dict, Set

from ..core.keyspace import in_interval_open_closed
from ..dht.hashing import DEFAULT_BITS, hash_to_int
from ..dlpt.routing import BatchOutcome
from ..dlpt.system import DLPTSystem
from ..peers.peer import Peer
from ..peers.ring import Ring
from ..util.sortedlist import SortedList
from .reference_routing import seed_discover


class SeedLexicographicMapping:
    """The seed's self-contained mapping: per-label scans and moves."""

    supports_reposition = True

    def __init__(self, ring: Ring) -> None:
        self.ring = ring
        self.host: Dict[str, Peer] = {}
        self.migrations = 0

    # -- queries -----------------------------------------------------------

    def host_of(self, label: str) -> Peer:
        return self.host[label]

    def labels(self) -> Set[str]:
        return set(self.host)

    # -- tree change hooks -------------------------------------------------

    def on_node_created(self, label: str) -> None:
        peer = self.ring.successor_of_key(label)
        self.host[label] = peer
        peer.host_node(label)

    def on_node_removed(self, label: str) -> None:
        peer = self.host.pop(label)
        peer.drop_node(label)

    # -- membership change hooks -------------------------------------------

    def on_peer_joined(self, peer: Peer) -> int:
        if len(self.ring) <= 1:
            return 0
        succ = self.ring.successor(peer.id)
        pred = self.ring.predecessor(peer.id)
        moving = [
            lbl
            for lbl in succ.nodes
            if in_interval_open_closed(lbl, pred.id, peer.id)
        ]
        for lbl in moving:
            self._move(lbl, succ, peer)
        return len(moving)

    def on_peer_leaving(self, peer: Peer) -> int:
        if len(self.ring) <= 1:
            if peer.nodes:
                raise RuntimeError("cannot drain the last peer while nodes exist")
            return 0
        succ = self.ring.successor(peer.id)
        moving = list(peer.nodes)
        for lbl in moving:
            self._move(lbl, peer, succ)
        return len(moving)

    def reposition(self, peer: Peer, new_id: str) -> int:
        old_id = peer.id
        if new_id == old_id:
            return 0
        succ = self.ring.successor(old_id)
        self.ring.reposition(peer, new_id)
        if in_interval_open_closed(new_id, old_id, succ.id):
            moving = [
                lbl
                for lbl in succ.nodes
                if in_interval_open_closed(lbl, old_id, new_id)
            ]
            for lbl in moving:
                self._move(lbl, succ, peer)
        else:
            moving = [
                lbl
                for lbl in peer.nodes
                if in_interval_open_closed(lbl, new_id, old_id)
            ]
            for lbl in moving:
                self._move(lbl, peer, succ)
        return len(moving)

    # -- internals ---------------------------------------------------------

    def _move(self, label: str, src: Peer, dst: Peer) -> None:
        src.drop_node(label)
        dst.host_node(label)
        self.host[label] = dst
        self.migrations += 1

    # -- invariants --------------------------------------------------------

    def check_invariants(self) -> None:
        for label, peer in self.host.items():
            expected = self.ring.successor_of_key(label)
            assert peer is expected
            assert label in peer.nodes
        counted = sum(len(p.nodes) for p in self.ring)
        assert counted == len(self.host)


class SeedHashedMapping:
    """The seed's DHT (random-mapping) baseline: per-label hash scans."""

    supports_reposition = False

    def __init__(self, ring: Ring, bits: int = DEFAULT_BITS) -> None:
        self.ring = ring
        self.bits = bits
        self.modulus = 1 << bits
        self.host: Dict[str, Peer] = {}
        self._label_hash: Dict[str, int] = {}
        self._peer_positions: SortedList[int] = SortedList()
        self._peer_by_position: Dict[int, Peer] = {}
        self.migrations = 0

    def _hash(self, label: str) -> int:
        h = self._label_hash.get(label)
        if h is None:
            h = hash_to_int(label, self.bits)
            self._label_hash[label] = h
        return h

    def _peer_position(self, peer: Peer) -> int:
        return hash_to_int(peer.id, self.bits)

    def _owner_of_hash(self, h: int) -> Peer:
        pos = self._peer_positions.successor(h)
        return self._peer_by_position[pos]

    def host_of(self, label: str) -> Peer:
        return self.host[label]

    def on_node_created(self, label: str) -> None:
        peer = self._owner_of_hash(self._hash(label))
        self.host[label] = peer
        peer.host_node(label)

    def on_node_removed(self, label: str) -> None:
        peer = self.host.pop(label)
        peer.drop_node(label)
        self._label_hash.pop(label, None)

    def on_peer_joined(self, peer: Peer) -> int:
        pos = self._peer_position(peer)
        if pos in self._peer_by_position:
            raise ValueError(f"hash position collision for peer {peer.id!r}")
        first = len(self._peer_positions) == 0
        self._peer_positions.add(pos)
        self._peer_by_position[pos] = peer
        if first:
            return 0
        succ_pos = self._peer_positions.strict_successor(pos)
        succ = self._peer_by_position[succ_pos]
        pred_pos = self._peer_positions.predecessor(pos)
        moving = [
            lbl
            for lbl in succ.nodes
            if in_interval_open_closed(self._hash(lbl), pred_pos, pos)
        ]
        for lbl in moving:
            self._move(lbl, succ, peer)
        return len(moving)

    def on_peer_leaving(self, peer: Peer) -> int:
        pos = self._peer_position(peer)
        if len(self._peer_positions) <= 1:
            if peer.nodes:
                raise RuntimeError("cannot drain the last peer while nodes exist")
            self._peer_positions.discard(pos)
            self._peer_by_position.pop(pos, None)
            return 0
        succ_pos = self._peer_positions.strict_successor(pos)
        succ = self._peer_by_position[succ_pos]
        moving = list(peer.nodes)
        for lbl in moving:
            self._move(lbl, peer, succ)
        self._peer_positions.remove(pos)
        del self._peer_by_position[pos]
        return len(moving)

    def reposition(self, peer: Peer, new_id: str) -> int:
        raise NotImplementedError(
            "MLT repositioning is undefined under a hashed mapping"
        )

    def _move(self, label: str, src: Peer, dst: Peer) -> None:
        src.drop_node(label)
        dst.host_node(label)
        self.host[label] = dst
        self.migrations += 1

    def check_invariants(self) -> None:
        for label, peer in self.host.items():
            expected = self._owner_of_hash(self._hash(label))
            assert peer is expected
            assert label in peer.nodes
        counted = sum(len(p.nodes) for p in self.ring)
        assert counted == len(self.host)


class SeedDLPTSystem(DLPTSystem):
    """A :class:`DLPTSystem` whose batch entry points are the seed's loops
    (module doc); every other operation is inherited."""

    def __init__(self, *, mapping_factory=None, **kwargs) -> None:
        super().__init__(
            mapping_factory=mapping_factory or SeedLexicographicMapping, **kwargs
        )

    def add_peers(self, rng, n_peers=None, capacities=None, peer_ids=None):
        """The seed's bootstrap loop (the pre-batch ``DLPTSystem.build``):
        one ring insert and one mapping join hook per peer, in caller
        order."""
        count = len(peer_ids) if peer_ids is not None else n_peers
        return [
            self.add_peer(
                rng,
                peer_id=peer_ids[i] if peer_ids is not None else None,
                capacity=capacities[i] if capacities is not None else None,
            )
            for i in range(count)
        ]

    def register_batch(self, keys) -> int:
        """The seed's registration loop (the pre-batch growth path): every
        key pays a full root-descent insert, and every created node a
        hook-driven mapping placement."""
        register = self.register
        for key in keys:
            register(key)
        return len(keys)

    def register_pairs(self, pairs) -> int:
        """The seed's repair loop: one :meth:`register` per datum."""
        pairs = list(pairs)
        for key, datum in pairs:
            self.register(key, datum)
        return len(pairs)

    def discover_batch(
        self,
        pairs,
        accounting: str = "destination",
        skip_missing_entries: bool = False,
    ) -> BatchOutcome:
        """The seed's serving loop: one :func:`seed_discover` walk and one
        outcome object per request, folded into the batch counters."""
        stats = BatchOutcome()
        node_of = self.tree.node
        hist = stats.hop_histogram
        for key, entry in pairs:
            stats.issued += 1
            if skip_missing_entries and node_of(entry) is None:
                # The recorded entry node does not exist in *this*
                # system (a fault trace replayed under a weaker repair
                # policy): the client knocked on a dead node.
                stats.not_found += 1
                continue
            outcome = seed_discover(
                self, key, entry_label=entry, accounting=accounting
            )
            if outcome.satisfied:
                stats.satisfied += 1
                stats.logical_hops += outcome.logical_hops
                stats.physical_hops += outcome.physical_hops
                hist[outcome.logical_hops] = hist.get(outcome.logical_hops, 0) + 1
            elif outcome.dropped:
                stats.dropped += 1
            else:
                stats.not_found += 1
        return stats
