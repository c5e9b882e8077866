"""Crash failures, replication and tree repair (extension).

The paper's protocol handles *graceful* membership change: a leaving peer's
nodes migrate to its successor.  Real grids also crash.  The paper's
conclusion defers fault handling ("study its behavior on a real grid …
tune its parameters"), and the DLPT line of work addresses it in companion
papers with replication; this module implements the natural design on top
of our substrate so the overlay is usable under fail-stop faults:

* :class:`ReplicationManager` keeps, for every tree node, a copy of its
  registration data on the ``r`` ring successors of its host (successor
  replication, the classic DHT scheme — the ring is already maintained).
* :func:`crash_peer` removes a peer *without* migration: its hosted nodes
  vanish from the tree (fail-stop data loss).
* :func:`repair` rebuilds the tree from the surviving replicas: every key
  whose node (or whose ancestors) died is re-registered through the normal
  insertion path, recreating structural nodes and the mapping.  Repair cost
  (re-registrations performed) is returned so experiments can quantify the
  maintenance the paper calls "costly".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set

from ..peers.peer import Peer
from .system import DLPTSystem


@dataclass
class ReplicaRecord:
    """Replicated state of one filled tree node."""

    key: str
    data: Set[object] = field(default_factory=set)


class ReplicationManager:
    """Successor replication of registration data.

    ``factor`` is the number of distinct successor peers holding a copy of
    each key's data (in addition to the primary host).  Replicas are plain
    peer-addressed storage — they do not participate in routing — so the
    overlay's behaviour is unchanged until a crash makes a replica the only
    surviving copy.
    """

    def __init__(self, system: DLPTSystem, factor: int = 1) -> None:
        if factor < 1:
            raise ValueError("replication factor must be >= 1")
        self.system = system
        self.factor = factor
        #: peer -> {key -> ReplicaRecord} held *for other peers*.  Keyed by
        #: the :class:`Peer` object (identity), not its ring id: MLT
        #: rebalances by *renaming* peers (``Ring.reposition``), and a
        #: replica must survive its holder moving along the ring.
        self.stores: Dict[Peer, Dict[str, ReplicaRecord]] = {}
        self.replica_writes = 0

    # -- replica placement -------------------------------------------------

    def replica_peers(self, key: str) -> list[Peer]:
        """The ``factor`` distinct peers after the key's host on the ring."""
        ring = self.system.ring
        host = self.system.mapping.host_of(key)
        out: list[Peer] = []
        current = host.id
        for _ in range(min(self.factor, max(len(ring) - 1, 0))):
            peer = ring.successor(current)
            if peer is host or any(p is peer for p in out):
                break
            out.append(peer)
            current = peer.id
        return out

    def replicate_key(self, key: str) -> None:
        """(Re)write the replicas of ``key``'s registration data."""
        node = self.system.tree.node(key)
        if node is None or not node.data:
            return
        for peer in self.replica_peers(key):
            store = self.stores.setdefault(peer, {})
            store[key] = ReplicaRecord(key=key, data=set(node.data))
            self.replica_writes += 1

    def replicate_all(self) -> int:
        """Refresh every filled node's replicas (periodic anti-entropy);
        returns the number of replica writes performed."""
        before = self.replica_writes
        # Key order, not the tree's set order: ``stores`` keeps first-write
        # order, so this fixes it under every hash seed.
        for key in sorted(self.system.tree.keys()):
            self.replicate_key(key)
        return self.replica_writes - before

    # -- membership maintenance ----------------------------------------------

    def on_peer_removed(self, peer: "Peer | str") -> None:
        """Drop the replica store of a departed peer (its copies die with
        it; surviving replicas elsewhere are untouched).  Accepts the peer
        object or its last ring id."""
        if isinstance(peer, str):
            peer = next((p for p in self.stores if p.id == peer), None)
            if peer is None:
                return
        self.stores.pop(peer, None)

    def surviving_records(self) -> Dict[str, ReplicaRecord]:
        """Union of all replicas currently held by *live* peers (peers are
        compared by identity, so a repositioned holder stays live)."""
        out: Dict[str, ReplicaRecord] = {}
        live = set(self.system.ring)
        for peer, store in self.stores.items():
            if peer not in live:
                continue
            for key, rec in store.items():
                if key in out:
                    out[key].data |= rec.data
                else:
                    out[key] = ReplicaRecord(key=key, data=set(rec.data))
        return out


@dataclass(frozen=True)
class CrashReport:
    """What a fail-stop crash destroyed."""

    peer_id: str
    lost_nodes: frozenset[str]
    lost_keys: frozenset[str]


def crash_peer(system: DLPTSystem, peer_id: str) -> CrashReport:
    """Fail-stop removal: the peer's hosted nodes are destroyed (no
    migration) and the peer leaves.  :meth:`~repro.core.pgcp.PGCPTree.detach`
    cuts the nodes out of the tree, so the remaining forest stays internally
    consistent for repair; the now empty peer then leaves through
    :meth:`DLPTSystem.remove_peer`, so a mapping with its own peer index
    (the hashed baseline's hash positions) forgets it too."""
    peer = system.ring.peer(peer_id)
    if len(system.ring) == 1:
        raise RuntimeError("cannot crash the last peer")
    lost = frozenset(peer.nodes)
    lost_keys = system.tree.detach(lost)
    system.remove_peer(peer_id)
    return CrashReport(peer_id=peer_id, lost_nodes=lost, lost_keys=lost_keys)


@dataclass(frozen=True)
class RepairReport:
    """Outcome of a repair pass."""

    reinserted_keys: int
    recovered_from_replicas: int
    unrecoverable_keys: frozenset[str]
    orphans_reattached: int


def repair(
    system: DLPTSystem,
    replication: ReplicationManager | None = None,
    lost_keys: frozenset[str] = frozenset(),
) -> RepairReport:
    """Rebuild a consistent PGCP tree after crashes.

    Strategy: collect the surviving *filled* keys (from orphaned fragments)
    plus every lost key recoverable from replicas, reset the tree
    (:meth:`~repro.core.pgcp.PGCPTree.clear`), and re-register everything
    through the normal Algorithm 3 path
    (:meth:`DLPTSystem.register_pairs`: one sorted insert walk plus one
    deferred placement pass where the mapping supports it).  This is the
    simple, provably correct repair — O(|N|) insertions — and its cost is
    exactly what the paper means by trie maintenance being expensive; the
    fault-injection bench measures it.
    """
    tree = system.tree
    # Survey survivors: every currently indexed filled node.
    survivors: Dict[str, set] = {
        node.label: set(node.data) for node in tree.nodes() if node.data
    }
    orphans = sum(
        1 for node in tree.nodes() if node.parent is None and node is not tree.root
    )

    recovered: Dict[str, set] = {}
    if replication is not None:
        surviving = replication.surviving_records()
        for key in lost_keys:
            rec = surviving.get(key)
            if rec is not None:
                recovered[key] = set(rec.data)
    unrecoverable = frozenset(
        k for k in lost_keys if k not in recovered and k not in survivors
    )

    # Rebuild from scratch through the public path (hooks keep the mapping
    # and node index in sync).
    tree.clear()

    # Survivors, then recovered keys, each in key order and a key's data
    # by ``repr`` (as ``net.cluster.discovery_record`` orders data), so the
    # rebuild's input does not depend on set iteration order, i.e. on the
    # string hash seed.
    pairs = [
        (key, datum)
        for books in (survivors, recovered)
        for key in sorted(books)
        for datum in sorted(books[key] or {key}, key=repr)
    ]
    if pairs:
        system.register_pairs(pairs)
    reinserted = len(pairs)
    if replication is not None:
        replication.replicate_all()
    return RepairReport(
        reinserted_keys=reinserted,
        recovered_from_replicas=len(recovered),
        unrecoverable_keys=unrecoverable,
        orphans_reattached=orphans,
    )
