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
        for key in self.system.tree.keys():
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
    """Fail-stop removal: the peer leaves the ring and its hosted nodes are
    destroyed (no migration).  The tree is surgically detached: references
    to the dead nodes are removed from surviving fathers/children so the
    remaining forest stays internally consistent for repair."""
    peer = system.ring.peer(peer_id)
    if len(system.ring) == 1:
        raise RuntimeError("cannot crash the last peer")
    lost = set(peer.nodes)
    lost_keys = {lbl for lbl in lost if system.tree.node(lbl).data}

    tree = system.tree
    # Detach lost nodes from survivors.
    for lbl in lost:
        node = tree.node(lbl)
        parent = node.parent
        if parent is not None and parent.label not in lost:
            parent.remove_child(node)
        for child in list(node.children.values()):
            if child.label not in lost:
                node.remove_child(child)  # orphan: survives as a root
    # Remove lost nodes from the index (bypassing normal contraction —
    # their state is gone, not restructured).  The direct index surgery
    # bypasses ``_drop_node``, so the structural version counter that
    # guards the discovery router's caches must be advanced by hand.
    for lbl in lost:
        node = tree._by_label.pop(lbl)
        tree.version += 1
        if tree.on_remove is not None:
            tree.on_remove(node)
    tree.filled_count -= len(lost_keys)  # same surgery applies to the counter
    if tree.root is not None and tree.root.label in lost:
        tree.root = None
    system.ring.leave(peer_id)
    return CrashReport(
        peer_id=peer_id, lost_nodes=frozenset(lost), lost_keys=frozenset(lost_keys)
    )


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
    plus every lost key recoverable from replicas, reset the tree, and
    re-register everything through the normal Algorithm 3 path
    (:meth:`DLPTSystem.register_pairs`: one sorted insert walk plus one
    deferred placement pass where the mapping supports it).  This is the
    simple, provably correct repair — O(|N|) insertions — and its cost is
    exactly what the paper means by trie maintenance being expensive; the
    fault-injection bench measures it.
    """
    tree = system.tree
    # Survey survivors: every currently indexed filled node.
    survivors: Dict[str, set] = {
        lbl: set(node.data) for lbl, node in tree._by_label.items() if node.data
    }
    orphans = sum(
        1
        for node in tree._by_label.values()
        if node.parent is None and (tree.root is None or node is not tree.root)
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
    old_index = list(tree._by_label.values())
    for node in old_index:
        if tree.on_remove is not None:
            tree.on_remove(node)
    tree._by_label.clear()
    tree.root = None
    tree.version += 1  # index surgery bypassed _drop_node (router caches)
    tree.filled_count = 0  # rebuilt below through the counting insert paths

    pairs: list[tuple[str, object]] = []
    for key, data in survivors.items():
        for datum in data or {key}:
            pairs.append((key, datum))
    for key, data in recovered.items():
        for datum in data or {key}:
            pairs.append((key, datum))
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
