"""Node→peer mapping strategies.

The paper's first contribution is a *self-contained* lexicographic mapping:
"The mapping scheme ensures that the peer P chosen to run a given node n
always satisfies the condition that P is the lowest peer id higher than n …
if n > P_max, the peer running n is P_min" (Section 3).  Because consecutive
tree nodes share long prefixes, they tend to land on the same peer, which is
what Figure 9 measures as the communication gain.

The original DLPT [5] instead mapped nodes through a DHT — effectively a
*random* mapping that breaks locality.  That baseline lives in
:mod:`repro.baselines.dlpt_dht` and implements the same interface so the
experiment runner can swap mappings.
"""

from __future__ import annotations

from typing import Dict, Iterable, KeysView, Protocol

from ..core.keyspace import in_interval_open_closed
from ..peers.peer import Peer, migrate_labels
from ..peers.ring import Ring
from ..util.sortedlist import SortedList


class Mapping(Protocol):
    """Strategy interface: owns the host assignment of every tree node."""

    def host_of(self, label: str) -> Peer:  # pragma: no cover - protocol
        ...

    def on_node_created(self, label: str) -> None: ...

    def on_node_removed(self, label: str) -> None: ...

    def on_peer_joined(self, peer: Peer) -> int:
        """Migrate nodes to the newly joined peer; return migration count."""
        ...

    def on_peer_leaving(self, peer: Peer) -> int:
        """Migrate nodes off ``peer`` (still on the ring); return count."""
        ...

    def check_invariants(self) -> None: ...


class HostMap:
    """The host table both mappings keep: ``host[label]`` for every tree
    node, mirrored in each peer's ``nodes`` set.  A subclass decides where a
    label goes; every label that changes host moves through
    :meth:`_move_batch`, which keeps ``migrations`` and ``version``."""

    def __init__(self, ring: Ring) -> None:
        self.ring = ring
        self.host: Dict[str, Peer] = {}
        self.migrations = 0  # lifetime node-migration counter (LB cost metric)
        #: Host-assignment version counter: bumped whenever any label's host
        #: may have changed.  The discovery router's per-node host/hop cache
        #: is valid exactly while this number holds still.
        self.version = 0

    def host_of(self, label: str) -> Peer:
        return self.host[label]

    def labels(self) -> KeysView[str]:
        """Read-only view of every mapped label (no copy; do not mutate)."""
        return self.host.keys()

    def _move_batch(self, labels: Iterable[str], src: Peer, dst: Peer) -> int:
        """Migrate ``labels`` from ``src`` to ``dst`` with bulk set/dict
        operations; returns (and counts) the number of migrations."""
        n = migrate_labels(labels, src, dst, self.host)
        self.migrations += n
        self.version += 1
        return n


class LexicographicMapping(HostMap):
    """The paper's self-contained mapping over the peer ring.

    Maintains ``host[label]`` for every tree node plus each peer's ``nodes``
    set, and migrates exactly the affected interval on membership changes:

    * join of ``P``: labels in the circular interval ``(pred_P, P]`` move
      from ``succ_P`` to ``P`` (Algorithm 2's ν split);
    * leave of ``P``: all of ``P``'s labels move to ``succ_P``;
    * reposition of ``P`` (MLT): labels between the old and new identifier
      move between ``P`` and ``succ_P``.

    A sorted :attr:`label_index` of every mapped label makes each interval
    two bisects plus a slice copy — O(log N + k) for k moved labels — where
    the seed implementation scanned the successor's whole node set.  Moves
    themselves are batched (set/dict bulk updates) instead of per-label
    Python loops, which is what lets churn storms on 10⁴-peer rings run at
    C speed.  :class:`repro.dlpt.system.DLPTSystem` aliases its entry-node
    index to :attr:`label_index`, so the index is maintained once, not twice.
    """

    #: MLT can slide peers along this mapping's ring (see :meth:`reposition`).
    supports_reposition = True

    def __init__(self, ring: Ring) -> None:
        super().__init__(ring)
        #: All mapped labels in lexicographic order — the migration index.
        self.label_index: SortedList[str] = SortedList()

    # -- tree change hooks -------------------------------------------------

    def on_node_created(self, label: str) -> None:
        peer = self.ring.successor_of_key(label)
        self.host[label] = peer
        peer.host_node(label)
        self.label_index.add(label)
        self.version += 1

    def on_node_removed(self, label: str) -> None:
        peer = self.host.pop(label)
        peer.drop_node(label)
        self.label_index.remove(label)
        self.version += 1

    def place_batch(self, labels: Iterable[str]) -> None:
        """Place many freshly created labels in one deferred pass — the bulk
        twin of per-node :meth:`on_node_created` hook firings.

        Per-node placement pays a successor bisect plus an O(N) sorted
        insert for every created label.  Here the batch is sorted once and
        grouped into *runs* sharing a host: the ceiling peer of a label
        hosts every following label up to its identifier (there is no peer
        id in between), so one bisect covers a whole run of consecutive
        labels.  Labels above ``P_max`` wrap to ``P_min`` (the paper's
        mapping rule), which in sorted order is always the final run.  The
        index merge is a single :meth:`SortedList.update` and the version
        bumps once.  Final state is identical to per-node placement
        (property-tested); labels must be new (unmapped) — a duplicate
        fails the atomic index merge.
        """
        batch = sorted(labels)
        if not batch:
            return
        ring = self.ring
        host = self.host
        n = len(batch)
        i = 0
        while i < n:
            label = batch[i]
            peer = ring.successor_of_key(label)
            pid = peer.id
            j = i + 1
            if pid >= label:
                # Run of labels in (label, pid] — all hosted by ``peer``.
                while j < n and batch[j] <= pid:
                    j += 1
            else:
                # Wrapped: ``label`` > P_max, so is every later label.
                j = n
            run = batch[i:j]
            peer.nodes.update(run)
            host.update(dict.fromkeys(run, peer))
            i = j
        self.label_index.update(batch)
        self.version += 1

    # -- membership change hooks ---------------------------------------------

    def on_peer_joined(self, peer: Peer) -> int:
        """``peer`` is already on the ring; pull its interval from its
        successor (the peer that hosted the interval before the join)."""
        if len(self.ring) <= 1:
            return 0
        succ = self.ring.successor(peer.id)
        pred = self.ring.predecessor(peer.id)
        # Every label in (pred, P] was hosted by succ (mapping invariant),
        # so the index range IS the migrating set — no per-label filtering.
        moving = self.label_index.range_open_closed(pred.id, peer.id)
        return self._move_batch(moving, succ, peer)

    def on_peer_leaving(self, peer: Peer) -> int:
        """``peer`` is still on the ring; hand all its nodes to its
        successor before the caller removes it."""
        if len(self.ring) <= 1:
            if peer.nodes:
                raise RuntimeError("cannot drain the last peer while nodes exist")
            return 0
        succ = self.ring.successor(peer.id)
        return self._move_batch(list(peer.nodes), peer, succ)

    def reposition(self, peer: Peer, new_id: str) -> int:
        """MLT's ring move: change ``peer``'s identifier and migrate the
        interval between the old and new position to/from its successor.

        All interval arithmetic is circular, so the move works on the
        wrapped arc too (e.g. the minimum peer — host of the root node ε —
        sliding across the key-space origin).
        """
        old_id = peer.id
        if new_id == old_id:
            return 0
        succ = self.ring.successor(old_id)
        self.ring.reposition(peer, new_id)
        if in_interval_open_closed(new_id, old_id, succ.id):
            # Peer moved towards its successor: absorb (old_id, new_id].
            moving = self.label_index.range_open_closed(old_id, new_id)
            return self._move_batch(moving, succ, peer)
        # Peer moved towards its predecessor: shed (new_id, old_id].
        moving = self.label_index.range_open_closed(new_id, old_id)
        return self._move_batch(moving, peer, succ)

    # -- invariants -----------------------------------------------------------

    def check_invariants(self) -> None:
        """Every node is hosted by the ceiling peer; peer node-sets and the
        label index agree with the host map (property-tested under churn +
        MLT)."""
        for label, peer in self.host.items():
            expected = self.ring.successor_of_key(label)
            assert peer is expected, (
                f"node {label!r} hosted by {peer.id!r}, mapping rule "
                f"demands {expected.id!r}"
            )
            assert label in peer.nodes, f"peer {peer.id!r} missing node {label!r}"
        counted = sum(len(p.nodes) for p in self.ring)
        assert counted == len(self.host), (
            f"peer node-sets hold {counted} labels, host index {len(self.host)}"
        )
        assert self.label_index.as_list() == sorted(self.host), (
            "label index out of sync with the host map"
        )
