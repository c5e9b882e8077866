"""The original DLPT-over-DHT mapping — Figure 9's "random mapping" baseline.

In the original design [5] the PGCP tree is an upper layer mapped onto the
peers *through a DHT*: a tree node's label is hashed and assigned to the peer
responsible for that hash (Chord rule in hash space).  "A random mapping
results in breaking the locality.  Connected nodes in the tree are randomly
dispatched in random locations of the physical network" (Section 4) — so
nearly every logical hop becomes a physical message.

:class:`HashedMapping` implements the same strategy interface as
:class:`repro.dlpt.mapping.LexicographicMapping`, so the experiment runner
swaps mappings with one constructor argument and everything else (tree
growth, routing, capacity accounting) stays identical — which is exactly the
controlled comparison Figure 9 needs.
"""

from __future__ import annotations

from typing import Dict

from ..dht.hashing import DEFAULT_BITS, hash_to_int
from ..dlpt.mapping import HostMap
from ..peers.peer import Peer
from ..peers.ring import Ring
from ..util.sortedlist import SortedList


class HashedMapping(HostMap):
    """Node→peer assignment by consistent hashing (locality-destroying).

    Mirrors the interval-batched migration of
    :class:`repro.dlpt.mapping.LexicographicMapping`, but in *hash* space: a
    sorted index of ``(hash, label)`` pairs turns a join's takeover interval
    ``(pred_pos, pos]`` into two bisects and a slice instead of a scan over
    the successor's whole node set.
    """

    #: Identifier-space moves do not translate to hash-space moves, so MLT
    #: silently skips balancing instead of corrupting the mapping.
    supports_reposition = False

    def __init__(self, ring: Ring, bits: int = DEFAULT_BITS) -> None:
        super().__init__(ring)
        self.bits = bits
        self._label_hash: Dict[str, int] = {}
        self._peer_positions: SortedList[int] = SortedList()
        self._peer_by_position: Dict[int, Peer] = {}
        #: All mapped labels keyed by hash position — the migration index.
        self._hash_index: SortedList[tuple[int, str]] = SortedList()

    # -- hashing ------------------------------------------------------------

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

    def _labels_in_hash_interval(self, pred_pos: int, pos: int) -> list[str]:
        """Labels whose hash lies in the circular interval ``(pred_pos, pos]``
        — two bisects on the ``(hash, label)`` index.  Hash positions are
        ints, so ``(h + 1, "")`` is the exact open/closed boundary tuple."""
        idx = self._hash_index
        lo = idx.index_left((pred_pos + 1, ""))
        hi = idx.index_left((pos + 1, ""))
        if pred_pos < pos:
            pairs = idx.slice(lo, hi)
        else:  # wrapped (or degenerate full-ring) interval
            pairs = idx.slice(lo, len(idx)) + idx.slice(0, hi)
        return [lbl for _, lbl in pairs]

    # -- tree change hooks -------------------------------------------------

    def on_node_created(self, label: str) -> None:
        h = self._hash(label)
        peer = self._owner_of_hash(h)
        self.host[label] = peer
        peer.host_node(label)
        self._hash_index.add((h, label))
        self.version += 1

    def on_node_removed(self, label: str) -> None:
        peer = self.host.pop(label)
        peer.drop_node(label)
        self._hash_index.remove((self._hash(label), label))
        self._label_hash.pop(label, None)
        self.version += 1

    # -- membership change hooks ---------------------------------------------

    def on_peer_joined(self, peer: Peer) -> int:
        pos = self._peer_position(peer)
        if pos in self._peer_by_position:
            # Hash-position collision: co-locate deterministically by evicting
            # the join (caller retries with a different id).
            raise ValueError(f"hash position collision for peer {peer.id!r}")
        first = len(self._peer_positions) == 0
        self._peer_positions.add(pos)
        self._peer_by_position[pos] = peer
        if first:
            return 0
        succ_pos = self._peer_positions.strict_successor(pos)
        succ = self._peer_by_position[succ_pos]
        pred_pos = self._peer_positions.predecessor(pos)
        # Every label hashed into (pred_pos, pos] was hosted by succ
        # (consistent-hashing invariant), so the index range IS the set.
        moving = self._labels_in_hash_interval(pred_pos, pos)
        return self._move_batch(moving, succ, peer)

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
        moved = self._move_batch(list(peer.nodes), peer, succ)
        self._peer_positions.remove(pos)
        del self._peer_by_position[pos]
        return moved

    def reposition(self, peer: Peer, new_id: str) -> int:
        raise NotImplementedError(
            "MLT repositioning is undefined under a hashed mapping: moving a "
            "peer in identifier space does not move it in hash space"
        )

    # -- invariants -----------------------------------------------------------

    def check_invariants(self) -> None:
        for label, peer in self.host.items():
            expected = self._owner_of_hash(self._hash(label))
            assert peer is expected, (
                f"node {label!r} hashed to {peer.id!r}, rule wants {expected.id!r}"
            )
            assert label in peer.nodes
        counted = sum(len(p.nodes) for p in self.ring)
        assert counted == len(self.host)
        assert self._hash_index.as_list() == sorted(
            (self._hash(lbl), lbl) for lbl in self.host
        ), "hash index out of sync with the host map"
