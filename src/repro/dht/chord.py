"""A Chord ring (Stoica et al., SIGCOMM 2001) — reference [18] of the paper.

In the library its one consumer is the **PHT baseline** of Table 2
(:mod:`repro.baselines.pht`), which pays an O(log P) Chord lookup per trie
step: it places trie nodes with consistent-hashing
:meth:`ChordRing.successor_peer` and counts hops with greedy finger routing
(:meth:`ChordRing.lookup`).  Figure 9's random-mapping baseline hashes in the
same space but keeps its own positions
(:class:`repro.baselines.dlpt_dht.HashedMapping`); it does not use this ring.

Finger tables are rebuilt eagerly after membership changes; the experiments
here use Chord on static or slowly changing populations, so simple eager
maintenance is the right trade-off (no stabilisation protocol needed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.keyspace import in_interval_open_closed, in_interval_open_open
from ..util.sortedlist import SortedList
from .hashing import DEFAULT_BITS, hash_to_int


@dataclass
class ChordNode:
    """One DHT participant: its ring position and finger table."""

    peer_id: str
    position: int
    fingers: list[int] = field(default_factory=list)  # positions, not peers

    def __hash__(self) -> int:
        return hash(self.position)


class ChordRing:
    """Consistent-hashing ring with greedy finger-table routing."""

    def __init__(self, bits: int = DEFAULT_BITS) -> None:
        self.bits = bits
        self.modulus = 1 << bits
        self._positions: SortedList[int] = SortedList()
        self._by_position: Dict[int, ChordNode] = {}
        self._fingers_fresh = False

    # -- membership --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._positions)

    def position_of(self, peer_id: str) -> int:
        return hash_to_int(peer_id, self.bits)

    def add_peer(self, peer_id: str) -> ChordNode:
        """Join ``peer_id`` at its hashed position.

        Position collisions (two ids hashing identically) are rejected; with
        32-bit positions and <= 10^4 peers they are effectively impossible,
        and rejecting keeps the ring a strict total order.
        """
        pos = self.position_of(peer_id)
        if pos in self._by_position:
            raise ValueError(f"position collision for peer {peer_id!r}")
        node = ChordNode(peer_id=peer_id, position=pos)
        self._positions.add(pos)
        self._by_position[pos] = node
        self._fingers_fresh = False
        return node

    def add_peers(self, peer_ids) -> list[ChordNode]:
        """Bulk join: one sorted merge for the whole batch (and a single
        deferred finger rebuild) instead of per-peer O(n) inserts — the
        PHT/Table-2 harnesses bootstrap rings of 10³–10⁴ peers this way.

        Atomic: every position is validated (against the ring and within
        the batch) before any state changes, so a collision leaves the
        ring untouched.
        """
        batch: list[tuple[int, str]] = []
        seen: set[int] = set()
        for peer_id in peer_ids:
            pos = self.position_of(peer_id)
            if pos in self._by_position or pos in seen:
                raise ValueError(f"position collision for peer {peer_id!r}")
            seen.add(pos)
            batch.append((pos, peer_id))
        self._positions.update(pos for pos, _ in batch)
        nodes = [ChordNode(peer_id=pid, position=pos) for pos, pid in batch]
        for node in nodes:
            self._by_position[node.position] = node
        self._fingers_fresh = False
        return nodes

    def remove_peer(self, peer_id: str) -> ChordNode:
        pos = self.position_of(peer_id)
        node = self._by_position.pop(pos, None)
        if node is None:
            raise KeyError(f"peer {peer_id!r} not in the ring")
        self._positions.remove(pos)
        self._fingers_fresh = False
        return node

    def nodes(self) -> list[ChordNode]:
        return [self._by_position[p] for p in self._positions]

    # -- consistent hashing ---------------------------------------------------

    def successor_position(self, key_position: int) -> int:
        """The ring position responsible for ``key_position`` (first node
        clockwise at or after it)."""
        if not self._positions:
            raise RuntimeError("empty Chord ring")
        return self._positions.successor(key_position % self.modulus)

    def successor_peer(self, key: str) -> str:
        """Peer id responsible for hashed ``key`` — the Chord mapping of
        Figure 2 ("mapping a key on the peer with the lowest identifier
        higher than the key", in hash space)."""
        pos = hash_to_int(key, self.bits)
        return self._by_position[self.successor_position(pos)].peer_id

    # -- finger routing ----------------------------------------------------------

    def rebuild_fingers(self) -> None:
        """Recompute every node's finger table: finger[i] = successor of
        ``position + 2^i`` (Chord's definition)."""
        for node in self._by_position.values():
            node.fingers = [
                self.successor_position((node.position + (1 << i)) % self.modulus)
                for i in range(self.bits)
            ]
        self._fingers_fresh = True

    def _ensure_fingers(self) -> None:
        if not self._fingers_fresh:
            self.rebuild_fingers()

    def lookup(self, key: str, start_peer: Optional[str] = None) -> tuple[str, int]:
        """Route to the peer responsible for ``key`` via greedy
        closest-preceding-finger hops; returns ``(peer_id, hop_count)``.

        Hop count is what Table 2's O(log P) term measures for PHT.
        """
        if not self._positions:
            raise RuntimeError("empty Chord ring")
        self._ensure_fingers()
        target = hash_to_int(key, self.bits)
        if start_peer is None:
            current = self._by_position[self._positions[0]]
        else:
            current = self._by_position[self.position_of(start_peer)]
        hops = 0
        # Guard: routing must terminate within |P| hops.
        for _ in range(len(self._positions) + 1):
            succ_pos = self._positions.strict_successor(current.position)
            if len(self._positions) == 1 or in_interval_open_closed(
                target, current.position, succ_pos
            ):
                owner = self._by_position[succ_pos if len(self._positions) > 1 else current.position]
                if len(self._positions) == 1:
                    return current.peer_id, hops
                return owner.peer_id, hops + 1
            nxt = self._closest_preceding(current, target)
            if nxt is current:
                # Fingers degenerate (tiny ring): step to the successor.
                nxt = self._by_position[succ_pos]
            current = nxt
            hops += 1
        raise RuntimeError("Chord routing failed to converge")

    def _closest_preceding(self, node: ChordNode, target: int) -> ChordNode:
        for pos in reversed(node.fingers):
            if in_interval_open_open(pos, node.position, target):
                return self._by_position[pos]
        return node

    # -- diagnostics ------------------------------------------------------------

    def check_invariants(self) -> None:
        positions = self._positions.as_list()
        assert positions == sorted(positions)
        assert len(positions) == len(self._by_position)
        for pos in positions:
            assert self._by_position[pos].position == pos
