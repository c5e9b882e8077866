"""P-Grid (Aberer et al.; Datta et al., P2P 2005) — reference [7].

P-Grid builds a binary trie over the *whole key space*; each peer is
assigned a *path* (a leaf of the trie, i.e. one partition Π of the key
space) and keeps, for every level ``i`` of its path, references to peers
whose path agrees on the first ``i`` bits and differs at bit ``i+1``.
Greedy bit-fixing routing therefore resolves any key in O(log |Π|) hops,
and a peer's routing state is O(log |Π|) references — the two P-Grid
entries of Table 2.

Construction here is the static "balanced-tree exchange" outcome: partitions
are computed by recursively splitting the key sample until each partition is
small enough or the peer budget is used, and peers are assigned to
partitions round-robin (several peers can replicate one partition, as in
P-Grid proper).  The dynamic bilateral-exchange protocol that *converges* to
this state is out of scope — the paper compares steady-state complexities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class PGridPeer:
    """A P-Grid participant: its path and per-level routing references."""

    peer_id: str
    path: str
    #: routing[i] = peer ids whose path shares path[:i] and flips bit i.
    routing: List[List[str]] = field(default_factory=list)
    keys: set[str] = field(default_factory=set)

    def state_size(self) -> int:
        """Routing-table entries held (Table 2 "Local State")."""
        return sum(len(level) for level in self.routing)


class PGrid:
    """A static, balanced P-Grid overlay over binary keys."""

    def __init__(
        self,
        peer_ids: Sequence[str],
        keys: Sequence[str],
        key_bits: int,
        rng,
        max_partition_keys: Optional[int] = None,
        refs_per_level: int = 1,
    ) -> None:
        if not peer_ids:
            raise ValueError("P-Grid needs at least one peer")
        self.key_bits = key_bits
        self.refs_per_level = refs_per_level
        for k in keys:
            if len(k) != key_bits or any(c not in "01" for c in k):
                raise ValueError(f"key {k!r} is not a {key_bits}-bit binary string")
        # -- compute partitions ------------------------------------------------
        if max_partition_keys is None:
            # Aim for about one partition per peer.
            max_partition_keys = max(1, len(keys) // max(1, len(peer_ids)))
        self.partitions: List[str] = self._build_partitions(
            sorted(set(keys)), "", max_partition_keys, len(peer_ids)
        )
        self.partitions.sort()
        # -- assign peers round-robin (replication when peers > partitions) ----
        self.peers: Dict[str, PGridPeer] = {}
        self.by_path: Dict[str, List[str]] = {p: [] for p in self.partitions}
        for i, pid in enumerate(peer_ids):
            path = self.partitions[i % len(self.partitions)]
            peer = PGridPeer(peer_id=pid, path=path)
            self.peers[pid] = peer
            self.by_path[path].append(pid)
        # -- store keys --------------------------------------------------------
        for k in keys:
            path = self._partition_of(k)
            for pid in self.by_path[path]:
                self.peers[pid].keys.add(k)
        # -- build routing tables ----------------------------------------------
        self._build_routing(rng)
        self.rng = rng

    # -- construction helpers ----------------------------------------------

    def _build_partitions(
        self, keys: List[str], prefix: str, max_keys: int, peer_budget: int
    ) -> List[str]:
        """Recursively split until partitions are small or budget exhausted."""
        if len(keys) <= max_keys or len(prefix) >= self.key_bits or peer_budget <= 1:
            return [prefix]
        zeros = [k for k in keys if k[len(prefix)] == "0"]
        ones = [k for k in keys if k[len(prefix)] == "1"]
        if not zeros or not ones:
            # All keys agree on this bit; still split the *key space* so the
            # trie stays binary (P-Grid partitions the space, not the data).
            side = "0" if zeros else "1"
            return [prefix + ("1" if side == "0" else "0")] + self._build_partitions(
                keys, prefix + side, max_keys, peer_budget - 1
            )
        left_budget = max(1, peer_budget * len(zeros) // len(keys))
        right_budget = max(1, peer_budget - left_budget)
        return self._build_partitions(
            zeros, prefix + "0", max_keys, left_budget
        ) + self._build_partitions(ones, prefix + "1", max_keys, right_budget)

    def _partition_of(self, key: str) -> str:
        """The unique partition whose path prefixes ``key`` (partitions form
        a prefix-free cover, so greedy longest-match works)."""
        for ln in range(len(key) + 1):
            if key[:ln] in self.by_path:
                return key[:ln]
        # Key space regions with no partition (possible when data was skewed):
        # route to the lexicographically closest partition.
        best = min(self.partitions, key=lambda p: _divergence(p, key))
        return best

    def _build_routing(self, rng) -> None:
        for peer in self.peers.values():
            peer.routing = []
            for i in range(len(peer.path)):
                complement = peer.path[:i] + ("1" if peer.path[i] == "0" else "0")
                candidates = [
                    pid
                    for pid, other in self.peers.items()
                    if other.path.startswith(complement)
                ]
                if not candidates:
                    # No peer on the complementary side (skewed space): fall
                    # back to any peer whose path diverges at level i.
                    candidates = [
                        pid
                        for pid, other in self.peers.items()
                        if len(other.path) > i and other.path[:i] == peer.path[:i]
                        and other.path[i] != peer.path[i]
                    ]
                refs = (
                    rng.sample(candidates, min(self.refs_per_level, len(candidates)))
                    if candidates
                    else []
                )
                peer.routing.append(refs)

    # -- routing -------------------------------------------------------------

    def lookup(self, key: str, start_peer: Optional[str] = None) -> Tuple[bool, int]:
        """Greedy bit-fixing routing; returns ``(found, hops)``."""
        if start_peer is None:
            start_peer = next(iter(self.peers))
        current = self.peers[start_peer]
        hops = 0
        for _ in range(self.key_bits + len(self.peers) + 1):
            if key.startswith(current.path):
                return key in current.keys, hops
            # First level where the key leaves this peer's path.
            i = _divergence_at(current.path, key)
            refs = current.routing[i] if i < len(current.routing) else []
            if not refs:
                return False, hops
            current = self.peers[self.rng.choice(refs)]
            hops += 1
        raise RuntimeError("P-Grid routing failed to converge")

    def range_query(self, lo: str, hi: str, start_peer: Optional[str] = None) -> Tuple[List[str], int]:
        """Shower-style range resolution: route to ``lo``'s partition, then
        sweep partitions in key order until past ``hi``."""
        if lo > hi:
            raise ValueError("lo must be <= hi")
        found, hops = self.lookup(lo, start_peer)
        out: List[str] = []
        for path in self.partitions:
            band_lo = path + "0" * (self.key_bits - len(path))
            band_hi = path + "1" * (self.key_bits - len(path))
            if band_lo > hi:
                break
            if band_hi < lo:
                continue
            pids = self.by_path[path]
            if pids:
                hops += 1
                out.extend(k for k in self.peers[pids[0]].keys if lo <= k <= hi)
        return sorted(set(out)), hops

    # -- metrics ------------------------------------------------------------------

    @property
    def n_partitions(self) -> int:
        """|Π| — the quantity inside P-Grid's O(log |Π|) bounds."""
        return len(self.partitions)

    def mean_state_size(self) -> float:
        return sum(p.state_size() for p in self.peers.values()) / len(self.peers)

    def check_invariants(self) -> None:
        # Partitions are prefix-free and every peer's path is a partition.
        for i, a in enumerate(self.partitions):
            for b in self.partitions[i + 1 :]:
                assert not b.startswith(a) and not a.startswith(b), (
                    f"partitions {a!r} and {b!r} overlap"
                )
        for peer in self.peers.values():
            assert peer.path in self.by_path
            for k in peer.keys:
                assert k.startswith(peer.path) or self._partition_of(k) == peer.path


def _divergence_at(path: str, key: str) -> int:
    for i, (a, b) in enumerate(zip(path, key)):
        if a != b:
            return i
    return min(len(path), len(key))


def _divergence(path: str, key: str) -> tuple[int, str]:
    """Sort key: later divergence = closer partition."""
    return (-_divergence_at(path, key), path)
