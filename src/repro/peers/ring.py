"""The bidirectional ring of peers (paper Section 3, first protocol part).

"Peers are ordered in a bidirectional ring.  Each peer ``P`` has the
knowledge of its immediate predecessor ``pred_P`` and immediate successor
``succ_P``."  The ring also answers the mapping query of Section 3: the peer
hosting a node ``n`` is the one with the lowest identifier ``>= n``, wrapping
to ``P_min`` for nodes above ``P_max``.

This class is the *state* of the ring (membership + order); join routing
through the tree lives in the message engine
(:meth:`repro.dlpt.protocol.ProtocolEngine._on_peer_join`) and the macro
model (:meth:`repro.dlpt.system.DLPTSystem.add_peer`), and node migration
policy in :mod:`repro.dlpt.mapping`.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..util.sortedlist import SortedList
from .peer import Peer

#: Ceiling-cache entries are dropped wholesale past this size; membership
#: changes clear the cache anyway, so the cap only guards degenerate
#: workloads that query millions of distinct keys on a static ring.
_SUCC_CACHE_MAX = 1 << 17


class DuplicatePeerError(ValueError):
    """A peer identifier that is already present on the ring.

    Subclasses :class:`ValueError` so pre-existing callers that caught the
    generic error keep working; carries the colliding id for diagnostics.
    """

    def __init__(self, peer_id: str) -> None:
        super().__init__(f"peer id {peer_id!r} already on the ring")
        self.peer_id = peer_id


class Ring:
    """Sorted peer membership with circular successor/predecessor queries.

    The ring keeps a monotonically increasing :attr:`version` (bumped by
    every membership or identifier change) and memoises
    :meth:`successor_of_key` against it, so bursts of mapping queries
    between membership events — registration storms, invariant sweeps,
    KC candidate scoring — hit a dict instead of re-running the bisect.
    """

    def __init__(self) -> None:
        self._ids: SortedList[str] = SortedList()
        self._by_id: dict[str, Peer] = {}
        #: Bumped on every join/leave/reposition; consumers (caches) compare.
        self.version = 0
        self._succ_cache: dict[str, str] = {}
        self._succ_cache_version = 0

    # -- membership --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, peer_id: str) -> bool:
        return peer_id in self._by_id

    def __iter__(self) -> Iterator[Peer]:
        for pid in self._ids:
            yield self._by_id[pid]

    def peer(self, peer_id: str) -> Peer:
        return self._by_id[peer_id]

    def get(self, peer_id: str) -> Optional[Peer]:
        return self._by_id.get(peer_id)

    def peers(self) -> list[Peer]:
        """All peers in ring (identifier) order."""
        return [self._by_id[pid] for pid in self._ids]

    def peers_unordered(self):
        """Every peer, membership order unspecified — a zero-copy dict view
        for full-ring sweeps where ring order is irrelevant (per-unit
        budget resets, load aggregation).  C-level iteration, against the
        per-peer generator dispatch of ``__iter__``."""
        return self._by_id.values()

    def ids(self) -> list[str]:
        return self._ids.as_list()

    def id_at(self, index: int) -> str:
        """The ``index``-th identifier in sorted ring order, O(1).

        Lets callers draw a uniformly random peer without materialising the
        full id list (the seed's churn loop copied all P ids per leave).
        """
        return self._ids[index]

    def peer_at(self, index: int) -> Peer:
        """The ``index``-th peer in sorted ring order, O(1)."""
        return self._by_id[self._ids[index]]

    def join(self, peer: Peer) -> None:
        """Insert ``peer``; identifiers must be unique on the ring.

        Raises :class:`DuplicatePeerError` (a :class:`ValueError`) naming
        the colliding identifier.
        """
        if peer.id in self._by_id:
            raise DuplicatePeerError(peer.id)
        try:
            self._ids.add(peer.id)
        except ValueError as exc:  # desync guard: surface as the domain error
            raise DuplicatePeerError(peer.id) from exc
        self._by_id[peer.id] = peer
        self.version += 1

    def join_many(self, peers) -> None:
        """Insert a batch of peers with one sorted merge.

        The whole batch is validated first — a collision against the ring
        or within the batch raises :class:`DuplicatePeerError` before
        anything mutates — then the identifiers merge in a single
        :meth:`~repro.util.sortedlist.SortedList.update` pass and
        :attr:`version` bumps once, so bootstrapping 10⁴ peers costs one
        sort instead of 10⁴ O(P) list shifts.
        """
        batch = list(peers)
        ids: set[str] = set()
        for peer in batch:
            if peer.id in self._by_id or peer.id in ids:
                raise DuplicatePeerError(peer.id)
            ids.add(peer.id)
        if not batch:
            return
        self._ids.update(ids)
        by_id = self._by_id
        for peer in batch:
            by_id[peer.id] = peer
        self.version += 1

    def leave(self, peer_id: str) -> Peer:
        """Remove and return the peer with ``peer_id``."""
        peer = self._by_id.pop(peer_id, None)
        if peer is None:
            raise KeyError(f"peer {peer_id!r} not on the ring")
        self._ids.remove(peer_id)
        self.version += 1
        return peer

    # -- circular order ----------------------------------------------------

    def min_peer(self) -> Peer:
        """``P_min`` — the peer with the lowest identifier."""
        return self._by_id[self._ids.min()]

    def max_peer(self) -> Peer:
        """``P_max`` — the peer with the highest identifier."""
        return self._by_id[self._ids.max()]

    def successor_of_key(self, key: str) -> Peer:
        """The peer hosting key/label ``key``: lowest peer id ``>= key``,
        wrapping to ``P_min`` (the paper's mapping rule).

        Memoised per ring :attr:`version` — amortised O(1) for repeated
        keys on a static ring, O(log P) on a cache miss.
        """
        cache = self._succ_cache
        if self._succ_cache_version != self.version:
            cache.clear()
            self._succ_cache_version = self.version
        pid = cache.get(key)
        if pid is None:
            pid = self._ids.successor(key)
            if len(cache) >= _SUCC_CACHE_MAX:
                cache.clear()
            cache[key] = pid
        return self._by_id[pid]

    def successor(self, peer_id: str) -> Peer:
        """``succ_P``: the next peer strictly after ``peer_id`` (circular).
        On a single-peer ring a peer is its own successor."""
        return self._by_id[self._ids.strict_successor(peer_id)]

    def predecessor(self, peer_id: str) -> Peer:
        """``pred_P``: the previous peer strictly before ``peer_id``."""
        return self._by_id[self._ids.predecessor(peer_id)]

    def reposition(self, peer: Peer, new_id: str) -> None:
        """Change ``peer``'s identifier (MLT's "move P along the ring").

        The caller (the mapping layer) is responsible for migrating the
        affected nodes; this method only preserves ring-order consistency.
        The new identifier must keep the peer strictly between its current
        neighbours so that no *other* peer's node interval changes.
        """
        if new_id == peer.id:
            return
        if new_id in self._by_id:
            raise DuplicatePeerError(new_id)
        if len(self._ids) > 1:
            pred = self.predecessor(peer.id)
            succ = self.successor(peer.id)
            # Strictly inside the (pred, succ) arc; both comparisons are on
            # the non-wrapped segment because MLT only slides P between its
            # physical neighbours.
            from ..core.keyspace import in_interval_open_open

            if not in_interval_open_open(new_id, pred.id, succ.id):
                raise ValueError(
                    f"reposition must stay between neighbours: "
                    f"{pred.id!r} < {new_id!r} < {succ.id!r} violated"
                )
        old_id = peer.id
        self._ids.remove(old_id)
        del self._by_id[old_id]
        peer.id = new_id
        self._ids.add(new_id)
        self._by_id[new_id] = peer
        self.version += 1

    # -- diagnostics ------------------------------------------------------------

    def check_invariants(self) -> None:
        """Membership/order consistency (property-tested under churn)."""
        ids = self._ids.as_list()
        assert len(ids) == len(self._by_id)
        assert ids == sorted(ids)
        for pid in ids:
            assert self._by_id[pid].id == pid, f"peer id desync at {pid!r}"
        if len(ids) >= 2:
            for i, pid in enumerate(ids):
                succ = self.successor(pid)
                assert succ.id == ids[(i + 1) % len(ids)]
                pred = self.predecessor(pid)
                assert pred.id == ids[(i - 1) % len(ids)]

    def aggregate_capacity(self) -> int:
        """Total requests/unit the whole platform can absorb (Table 1's
        denominator for the load ratio)."""
        return sum(p.capacity for p in self._by_id.values())
