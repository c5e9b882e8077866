"""The engine-group surface: operate the ring, answer at quiescence.

The DLPT is one protocol however its peers are spread over machines, so
everything above the engine — the :class:`~repro.net.bootstrap.Broker`,
the conformance driver, ``serve`` bring-up — talks to one *backend*
surface with two implementations:

* :class:`LocalCluster` (here): one in-process
  :class:`~repro.dlpt.protocol.ProtocolEngine` on one transport;
* :class:`~repro.net.procgroup.MultiProcessCluster`: engine groups in
  worker processes, coordinated over a control plane.

Both expose ``join / leave / crash / register / discover /
discover_many / search / snapshot / live_ids / successor_of / counters /
drain / set_chaos / close`` with the same argument and record shapes.
The protocol has no per-operation acknowledgements — quiescence *is* the
completion signal — so every operation issues its messages, awaits
``drain()`` and only then reads the answer.

The module-level helpers are the halves the multi-process workers share
with :class:`LocalCluster`: the successor rule, entry-node choice, the
reply-record builders and the per-engine snapshot.

Joining a ring without help is an O(ring) walk: ``NewPredecessor``
forwards peer to peer until Algorithm 2's interval check succeeds.  Real
deployments keep a rendezvous process that already knows the membership,
so a joiner can be handed its ring position directly.  A backend is that
oracle: :func:`successor_of` over its ``live_ids()`` answers "who is my
successor?" (the peer whose arc ``(pred, id]`` will contain the joiner).
Joins seeded this way send one ``NewPredecessor`` straight to the
successor — O(1) messages — and remain correct under staleness because
Algorithm 2 still forwards along the ring when the interval check fails.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence

from ..dlpt.protocol import ProtocolEngine


def successor_of(sorted_ids: Sequence[str], peer_id: str) -> Optional[str]:
    """The live peer that will become ``peer_id``'s ring successor: the
    lowest of ``sorted_ids`` >= ``peer_id``, wrapping to the minimum."""
    if not sorted_ids:
        return None
    return sorted_ids[bisect.bisect_left(sorted_ids, peer_id) % len(sorted_ids)]


def admission(sorted_ids: Sequence[str], peer_id: str, n_seeds: int = 3) -> Dict[str, object]:
    """What a joiner needs: its successor seed plus a few live peers
    (the joiner's initial neighbour knowledge)."""
    i = bisect.bisect_left(sorted_ids, peer_id)
    seeds = [
        sorted_ids[(i + k) % len(sorted_ids)]
        for k in range(min(n_seeds, len(sorted_ids)))
    ]
    return {"peer": peer_id, "successor": successor_of(sorted_ids, peer_id), "seeds": seeds}


def entry_for(engine: ProtocolEngine, preferred: Optional[str] = None) -> Optional[str]:
    """The entry node of a client operation: ``preferred`` when it is a
    live label, else the lowest label; ``None`` on an empty tree."""
    locator = engine.locator
    if preferred is not None and preferred in locator:
        return preferred
    return min(locator) if locator else None


def take_discovery_replies(engine: ProtocolEngine, mark: int = 0) -> List[dict]:
    """Remove the discovery replies landed since ``mark`` and return them
    as wire-able records (``host`` per the post-drain locator)."""
    replies = engine.discovery_replies[mark:]
    del engine.discovery_replies[mark:]
    return [
        {
            "key": reply.key,
            "found": reply.found,
            "data": sorted(reply.data, key=repr),
            "hops": reply.hops,
            "host": engine.locator.get(reply.key),
        }
        for reply in replies
    ]


def take_query_replies(engine: ProtocolEngine, mark: int = 0) -> List[dict]:
    """Remove the set-query replies landed since ``mark`` (as records)."""
    replies = engine.query_replies[mark:]
    del engine.query_replies[mark:]
    return [
        {
            "kind": reply.kind,
            "lo": reply.lo,
            "hi": reply.hi,
            "keys": list(reply.keys),
            "hops": reply.hops,
        }
        for reply in replies
    ]


def engine_snapshot(engine: ProtocolEngine) -> dict:
    """One engine's live peers, hosted labels (with a filled-data flag)
    and locator size."""
    hosted = {}
    for peer in engine.peers.values():
        for label, st in peer.nodes.items():
            hosted[label] = bool(st.data)
    return {
        "live": sorted(p.id for p in engine.peers.values() if p.joined),
        "hosted": hosted,
        "locator_size": len(engine.locator),
    }


def transport_counters(transport) -> dict:
    """The delivery counters every transport maintains."""
    return {
        "in_flight": transport.in_flight,
        "sent": transport.messages_sent,
        "delivered": transport.messages_delivered,
        "dropped": transport.messages_dropped,
        "dead_lettered": transport.messages_dead_lettered,
    }


def toggle_chaos(transport, enabled: bool) -> bool:
    """Switch fault injection on or off; ``False`` (and a no-op) on a
    transport that is not a :class:`~repro.net.chaos.ChaosTransport`."""
    if hasattr(transport, "plan") and hasattr(transport, "enabled"):
        transport.enabled = enabled
        return True
    return False


def _one(replies: List[dict], what: str) -> dict:
    if len(replies) != 1:
        raise RuntimeError(f"expected 1 reply for {what}, got {len(replies)}")
    return replies[0]


class LocalCluster:
    """The backend surface over one in-process engine (module doc)."""

    #: Errors a :class:`~repro.net.bootstrap.Broker` should answer with
    #: backpressure instead of a definitive failure: none — an in-process
    #: engine has no outage to ride through.
    RETRYABLE_ERRORS: tuple = ()

    def __init__(self, engine: ProtocolEngine) -> None:
        self.engine = engine
        self.transport = engine.transport

    # -- membership ---------------------------------------------------------

    def live_ids(self) -> List[str]:
        """Sorted ids of the peers currently joined to the ring."""
        return sorted(p.id for p in self.engine.peers.values() if p.joined)

    def successor_of(self, peer_id: str) -> Optional[str]:
        return successor_of(self.live_ids(), peer_id)

    async def join(self, peer_id: str, capacity: int = 10) -> dict:
        """Admit ``peer_id`` (bootstrap when first), drain, and return its
        settled ring pointers ``{"pred": ..., "succ": ...}``."""
        if not self.engine.peers:
            self.engine.bootstrap_peer(peer_id, capacity)
        else:
            self.engine.join_peer(peer_id, capacity, seed=self.successor_of(peer_id))
        await self.transport.drain()
        peer = self.engine.peers[peer_id]
        return {"pred": peer.pred, "succ": peer.succ}

    async def leave(self, peer_id: str) -> None:
        self.engine.leave_peer(peer_id)
        await self.transport.drain()

    async def crash(self, victim_id: str) -> None:
        """Fail-stop crash + ``r=1`` recovery, on any transport.

        The victim's endpoint vanishes mid-air (no goodbye protocol); the
        driver then applies what the failure detector + successor-replication
        policy of :mod:`repro.faults` would conclude: neighbours splice their
        ring pointers past the victim, and the successor adopts the victim's
        node replicas (which the mapping rule now assigns to it).  Driver-side
        state surgery only — no messages — so it is transport-independent by
        construction.
        """
        engine = self.engine
        self.transport.unregister(victim_id)
        victim = engine.peers.pop(victim_id)
        if victim.succ == victim_id:
            # Last peer of the ring: everything it hosted dies with it.
            for label in victim.nodes:
                engine.locator.pop(label, None)
        else:
            successor = engine.peers[victim.succ]
            predecessor = engine.peers[victim.pred]
            successor.pred = victim.pred if victim.pred != victim_id else successor.id
            predecessor.succ = victim.succ
            for label, state in victim.nodes.items():
                successor.nodes[label] = state
                engine.locator[label] = successor.id
        await self.transport.drain()

    # -- data-plane operations ---------------------------------------------

    async def register(self, key: str, datum: object = None, via: Optional[str] = None) -> dict:
        """Insert ``key`` at quiescence; returns ``{"key", "host"}`` —
        ``host`` is ``None`` when the insertion was lost in flight."""
        self.engine.insert_data(key, datum, via=entry_for(self.engine, via))
        await self.transport.drain()
        return {"key": key, "host": self.engine.locator.get(key)}

    async def discover(self, key: str, via: Optional[str] = None) -> Optional[dict]:
        """One discovery at quiescence; ``None`` when the tree is empty
        (no entry node), else the reply record."""
        via = entry_for(self.engine, via)
        if via is None:
            return None
        mark = len(self.engine.discovery_replies)
        self.engine.discover(key, via=via)
        await self.transport.drain()
        return _one(take_discovery_replies(self.engine, mark), repr(key))

    async def discover_many(self, keys: Sequence[str]) -> Optional[List[dict]]:
        """A batch of discoveries sharing one drain, answered in request
        order; ``None`` when the tree is empty."""
        entry = entry_for(self.engine)
        if entry is None and keys:
            return None
        mark = len(self.engine.discovery_replies)
        for key in keys:
            self.engine.discover(key, via=entry)
        await self.transport.drain()
        # Replies land in delivery order, which a live transport does not
        # tie to issue order: re-associate by key (duplicates in the batch
        # get identical answers, so bucket order is immaterial).
        buckets: Dict[str, list] = {}
        for record in take_discovery_replies(self.engine, mark):
            buckets.setdefault(record["key"], []).append(record)
        return [buckets[key].pop() for key in keys]

    async def search(
        self, kind: str, lo: str, hi: str = "", via: Optional[str] = None
    ) -> Optional[dict]:
        """One set query (``kind`` ``"prefix"`` or ``"range"``) served by
        the scan-token walk; ``None`` when the tree is empty."""
        via = entry_for(self.engine, via)
        if via is None:
            return None
        mark = len(self.engine.query_replies)
        self.engine.search_query(kind, lo, hi, via=via)
        await self.transport.drain()
        return _one(take_query_replies(self.engine, mark), f"{kind} query {lo!r}")

    # -- introspection & lifecycle -------------------------------------------

    async def snapshot(self) -> dict:
        return engine_snapshot(self.engine)

    async def counters(self) -> List[dict]:
        """Per-group transport counters (one group here)."""
        return [transport_counters(self.transport)]

    async def drain(self) -> None:
        await self.transport.drain()

    async def set_chaos(self, enabled: bool) -> None:
        toggle_chaos(self.transport, enabled)

    async def close(self) -> None:
        await self.transport.close()
