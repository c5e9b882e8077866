"""The cluster: every engine-group step and every backend operation, once.

The DLPT is one protocol however its peers are spread over machines, so
everything above the engine — the :class:`~repro.net.bootstrap.Broker`,
the conformance driver, ``serve`` bring-up — talks to one *backend*
surface, ``join / leave / crash / register / discover / discover_many /
search / snapshot / live_ids / successor_of / counters / drain /
set_chaos / close``, with the same argument and record shapes whatever
the topology.  It is two layers, each written exactly once:

* :class:`EngineGroup` — the *steps*: synchronous, JSON-in/JSON-out
  methods over one :class:`~repro.dlpt.protocol.ProtocolEngine`.  A step
  issues messages or reads/edits the group's state; it never waits.
* :class:`Cluster` — the *operations*: issue steps on the right group,
  await quiescence, read the answer.  The protocol has no per-operation
  acknowledgements, so quiescence *is* the completion signal.

A backend supplies how a group is reached (``call``), what quiescence
means (``drain``) and where membership is recorded (``_members``):

* :class:`LocalCluster` (here) is the one-group, in-process case: a step
  is a direct call on its own :class:`EngineGroup`, quiescence is the
  transport's ``drain()`` and the engine itself is the registry;
* :class:`~repro.net.procgroup.MultiProcessCluster` is the N-group case:
  the same step names travel as control RPCs to worker processes,
  quiescence is a counter poll over all of them, and the coordinator
  keeps the membership (and acked-registration) ledgers.

Crashes are fail-stop, so there is no goodbye protocol to run: ``crash``
applies what the failure detector + ``r=1`` successor-replication policy
of :mod:`repro.faults` would conclude, as steps — ``crash_pop`` rips the
victim's endpoint out and returns its ν, ``adopt`` installs those nodes
on the successor, ``set_pred`` / ``set_succ`` splice the neighbours' ring
pointers, and ``locator_set`` repoints every group's location table.

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
import zlib
from typing import Dict, List, Optional, Sequence

from ..dlpt.protocol import ProtocolEngine
from .wire import decode_node_payload, encode_node_payload


class ClusterError(RuntimeError):
    """An operation the ring cannot perform, a failed control RPC, or a
    lost worker."""


def group_of(peer_id: str, n_groups: int) -> int:
    """The owning group of ``peer_id``: stable, coordination-free."""
    return zlib.crc32(peer_id.encode("utf-8")) % n_groups


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


class EngineGroup:
    """One engine group's steps (module doc).  Every public method is a
    step: keyword arguments in, a JSON-able dict (or nothing) out — so it
    can be called directly or dispatched by name from a control RPC."""

    def __init__(self, engine: ProtocolEngine) -> None:
        self.engine = engine
        self.transport = engine.transport

    def _entry(self, preferred: Optional[str]) -> Optional[str]:
        """The entry node of a client operation: ``preferred`` when it is
        a live label, else the lowest label; ``None`` on an empty tree.
        No iteration: the engine keeps the lowest label where the table is
        written (docs/runtime.md, "The entry rule")."""
        engine = self.engine
        return preferred if preferred in engine.locator else engine.lowest_label

    # -- membership ---------------------------------------------------------

    def bootstrap(self, peer: str, capacity: int) -> None:
        self.engine.bootstrap_peer(peer, capacity)

    def join(self, peer: str, capacity: int, seed: Optional[str]) -> None:
        self.engine.join_peer(peer, capacity, seed=seed)

    def leave(self, peer: str) -> None:
        self.engine.leave_peer(peer)

    def ring(self, peer: str) -> dict:
        state = self.engine.peers[peer]
        return {"pred": state.pred, "succ": state.succ}

    # -- crash surgery ------------------------------------------------------

    def crash_pop(self, peer: str) -> dict:
        """The victim's endpoint vanishes mid-air; returns its ring
        pointers and its ν as wire-form node payloads."""
        victim = self.engine.peers[peer]
        nodes = [encode_node_payload(st) for st in victim.nodes.values()]
        self.transport.unregister(peer)
        del self.engine.peers[peer]
        return {"pred": victim.pred, "succ": victim.succ, "nodes": nodes}

    def adopt(self, peer: str, nodes: List[dict]) -> None:
        """Install a crashed peer's nodes on ``peer`` (which the mapping
        rule now assigns them to).  No install hook: the location
        broadcast is the operation's ``locator_set``."""
        state = self.engine.peers[peer]
        for obj in nodes:
            st = decode_node_payload(obj)
            state.nodes[st.label] = st
            self.engine.set_location(st.label, peer)

    def set_pred(self, peer: str, pred: str) -> None:
        self.engine.peers[peer].pred = pred

    def set_succ(self, peer: str, succ: str) -> None:
        self.engine.peers[peer].succ = succ

    def locator_set(self, entries: Dict[str, str]) -> None:
        """Repoint labels at their hosts, flushing the messages parked for
        each exactly as a local install would (a SearchingHost can race
        the Host hop across groups)."""
        for label, host in entries.items():
            self.engine.set_location(label, host)
            for src, msg in self.engine.pending_node_messages.pop(label, ()):
                self.transport.send(src, host, msg)

    def locator_del(self, labels: List[str]) -> None:
        self.engine.drop_locations(labels)

    # -- data plane ---------------------------------------------------------

    def insert(self, key: str, datum: object, via: Optional[str]) -> None:
        self.engine.insert_data(key, datum, via=self._entry(via))

    def discover(self, keys: List[str], via: Optional[str]) -> dict:
        """Issue one discovery per key from one entry node; ``issued`` is
        false on an empty tree (there is no entry node)."""
        entry = self._entry(via)
        if entry is None:
            return {"issued": False}
        for key in keys:
            self.engine.discover(key, via=entry)
        return {"issued": True}

    def search(self, kind: str, lo: str, hi: str, via: Optional[str]) -> dict:
        """Issue one set query (``kind`` ``"prefix"`` or ``"range"``)."""
        entry = self._entry(via)
        if entry is None:
            return {"issued": False}
        self.engine.search_query(kind, lo, hi, via=entry)
        return {"issued": True}

    def collect(self) -> dict:
        """Hand over (and forget) the replies landed so far, as wire-able
        records; a discovery's ``host`` is per the post-drain locator."""
        engine = self.engine
        discovery, queries = engine.discovery_replies[:], engine.query_replies[:]
        del engine.discovery_replies[:], engine.query_replies[:]
        return {
            "discovery": [
                {
                    "key": reply.key,
                    "found": reply.found,
                    "data": sorted(reply.data, key=repr),
                    "hops": reply.hops,
                    "host": engine.locator.get(reply.key),
                }
                for reply in discovery
            ],
            "queries": [
                {
                    "kind": reply.kind,
                    "lo": reply.lo,
                    "hi": reply.hi,
                    "keys": list(reply.keys),
                    "hops": reply.hops,
                }
                for reply in queries
            ],
        }

    def locate(self, label: str) -> dict:
        return {"host": self.engine.locator.get(label)}

    # -- introspection ------------------------------------------------------

    def snapshot(self) -> dict:
        """Live peers, hosted labels (with a filled-data flag) and the
        locator size of this group."""
        hosted = {}
        for peer in self.engine.peers.values():
            for label, st in peer.nodes.items():
                hosted[label] = bool(st.data)
        return {
            "live": sorted(p.id for p in self.engine.peers.values() if p.joined),
            "hosted": hosted,
            "locator_size": len(self.engine.locator),
        }

    def counters(self) -> dict:
        """The delivery counters every transport maintains."""
        t = self.transport
        return {
            "in_flight": t.in_flight,
            "sent": t.messages_sent,
            "delivered": t.messages_delivered,
            "dropped": t.messages_dropped,
            "dead_lettered": t.messages_dead_lettered,
        }

    def chaos(self, enabled: bool) -> dict:
        """Switch fault injection on or off; ``chaos`` is false (and the
        step a no-op) on a transport that is not a
        :class:`~repro.net.chaos.ChaosTransport`."""
        injecting = hasattr(self.transport, "plan") and hasattr(self.transport, "enabled")
        if injecting:
            self.transport.enabled = enabled
        return {"chaos": injecting}


#: The step names a control endpoint may dispatch: the public methods.
STEPS = frozenset(name for name in vars(EngineGroup) if not name.startswith("_"))


def _settled(landed: Sequence[dict], asked: int, what: str, *names):
    """The reply record when exactly the ``asked`` replies landed, else
    the :class:`ClusterError` counting them (``what % names`` says for
    what) — returned, not raised, so a batch can report it per key."""
    if len(landed) != asked:
        noun = "reply" if asked == 1 else "replies"
        return ClusterError(f"expected {asked} {noun} for {what % names}, got {len(landed)}")
    return landed[0]


def _raised(outcome):
    if isinstance(outcome, ClusterError):
        raise outcome
    return outcome


class Cluster:
    """The backend operations (module doc), over what a subclass supplies:
    ``async call(group, step, **body)`` runs one :class:`EngineGroup` step
    on a group, ``async drain()`` waits until no protocol message is in
    flight anywhere, ``_members()`` is the collection of admitted peer
    ids (O(1) ``in`` and emptiness), and ``close()`` ends it."""

    #: Engine groups the ring is spread over; peer ``p`` lives in group
    #: :func:`group_of` ``(p, n_groups)``.
    n_groups = 1

    #: Errors a :class:`~repro.net.bootstrap.Broker` should answer with
    #: backpressure instead of a definitive failure.
    RETRYABLE_ERRORS: tuple = ()

    _queries_issued = 0

    async def _all(self, step: str, **body) -> List[dict]:
        return [await self.call(g, step, **body) for g in range(self.n_groups)]

    def _home(self, peer_id: str) -> int:
        return group_of(peer_id, self.n_groups)

    # -- membership ---------------------------------------------------------

    def live_ids(self) -> List[str]:
        """Sorted ids of the peers currently joined to the ring."""
        return sorted(self._members())

    def successor_of(self, peer_id: str) -> Optional[str]:
        return successor_of(self.live_ids(), peer_id)

    def _require_member(self, peer_id: str) -> None:
        if peer_id not in self._members():
            raise ClusterError(f"peer {peer_id!r} not joined")

    async def join(self, peer_id: str, capacity: int = 10) -> dict:
        """Admit ``peer_id`` (bootstrap when first), drain, and return its
        settled ring pointers ``{"pred": ..., "succ": ...}``."""
        ids, group = self.live_ids(), self._home(peer_id)
        if ids:
            await self.call(
                group, "join", peer=peer_id, capacity=capacity, seed=successor_of(ids, peer_id)
            )
        else:
            await self.call(group, "bootstrap", peer=peer_id, capacity=capacity)
        await self.drain()
        ring = await self.call(group, "ring", peer=peer_id)
        return {"pred": ring["pred"], "succ": ring["succ"]}

    async def leave(self, peer_id: str) -> None:
        self._require_member(peer_id)
        await self.call(self._home(peer_id), "leave", peer=peer_id)
        await self.drain()

    async def crash(self, victim_id: str) -> None:
        """Fail-stop crash + ``r=1`` recovery (module doc): state surgery
        through the steps, no protocol messages."""
        self._require_member(victim_id)
        popped = await self.call(self._home(victim_id), "crash_pop", peer=victim_id)
        pred, succ, nodes = popped["pred"], popped["succ"], popped["nodes"]
        labels = [obj["label"] for obj in nodes]
        if succ == victim_id:
            # Last peer of the ring: everything it hosted dies with it.
            await self._all("locator_del", labels=labels)
        else:
            await self.call(self._home(succ), "adopt", peer=succ, nodes=nodes)
            await self.call(
                self._home(succ), "set_pred", peer=succ, pred=pred if pred != victim_id else succ
            )
            await self.call(self._home(pred), "set_succ", peer=pred, succ=succ)
            if labels:
                await self._all("locator_set", entries=dict.fromkeys(labels, succ))
        await self.drain()

    # -- data-plane operations ---------------------------------------------

    async def register(self, key: str, datum: object = None, via: Optional[str] = None) -> dict:
        """Insert ``key`` at quiescence; returns ``{"key", "host"}`` —
        ``host`` (per the post-drain locator) is ``None`` when the
        insertion was lost in flight."""
        members = self._members()
        if not members:
            raise ClusterError("no peers joined")
        # Inserts must start where a joined peer lives (the empty-tree
        # Host walk needs a local starting peer): the min live id's group.
        # One group has no placement to compute.
        group = self._home(min(members)) if self.n_groups > 1 else 0
        await self.call(group, "insert", key=key, datum=datum, via=via)
        await self.drain()
        located = await self.call(group, "locate", label=key)
        return {"key": key, "host": located["host"]}

    async def _ask(self, step: str, replies: str, **body) -> Optional[List[dict]]:
        """Issue one query step from the next group in rotation, await
        quiescence and collect that group's ``replies`` records; ``None``
        when the tree is empty (nothing was issued)."""
        self._queries_issued += 1
        group = self._queries_issued % self.n_groups
        if not (await self.call(group, step, **body))["issued"]:
            return None
        try:
            await self.drain()
        except Exception:
            # The replies that did land answer this read, which has just
            # failed — left in place they would be counted into the next
            # read of the same key ("expected 1 reply …, got 2").
            await self.call(group, "collect")
            raise
        return (await self.call(group, "collect"))[replies]

    async def discover(self, key: str, via: Optional[str] = None) -> Optional[dict]:
        """One discovery at quiescence — the batch of one; ``None`` when
        the tree is empty (no entry node), else the reply record."""
        rows = await self.discover_many([key], via)
        return None if rows is None else _raised(rows[0])

    async def discover_many(self, keys: Sequence[str], via: Optional[str] = None) -> Optional[list]:
        """A batch of discoveries sharing one quiescence wait, answered in
        request order; ``None`` when the tree is empty.  The outcome is
        per key: its reply record, or — when a reply was lost in flight —
        the :class:`ClusterError` counting what landed instead, so a
        caller serving several requests fails only the owner of that key."""
        if not keys:
            return []
        replies = await self._ask("discover", "discovery", keys=list(keys), via=via)
        if replies is None:
            return None
        # Replies land in delivery order, which a live transport does not
        # tie to issue order: re-associate by key (duplicates in the batch
        # get identical answers, so one record answers them all).
        landed: Dict[str, list] = {}
        for record in replies:
            landed.setdefault(record["key"], []).append(record)
        asked: Dict[str, int] = {}
        for key in keys:
            asked[key] = asked.get(key, 0) + 1
        return [_settled(landed.get(key, ()), asked[key], "discovery of %r", key) for key in keys]

    async def search(
        self, kind: str, lo: str, hi: str = "", via: Optional[str] = None
    ) -> Optional[dict]:
        """One set query (``kind`` ``"prefix"`` or ``"range"``) served by
        the scan-token walk; ``None`` when the tree is empty."""
        replies = await self._ask("search", "queries", kind=kind, lo=lo, hi=hi, via=via)
        if replies is None:
            return None
        return _raised(_settled(replies, 1, "%s query %r", kind, lo))

    # -- introspection ------------------------------------------------------

    async def snapshot(self) -> dict:
        """The union view over all groups: live peers, hosted labels (with
        a filled-data flag) and per-group locator sizes."""
        live: List[str] = []
        hosted: Dict[str, bool] = {}
        locator_sizes = []
        for snap in await self._all("snapshot"):
            live.extend(snap["live"])
            hosted.update(snap["hosted"])
            locator_sizes.append(snap["locator_size"])
        return {"live": sorted(live), "hosted": hosted, "locator_sizes": locator_sizes}

    async def counters(self) -> List[dict]:
        """Per-group transport counters."""
        return await self._all("counters")

    async def set_chaos(self, enabled: bool) -> None:
        """Toggle fault injection on every group (no-op without chaos)."""
        await self._all("chaos", enabled=enabled)


class LocalCluster(Cluster):
    """The one-group, in-process backend over ``engine`` (module doc).
    Nothing is cached: callers may drive the engine behind its back."""

    def __init__(self, engine: ProtocolEngine) -> None:
        self.engine = engine
        self.transport = engine.transport
        self.steps = EngineGroup(engine)

    async def call(self, group: int, step: str, **body) -> Optional[dict]:
        return getattr(self.steps, step)(**body)

    async def drain(self) -> None:
        await self.transport.drain()

    def _members(self) -> Dict[str, object]:
        return self.engine.peers

    def live_ids(self) -> List[str]:
        # A peer whose join is still in flight is admitted but not live.
        return sorted(p.id for p in self.engine.peers.values() if p.joined)

    async def close(self) -> None:
        await self.transport.close()
