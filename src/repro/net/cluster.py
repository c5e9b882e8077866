"""The cluster: every engine-group step and every shared backend operation, once.

The DLPT is one protocol however its peers are spread over machines, so
everything above the engine — the :class:`~repro.net.bootstrap.Broker`,
the conformance driver, ``serve`` bring-up — talks to one *backend*
surface, ``join / leave / crash / register / discover / discover_many /
search / snapshot / live_ids / live_count / counters / drain / set_chaos
/ close``, with the same argument and record shapes whatever the
topology.  It is two layers, each written exactly once:

* :class:`EngineGroup` — the *steps*: synchronous, JSON-in/JSON-out
  methods over one :class:`~repro.dlpt.protocol.ProtocolEngine`.  A step
  issues messages or reads/edits the group's state; it never waits.
* :class:`Cluster` — the *operations* both backends share: membership
  (``join`` / ``leave`` / ``crash``), introspection and the single read,
  each issuing steps on the right group and awaiting quiescence.  The
  protocol has no per-operation acknowledgements, so quiescence *is* the
  completion signal.  It also keeps the read rotation (``_reader``) and
  the insert group (``_inserter``).

A backend supplies how a group is reached (``call``), what quiescence
means (``drain``), where membership is recorded (``_members``) and its
data plane — ``register``, ``discover_many``, ``search`` — written once
per backend:

* :class:`LocalCluster` (here) runs one group per transport in this
  process: a step is a direct call on the group, the engines are the
  registry, and quiescence is every transport drained with no
  inter-group frame still in a socket.  Its data plane skips the steps
  altogether: it issues on the chosen group's engine, waits, and builds
  the reply records (:func:`discovery_record`, :func:`query_record`)
  from the replies that landed in that engine's own lists;
* :class:`~repro.net.procgroup.MultiProcessCluster` runs them in worker
  processes: steps travel as control RPCs, quiescence is a counter poll,
  and the coordinator keeps the membership and registration ledgers.
  Its data plane is the ``insert`` / ``discover`` / ``search`` step, the
  wait, then ``collect`` (or ``locate``): ``collect`` is how landed
  replies cross the process boundary, built by the same two record
  builders.

Either way a batch's records are matched to its keys by one
re-association (:func:`_associate`), which returns records that landed
in issue order as they are.

Groups of several make one ring by static placement (:func:`group_of`,
``crc32(p) % n_groups``: any group resolves any peer to its owner's
listener), per-group endpoints (``@client-gi`` for replies, ``@sync-i``
for locator replication) and a broadcast of every node install to the
other groups' ``@sync`` as data frames, so quiescence covers it.

A crash is the departure: under the ``r=1`` successor replication of
:mod:`repro.faults` the victim's ring successor ends up holding its ν
with the victim's predecessor as its own — exactly where the paper's
departure leaves it.  So ``crash`` runs the ``leave`` step (one
``LeaveTransfer`` to the successor, one ``UpdateSuccessor`` to the
predecessor), and every node install goes through the engine.  Removing
the last peer, by either operation, is refused before any step.

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

import asyncio
import bisect
import collections
import heapq
import operator
import zlib
from typing import Dict, List, Optional, Sequence

from ..dlpt.messages import Envelope
from ..dlpt.protocol import ProtocolEngine
from . import transport as _transport
from .transport import TransportError

#: Endpoint naming scheme of a multi-group ring (group index ``i``).
SYNC_PREFIX = "@sync-"
CLIENT_PREFIX = "@client-g"

#: Live peers an admission names as the joiner's seeds.
N_SEEDS = 3


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


def _make_resolver(n_groups: int, groups: List[tuple]):
    """endpoint -> listener address, per the naming scheme (module doc)."""

    def resolve(endpoint) -> Optional[tuple]:
        if not isinstance(endpoint, str):
            return None
        for prefix in (SYNC_PREFIX, CLIENT_PREFIX):
            if endpoint.startswith(prefix):
                try:
                    return groups[int(endpoint[len(prefix):])]
                except (ValueError, IndexError):
                    return None
        return groups[group_of(endpoint, n_groups)]

    return resolve


def admission(sorted_ids: Sequence[str], peer_id: str) -> Dict[str, object]:
    """What a joiner is told of the ring it joins, from its live ids before
    the join: its successor and the first :data:`N_SEEDS` live peers from
    there (its initial neighbour knowledge)."""
    i = bisect.bisect_left(sorted_ids, peer_id)
    seeds = [sorted_ids[(i + k) % len(sorted_ids)] for k in range(min(N_SEEDS, len(sorted_ids)))]
    return {"peer": peer_id, "successor": successor_of(sorted_ids, peer_id), "seeds": seeds}


def discovery_record(reply, locator) -> dict:
    """The wire-able record of a discovery reply; ``host`` is per
    ``locator``, the group's location table read after the wait."""
    return {
        "key": reply.key,
        "found": reply.found,
        "data": sorted(reply.data, key=repr),
        "hops": reply.hops,
        "host": locator.get(reply.key),
    }


def query_record(reply) -> dict:
    """The wire-able record of a set-query reply."""
    return {
        "kind": reply.kind,
        "lo": reply.lo,
        "hi": reply.hi,
        "keys": list(reply.keys),
        "hops": reply.hops,
    }


class EngineGroup:
    """Group ``index`` of ``n_groups``: an engine on ``transport`` and its
    steps (module doc).  Every public method is a step: keyword arguments
    in, a JSON-able dict (or nothing) out — so it can be called directly or
    dispatched by name from a control RPC.  A lone group keeps the
    engine's ``"@client"``; one of several has the endpoints and broadcast."""

    def __init__(self, transport, index: int = 0, n_groups: int = 1) -> None:
        self.index = index
        self.n_groups = n_groups
        self.transport = transport
        self.engine = self._blank_engine()
        if n_groups > 1:
            transport.register(f"{SYNC_PREFIX}{index}", self._on_sync)

    def _blank_engine(self) -> ProtocolEngine:
        if self.n_groups == 1:
            return ProtocolEngine(transport=self.transport)
        engine = ProtocolEngine(
            transport=self.transport, client_endpoint=f"{CLIENT_PREFIX}{self.index}"
        )
        engine.on_node_installed = self._broadcast_install
        return engine

    # -- locator replication ------------------------------------------------

    def _broadcast_install(self, label: str, host: str) -> None:
        """The engine's ``on_node_installed`` hook: tell the other groups
        (data frames, so quiescence covers the propagation)."""
        src = f"{SYNC_PREFIX}{self.index}"
        for g in range(self.n_groups):
            if g != self.index:
                self.transport.send(src, f"{SYNC_PREFIX}{g}", {"label": label, "host": host})

    def _on_sync(self, env: Envelope) -> None:
        """Another group installed a node: repoint its label here, which
        releases what waited for it (a SearchingHost can race the Host hop
        across groups)."""
        self.engine.set_location(env.payload["label"], env.payload["host"])

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

    # -- data plane ---------------------------------------------------------

    def insert(self, key: str, datum: object, via: Optional[str]) -> None:
        self.engine.insert_data(key, datum, via=via)

    def discover(self, keys: List[str], via: Optional[str]) -> dict:
        """Issue the keys as one batch walk from the engine's entry node;
        ``issued`` is false on an empty tree (there is no entry node)."""
        if not self.engine.locator:
            return {"issued": False}
        self.engine.discover_batch(keys, via)
        return {"issued": True}

    def search(self, kind: str, lo: str, hi: str, via: Optional[str]) -> dict:
        """Issue one set query (``kind`` ``"prefix"`` or ``"range"``)."""
        if not self.engine.locator:
            return {"issued": False}
        self.engine.search_query(kind, lo, hi, via=via)
        return {"issued": True}

    def collect(self) -> dict:
        """Hand over (and forget) the replies landed so far, as wire-able
        records — the read step a control RPC carries across a process
        boundary; a discovery's ``host`` is per the post-drain locator."""
        engine = self.engine
        discovery, queries = engine.discovery_replies, engine.query_replies
        engine.discovery_replies, engine.query_replies = [], []
        locator = engine.locator
        return {
            "discovery": [discovery_record(reply, locator) for reply in discovery],
            "queries": [query_record(reply) for reply in queries],
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
            "live": self.engine.live_ids(),
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


def _miscounted(asked: int, got: int, what: str, *names) -> ClusterError:
    """The error of a wait that collected ``got`` replies, not ``asked``
    (``what % names`` says for what) — returned, not raised, so a batch can
    report it per key."""
    noun = "reply" if asked == 1 else "replies"
    return ClusterError(f"expected {asked} {noun} for {what % names}, got {got}")


def _settled(landed: Sequence[dict], what: str, *names):
    """The one reply record when exactly one landed, else the
    :class:`ClusterError` counting them."""
    if len(landed) != 1:
        return _miscounted(1, len(landed), what, *names)
    return landed[0]


def _raised(outcome):
    if isinstance(outcome, ClusterError):
        raise outcome
    return outcome


_KEY = operator.itemgetter("key")


def _associate(keys: Sequence[str], records: List[dict]) -> list:
    """Each of ``keys``' outcome from the discovery ``records`` one wait
    collected: its record, or — when a reply was lost in flight — the
    :class:`ClusterError` counting what landed for that key instead.
    Records that landed in issue order are the answer as they are (a
    single read always does).  Otherwise (a live transport does not tie
    delivery order to issue order, and a multi-key batch almost never
    lands in it) they are re-associated by key: duplicates in the batch
    get identical answers, so one record answers them all.  Only a batch
    whose keys landed a different number of times than asked — a reply
    lost or extra — pays for counting them per key.  (Benchmark streams:
    250 of 250 reads in order; 141 of 144 batches permuted; 0 miscounted.)"""
    landed = list(map(_KEY, records))
    if landed == keys:
        return records
    answer = {record["key"]: record for record in records}
    if sorted(landed) == sorted(keys):
        return [answer[key] for key in keys]
    got, asked = collections.Counter(landed), collections.Counter(keys)
    return [
        answer[key] if got[key] == asked[key]
        else _miscounted(asked[key], got[key], "discovery of %r", key)
        for key in keys
    ]


class Cluster:
    """The operations both backends share (module doc): membership,
    introspection and the single read, over what a subclass supplies.
    ``async call(group, step, **body)`` runs one :class:`EngineGroup` step
    on a group, ``async drain()`` waits until no protocol message is in
    flight anywhere, ``_members()`` is the collection of admitted peer
    ids (O(1) ``in`` and emptiness), ``register`` / ``discover_many`` /
    ``search`` are the data plane, and ``start()`` / ``close()`` begin
    and end it."""

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

    def _reader(self) -> int:
        """The group the next read is issued from: reads rotate over the
        groups."""
        self._queries_issued += 1
        return self._queries_issued % self.n_groups

    def _inserter(self) -> int:
        """The group an insertion is issued from.  It must start where a
        joined peer lives (the empty-tree Host walk needs a local starting
        peer): the min live id's group.  One group has no placement to
        compute."""
        members = self._members()
        if not members:
            raise ClusterError("no peers joined")
        return self._home(min(members)) if self.n_groups > 1 else 0

    # -- membership ---------------------------------------------------------

    def live_ids(self) -> List[str]:
        """Sorted ids of the peers currently joined to the ring."""
        return sorted(self._members())

    def live_count(self) -> int:
        """How many peers are joined: ``len(live_ids())`` without the sort."""
        return len(self._members())

    def _require_member(self, peer_id: str) -> None:
        if peer_id not in self._members():
            raise ClusterError(f"peer {peer_id!r} not joined")

    async def join(self, peer_id: str, capacity: int = 10) -> dict:
        """Admit ``peer_id`` (bootstrap when first), drain, and return the
        whole ``peer_join`` answer: its :func:`admission` — successor and
        seeds, from the live ids read once, before the join, which also
        seed it — and its settled ring pointers ``pred`` / ``succ``."""
        group = self._home(peer_id)
        ids = self.live_ids()
        if ids:
            await self.call(
                group, "join", peer=peer_id, capacity=capacity, seed=successor_of(ids, peer_id)
            )
        else:
            await self.call(group, "bootstrap", peer=peer_id, capacity=capacity)
        await self.drain()
        ring = await self.call(group, "ring", peer=peer_id)
        return {**admission(ids, peer_id), "pred": ring["pred"], "succ": ring["succ"]}

    async def leave(self, peer_id: str) -> None:
        """The paper's departure: ``peer_id`` hands its nodes to its
        successor; the ring's last peer is refused before any step."""
        self._require_member(peer_id)
        if len(self._members()) == 1:
            raise ClusterError(f"cannot remove {peer_id!r}: it is the ring's last peer")
        await self.call(self._home(peer_id), "leave", peer=peer_id)
        await self.drain()

    async def crash(self, victim_id: str) -> None:
        """Fail-stop crash + ``r=1`` recovery: the departure (module doc)."""
        await self.leave(victim_id)

    # -- data plane ---------------------------------------------------------
    # ``register``, ``discover_many`` and ``search`` are each backend's own
    # (module doc); the single read is their batch of one.

    async def discover(self, key: str, via: Optional[str] = None) -> Optional[dict]:
        """One discovery at quiescence — the batch of one; ``None`` when
        the tree is empty (no entry node), else the reply record."""
        rows = await self.discover_many([key], via)
        return None if rows is None else _raised(rows[0])

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
    """One engine group per transport, in this process (module doc); groups
    of several reach each other over socket transports.  ``engine`` is the
    first group's.  Nothing is cached: callers may drive the engines."""

    def __init__(self, *transports) -> None:
        if not transports:
            raise ValueError("a cluster needs at least one transport")
        self.n_groups = len(transports)
        self.transports = transports
        self.transport = transports[0]
        self.groups = [EngineGroup(t, i, self.n_groups) for i, t in enumerate(transports)]
        self.engine = self.groups[0].engine
        peers = [group.engine.peers for group in self.groups]
        self._peers = peers[0] if self.n_groups == 1 else collections.ChainMap(*peers)

    async def start(self) -> None:
        """Start the transports; give groups of several the resolver."""
        for t in self.transports:
            await t.start()
        if self.n_groups > 1:
            resolve = _make_resolver(self.n_groups, [t.address for t in self.transports])
            for t in self.transports:
                t.set_resolve(resolve)

    async def call(self, group: int, step: str, **body) -> Optional[dict]:
        return getattr(self.groups[group], step)(**body)

    # -- data plane: straight on the engines ---------------------------------
    # Issue on the chosen group's engine, await quiescence, and build the
    # records from the replies that landed in that engine's own list, which
    # a read takes whether or not its wait succeeds: left in place after a
    # failed wait, they would be counted into the next read of the same key
    # ("expected 1 reply …, got 2").

    async def register(self, key: str, datum: object = None) -> dict:
        """Insert ``key`` at quiescence; returns ``{"key", "host"}`` —
        ``host`` (per the post-drain locator) is ``None`` when the
        insertion was lost in flight."""
        engine = self.groups[self._inserter()].engine
        engine.insert_data(key, datum)
        await self.drain()
        return {"key": key, "host": engine.locator.get(key)}

    async def discover_many(self, keys: Sequence[str], via: Optional[str] = None) -> Optional[list]:
        """A batch of discoveries sharing one quiescence wait, answered in
        request order; ``None`` when the tree is empty.  The outcome is
        per key: its reply record, or — when a reply was lost in flight —
        the :class:`ClusterError` counting what landed instead, so a
        caller serving several requests fails only the owner of that key."""
        if not keys:
            return []
        engine = self.groups[self._reader()].engine
        if not engine.locator:
            return None
        engine.discover_batch(keys, via)
        try:
            await self.drain()
        finally:
            replies, engine.discovery_replies = engine.discovery_replies, []
        locator = engine.locator
        return _associate(keys, [discovery_record(reply, locator) for reply in replies])

    async def search(
        self, kind: str, lo: str, hi: str = "", via: Optional[str] = None
    ) -> Optional[dict]:
        """One set query (``kind`` ``"prefix"`` or ``"range"``) served by
        the scan-token walk; ``None`` when the tree is empty."""
        engine = self.groups[self._reader()].engine
        if not engine.locator:
            return None
        engine.search_query(kind, lo, hi, via=via)
        try:
            await self.drain()
        finally:
            replies, engine.query_replies = engine.query_replies, []
        records = [query_record(reply) for reply in replies]
        return _raised(_settled(records, "%s query %r", kind, lo))

    async def drain(self) -> None:
        """One transport's ``drain()``; over several, drain each until one
        look (atomic: one thread reads every counter) finds every group idle
        and ``Σ frames_out == Σ frames_in``, then raise a drain's error."""
        if self.n_groups == 1:
            await self.transport.drain()
            return
        loop = asyncio.get_running_loop()
        timeout = _transport.DRAIN_TIMEOUT
        deadline = loop.time() + timeout
        transports = self.transports
        failed: Optional[TransportError] = None
        while True:
            for t in transports:
                try:
                    await t.drain()
                except TransportError as exc:
                    failed = failed or exc
            if all(t.in_flight == 0 for t in transports) and sum(
                t.frames_out for t in transports
            ) == sum(t.frames_in for t in transports):
                break
            if loop.time() > deadline:
                raise TransportError(f"cluster drain timed out after {timeout}s") from failed
            await asyncio.sleep(0)
        if failed is not None:
            raise failed

    def _members(self) -> Dict[str, object]:
        return self._peers

    def live_ids(self) -> List[str]:
        # A peer whose join is still in flight is admitted but not live.
        lists = [g.engine.live_ids() for g in self.groups]  # each sorted
        return lists[0] if len(lists) == 1 else list(heapq.merge(*lists))

    def live_count(self) -> int:
        return sum(g.engine.live_count() for g in self.groups)

    async def close(self) -> None:
        for t in self.transports:
            await t.close()
