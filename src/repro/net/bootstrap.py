"""The broker: the cluster's well-known RPC rendezvous, plus its journal.

:class:`Broker` is a ``"@broker"`` endpoint on a transport accepting JSON
request payloads (``op`` + ``id`` + ``reply_to``) and answering with
correlated JSON replies.  It owns admission (argument validation,
backpressure, fairness, idempotency) and one ``_OPS`` table of few-line
handlers; the operations themselves are the cluster layer's
(:mod:`repro.net.cluster`), so clients get identical reply shapes — and
identical errors — from an in-process ring and a multi-process one.
Outside input enters here: every argument is type-checked, never coerced,
and a malformed request is answered with an error naming the field before
the backend is called — the envelope's own ``id`` and ``reply_to``
included.  Operations: ``register``, ``discover``, ``discover_batch``,
``search``, ``peer_join``, ``peer_leave``, ``info``.
:class:`~repro.net.client.DLPTClient` is the matching caller.

Service order and quiescence.  Pending requests are popped round-robin
over clients, and every backend operation ends at quiescence before its
reply is sent.  Service holds no task while it need not wait: the
transport's idle callback — made once the pump that admitted a request
has delivered all it had, never inside ``_on_message`` — serves what is
pending right there, so a request is answered in the loop turn that read
it.  Only a service that must wait (a control RPC to a worker process, a
drain longer than a pump batch, a chaos delay) goes on as a task, and
that task serves what is admitted meanwhile, in the same rotation.  Until
it first waits a service runs with no current task, so a backend must
not reach for a task-bound timeout (``asyncio.timeout``, 3.12's
``wait_for``) before its first suspension; once carried, a cancellation
reaches the service at its await exactly as in any task.  The
*run* of pending reads-by-key (``discover``, ``discover_batch``) at the
head of that rotation is served as **one
group under one quiescence wait**: all their keys go through the
backend's ``discover_many`` once, the rows are split back per request and
the replies leave in pop order.  Every other op ends the run and is
served alone, so a write is a barrier (a read popped after it sees it, a
read popped before it does not) and per-client FIFO is untouched; a lone
read is simply the group of one.  A group holds at most
:attr:`Broker.READ_GROUP` requests, so a flooder's backlog cannot become
one giant group a polite client must wait out.  ``search`` stays a group
of one until set-query replies carry request identity (two concurrent
queries over the same range could not be told apart).

Robustness under client floods, when ``inbox_limit=`` is set (the default
``None`` queues without bound):

* the pending-request inbox is **bounded** — a request arriving when the
  inbox is full is answered immediately with an explicit backpressure
  reply ``{"ok": False, "busy": True, "retry_after": RETRY_AFTER}``,
  never silently queued without bound or dropped;
* pending requests are kept in **per-client queues** served round-robin,
  so one flooding client cannot starve the others;
* retries are **idempotent by correlation id**: a duplicate of a request
  still queued or being served is absorbed (the original's reply answers
  both), and a duplicate of a completed request is answered from a small
  reply cache without re-executing the operation.

:class:`RegistryJournal` persists membership changes as ``repro-registry/1``
JSONL so a restarted broker recovers its successor oracle before any peer
re-registers.
"""

from __future__ import annotations

import asyncio
import collections
import json
import os
from typing import Dict, List, Optional, Tuple

from ..dlpt.messages import Envelope
from .asyncio_transport import BROKER_ENDPOINT  # re-exported: the broker's name
from .cluster import admission, successor_of
from .transport import Transport
from .wire import require_scalar

#: Schema tag of the registry journal's JSONL records.
REGISTRY_SCHEMA = "repro-registry/1"

#: Seconds a ``busy`` reply tells its client to wait before retrying.
RETRY_AFTER = 0.05


def checked_member(peer: object, capacity: object) -> Tuple[str, int]:
    """The one admission rule for a ring member, wherever one enters — a
    ``peer_join`` RPC, a journal ``join`` record, ``serve --capacity``: a
    non-empty string id and an integer capacity >= 1, never coerced
    (``str(None)`` would admit a peer named ``"None"``, ``int(True)`` a
    capacity of 1).  Returns ``(peer, capacity)``; raises ``ValueError``
    naming the field."""
    if not isinstance(peer, str) or not peer:
        raise ValueError(f"'peer' must be a non-empty string, got {peer!r}")
    if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity < 1:
        raise ValueError(f"'capacity' must be an integer >= 1, got {capacity!r}")
    return peer, capacity


class RegistryJournal:
    """JSONL persistence for the bootstrap registry (``repro-registry/1``).

    One line per membership change::

        {"v": "repro-registry/1", "op": "join", "peer": "abcd", "capacity": 10}
        {"v": "repro-registry/1", "op": "leave", "peer": "abcd"}
        {"v": "repro-registry/1", "op": "crash", "peer": "abcd"}

    Appends are flushed line-by-line, so a crash loses at most the change
    in progress.  :meth:`replay` folds the log into the final membership;
    a restarted broker rebuilds its successor oracle from it
    (:meth:`successor_of`) before any peer has re-registered, and the
    serve layer re-admits the recovered peers.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = None

    # -- writing -----------------------------------------------------------

    def record(self, op: str, peer: str, capacity: Optional[int] = None) -> None:
        """Append one membership change (``join``/``leave``/``crash``)."""
        entry: Dict[str, object] = {"v": REGISTRY_SCHEMA, "op": op, "peer": peer}
        if capacity is not None:
            entry["capacity"] = capacity
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- recovery ----------------------------------------------------------

    def replay(self) -> Dict[str, int]:
        """Fold the journal into live membership: ``{peer_id: capacity}``.

        Unknown schemas and malformed lines — a record that is not an
        object, a member :func:`checked_member` refuses — raise
        ``ValueError`` prefixed ``path:lineno:``: a corrupt journal must
        fail loudly, not seed a wrong ring.
        """
        live: Dict[str, int] = {}
        if not os.path.exists(self.path):
            return live
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{self.path}:{lineno}"
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{where}: not JSON: {exc}") from exc
                if not isinstance(entry, dict):
                    raise ValueError(f"{where}: not a JSON object: {line}")
                if entry.get("v") != REGISTRY_SCHEMA:
                    raise ValueError(
                        f"{where}: schema {entry.get('v')!r} is not {REGISTRY_SCHEMA!r}"
                    )
                op = entry.get("op")
                if op not in ("join", "leave", "crash"):
                    raise ValueError(f"{where}: unknown op {op!r}")
                try:
                    peer, capacity = checked_member(entry.get("peer"), entry.get("capacity", 10))
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
                if op == "join":
                    live[peer] = capacity
                else:
                    live.pop(peer, None)
        return live

    def successor_of(self, peer_id: str) -> Optional[str]:
        """The recovered successor oracle (the live backends' rule,
        :func:`repro.net.cluster.successor_of`, over the replayed ids)."""
        return successor_of(sorted(self.replay()), peer_id)


def _text(request: dict, field: str, default: object = None) -> str:
    """A string argument of an RPC.  Outside input enters at the broker, so
    it is validated, never coerced: ``str()`` would ack a ``None`` key as
    the key ``"None"``."""
    value = request.get(field, default)
    if not isinstance(value, str):
        raise ValueError(f"{field!r} must be a string, got {value!r}")
    return value


#: The reads-by-key: what a run of pending requests may be grouped from.
READ_OPS = ("discover", "discover_batch")


def _wanted(request: dict) -> List[str]:
    """The keys a read asks for: ``discover`` one, ``discover_batch`` a list."""
    if request["op"] == "discover":
        return [_text(request, "key")]
    keys = request.get("keys")
    if not isinstance(keys, list) or not all(isinstance(k, str) for k in keys):
        raise ValueError(f"'keys' must be a list of strings, got {keys!r}")
    return keys


def _shaped(request: dict, rows: list) -> object:
    """A read's outcome from its own rows: the first lost reply fails it
    whole (its reply is one frame), else the op's result fields."""
    for row in rows:
        if isinstance(row, Exception):
            return row
    return rows[0] if request["op"] == "discover" else {"results": rows}


class Broker:
    """The ``"@broker"`` RPC endpoint: drain-then-reply — the pending run
    of reads as one group under one drain, every other op alone — with
    bounded-inbox backpressure and per-client fairness (module doc)."""

    #: Completed replies kept for idempotent retries, per broker.
    COMPLETED_CACHE = 256

    #: Most reads served as one group.  The bound is what a polite client
    #: can be made to wait behind a flooder's backlog: one group, not all
    #: of it.
    READ_GROUP = 16

    def __init__(
        self,
        backend,
        transport: Transport,
        *,
        inbox_limit: Optional[int] = None,
        journal: Optional[RegistryJournal] = None,
    ) -> None:
        #: What executes the operations (:mod:`repro.net.cluster`).
        self.backend = backend
        #: Where clients reach ``"@broker"`` — the backend's own transport
        #: for a :class:`~repro.net.cluster.LocalCluster`, a separate
        #: client-facing listener in front of a multi-process ring.
        self.transport = transport
        self.journal = journal
        self.inbox_limit = inbox_limit
        self.requests_served = 0
        self.requests_rejected = 0
        self.duplicates_absorbed = 0
        #: Pending requests right now / the high-water mark ever observed
        #: (the flood test's bounded-memory witness).
        self.pending = 0
        self.max_pending = 0
        #: client -> FIFO of its pending requests; clients with work rotate
        #: through ``_rr`` so one flooder cannot starve the rest.
        self._queues: Dict[object, collections.deque] = {}
        self._rr: collections.deque = collections.deque()
        #: Correlation ids queued or being served, and a bounded LRU of
        #: completed replies — the two halves of idempotent retry.
        self._inflight: set = set()
        self._completed: "collections.OrderedDict[Tuple[object, object], dict]" = (
            collections.OrderedDict()
        )
        #: The service that had to wait, carried on as a task; ``None``
        #: whenever nothing is waiting.
        self._task: Optional[asyncio.Task] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self.transport.register(BROKER_ENDPOINT, self._on_message)
        self.transport.set_idle(self._on_idle)

    async def close(self) -> None:
        self.transport.unregister(BROKER_ENDPOINT)
        self.transport.set_idle(None)
        if self._task is not None:
            self._task.cancel()
            await asyncio.gather(self._task, return_exceptions=True)
            self._task = None
        if self.journal is not None:
            self.journal.close()

    # -- admission (backpressure + idempotency) ----------------------------

    def _on_message(self, env: Envelope) -> None:
        if not isinstance(env.payload, dict):
            return
        request = env.payload
        client = request.get("reply_to", env.src)
        rid = request.get("id")
        # The envelope is outside input too, and nothing here may raise:
        # this runs inside the transport's delivery, which files an
        # exception for whoever drains next — another client's operation.
        refused = None
        if not isinstance(client, str):
            client, refused = env.src, f"'reply_to' must be a string, got {client!r}"
        if rid is not None and not isinstance(rid, (int, str)):
            rid, refused = None, f"'id' must be an integer or a string, got {rid!r}"
        if refused is not None:
            if isinstance(client, str):  # else there is nobody to answer
                self.transport.send(
                    BROKER_ENDPOINT,
                    client,
                    {"id": rid, "ok": False, "error": f"ValueError: {refused}"},
                )
            return
        key = (client, rid)
        if rid is not None:
            cached = self._completed.get(key)
            if cached is not None:
                # Retry of a completed request: re-send the same reply.
                self.duplicates_absorbed += 1
                self.transport.send(BROKER_ENDPOINT, client, cached)
                return
            if key in self._inflight:
                # Retry of a queued/in-service request: the original's
                # reply will answer it.
                self.duplicates_absorbed += 1
                return
        if self.inbox_limit is not None and self.pending >= self.inbox_limit:
            self.requests_rejected += 1
            self.transport.send(
                BROKER_ENDPOINT,
                client,
                {
                    "id": rid,
                    "ok": False,
                    "busy": True,
                    "error": "busy: broker inbox full",
                    "retry_after": RETRY_AFTER,
                },
            )
            return
        if rid is not None:
            self._inflight.add(key)
        queue = self._queues.get(client)
        if queue is None:
            queue = self._queues[client] = collections.deque()
            self._rr.append(client)
        queue.append(request)
        self.pending += 1
        if self.pending > self.max_pending:
            self.max_pending = self.pending

    # -- serving loop ------------------------------------------------------

    def _next_request(self) -> Tuple[object, dict]:
        """Round-robin pop: serve the head client's oldest request, then
        move that client to the back of the rotation."""
        client = self._rr[0]
        queue = self._queues[client]
        request = queue.popleft()
        self.pending -= 1
        if queue:
            self._rr.rotate(-1)
        else:
            self._rr.popleft()
            del self._queues[client]
        return client, request

    def _next_group(self) -> List[Tuple[object, dict]]:
        """The next request in rotation and — when it is a read — the run
        of reads pending behind it, up to :attr:`READ_GROUP`.  Anything
        else ends the run (and is a group of its own when it comes first),
        so pop order is exactly one-at-a-time service order."""
        group = [self._next_request()]
        if group[0][1].get("op") in READ_OPS:
            while (
                len(group) < self.READ_GROUP
                and self._rr
                and self._queues[self._rr[0]][0].get("op") in READ_OPS
            ):
                group.append(self._next_request())
        return group

    def _on_idle(self) -> None:
        """The transport's idle callback: step the service once, so what
        is pending is served right here; a service that must wait goes on
        as the task :meth:`_carry`.  While that task exists it serves
        everything, so this does nothing.  No task is current during this
        first step, so what a backend awaits before it first suspends
        must not need one (:meth:`MultiProcessCluster.call
        <repro.net.procgroup.MultiProcessCluster.call>` times out with a
        loop timer for that reason)."""
        if self._task is not None or not self._rr:
            return
        service = self._serve()
        try:
            waiting = service.send(None)
        except StopIteration:
            return
        self._task = asyncio.get_running_loop().create_task(self._carry(service, waiting))

    async def _carry(self, service, waiting) -> None:
        """Run a suspended service to its end, stepping it as a task steps
        its coroutine: wait for what it awaits (``None`` is a bare yield),
        then resume it.  A cancellation of this task — :meth:`close`, or a
        timeout the service armed against the current task — cancels what
        the service awaits and is thrown into the service at that await,
        so the service's own ``try`` and timeouts see it; unless the
        service absorbs it, it ends this task."""
        try:
            while True:
                try:
                    if waiting is None:
                        await asyncio.sleep(0)
                    else:
                        await asyncio.wait([waiting])
                except asyncio.CancelledError as exc:
                    if waiting is not None:
                        waiting.cancel()
                    waiting = service.throw(exc)
                else:
                    waiting = service.send(None)
        except StopIteration:
            pass
        finally:
            self._task = None

    async def _serve(self) -> None:
        """Serve groups in rotation until nothing is pending."""
        while self._rr:
            group = self._next_group()
            outcomes = await self._outcomes([request for _client, request in group])
            for (client, request), outcome in zip(group, outcomes):
                self._answer(client, request, outcome)

    async def _outcomes(self, requests: List[dict]) -> list:
        """What each request of a group comes to, in order: its result
        fields, or the exception that ended it."""
        if requests[0].get("op") in READ_OPS:
            return await self._discover(requests)
        (request,) = requests
        try:
            op = request.get("op")
            handler = self._OPS.get(op)
            if handler is None:
                raise ValueError(f"unknown broker op {op!r}")
            return [await handler(self, request)]
        except Exception as exc:
            return [exc]

    async def _discover(self, requests: List[dict]) -> list:
        """Reads, one or many: issue every member's keys through one
        ``discover_many`` — one quiescence wait — and hand each member its
        own rows back.  A malformed member fails alone before the backend
        is called; a lost reply fails the member that owns the key; what
        ends the shared wait itself (an empty tree, a transport error, a
        ring mid-recovery) is every member's outcome."""
        outcomes: list = []  # first pass: a member's keys, or the error refusing it
        keys: List[str] = []
        for request in requests:
            try:
                outcomes.append(_wanted(request))
            except ValueError as exc:
                outcomes.append(exc)
            else:
                keys += outcomes[-1]
        try:
            rows = self._answered(await self.backend.discover_many(keys))
        except Exception as exc:
            rows = [exc] * len(keys)
        taken = 0
        for index, wanted in enumerate(outcomes):
            if isinstance(wanted, list):
                outcomes[index] = _shaped(requests[index], rows[taken : taken + len(wanted)])
                taken += len(wanted)
        return outcomes

    def _answer(self, client: object, request: dict, outcome: object) -> None:
        """Send one request's correlated reply and close its idempotency
        bookkeeping."""
        rid = request.get("id")
        reply = {"id": rid}
        if isinstance(outcome, self.backend.RETRYABLE_ERRORS):
            # Transient (the backend declares it: a multi-process ring
            # mid-recovery): tell the client to come back, exactly like
            # inbox backpressure, so it retries through the outage.
            reply.update(
                ok=False,
                busy=True,
                error=f"retry: {type(outcome).__name__}: {outcome}",
                retry_after=RETRY_AFTER,
            )
        elif isinstance(outcome, Exception):  # every other failure is definitive
            reply.update(ok=False, error=f"{type(outcome).__name__}: {outcome}")
        else:
            reply.update(ok=True, **outcome)
        if rid is not None:
            key = (client, rid)
            self._inflight.discard(key)
            # Busy replies are *transient* — caching one would pin a
            # retrying client to the rejection forever (its same-id
            # retry would hit the cache, never the recovered broker).
            if not reply.get("busy"):
                self._completed[key] = reply
                while len(self._completed) > self.COMPLETED_CACHE:
                    self._completed.popitem(last=False)
        self.transport.send(BROKER_ENDPOINT, client, reply)
        self.requests_served += 1

    # -- operations --------------------------------------------------------

    @staticmethod
    def _answered(reply):
        """A backend answers ``None`` when there is no entry node."""
        if reply is None:
            raise RuntimeError("tree is empty")
        return reply

    async def _op_register(self, request: dict) -> dict:
        # Outside input enters here: a datum the codec could not carry
        # between peers is refused before any handler mutates the tree.
        datum = require_scalar(request.get("datum"))
        result = await self.backend.register(_text(request, "key"), datum)
        if result["host"] is None:
            # Under fault injection the insertion can be lost in flight;
            # an ok-reply here would be a *false acknowledgement* — the
            # client must see a failure so it (or its retry policy) knows
            # the registration did not land.
            raise RuntimeError(
                f"registration of {result['key']!r} did not install a host"
            )
        return result

    async def _op_search(self, request: dict) -> dict:
        return self._answered(
            await self.backend.search(
                _text(request, "kind"), _text(request, "lo"), _text(request, "hi", "")
            )
        )

    async def _op_peer_join(self, request: dict) -> dict:
        peer_id, capacity = checked_member(request.get("peer"), request.get("capacity", 10))
        admitted = admission(self.backend.live_ids(), peer_id)
        ring = await self.backend.join(peer_id, capacity)
        if self.journal is not None:
            self.journal.record("join", peer_id, capacity)
        return {**admitted, **ring}

    async def _op_peer_leave(self, request: dict) -> dict:
        peer_id = _text(request, "peer")
        await self.backend.leave(peer_id)
        if self.journal is not None:
            self.journal.record("leave", peer_id)
        return {"peer": peer_id, "peers": len(self.backend.live_ids())}

    async def _op_info(self, request: dict) -> dict:
        snap = await self.backend.snapshot()
        return {
            "peers": len(snap["live"]),
            "nodes": len(snap["hosted"]),
            "keys": sorted(label for label, filled in snap["hosted"].items() if filled),
            "served": self.requests_served,
            "rejected": self.requests_rejected,
            "pending": self.pending,
            "max_pending": self.max_pending,
        }

    _OPS = {
        "register": _op_register,
        "search": _op_search,
        "peer_join": _op_peer_join,
        "peer_leave": _op_peer_leave,
        "info": _op_info,
    }
