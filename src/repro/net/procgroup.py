"""Multi-process engine groups: one DLPT ring spread over OS processes.

The scaling step beyond one process: the ring's peers are partitioned
into *engine groups*, each group a ``ProtocolEngine`` +
:class:`~repro.net.asyncio_transport.AsyncioTransport` pair living in its
own worker process (``multiprocessing`` spawn).  Protocol messages between
peers of different groups cross real sockets.  The operations and the
steps they are made of are :mod:`repro.net.cluster`'s — a worker *is* an
:class:`~repro.net.cluster.EngineGroup` behind a control channel, and
:class:`MultiProcessCluster` is the :class:`~repro.net.cluster.Cluster`
whose ``call`` is a control RPC and whose ``drain`` is global quiescence.
This module adds only what separate processes need: spawn and lifecycle,
the control channels, locator replication, supervision, and the ledgers
recovery replays.

Topology and addressing:

* **Placement** is static: peer ``p`` lives in group
  ``zlib.crc32(p) % n_groups`` (:func:`~repro.net.cluster.group_of`), so
  every group can resolve any peer id to the owning group's listener
  address without coordination.
* **Per-group endpoints** — group ``i`` registers its locator-sync sink
  ``@sync-i`` and its engine's private client endpoint ``@client-gi`` so
  discovery/query replies route back to the issuing process.
* **Control channel** — the coordinator reaches worker ``i`` over the
  ``multiprocessing.Pipe()`` it was spawned with: a ``_Connection`` at
  each end, read in its callback (no task), carrying ``repro-wire/1``
  JSON frames — the worker's listener address, then ``{"op", "id", …}``
  requests and ``{"id", "ok", …}`` replies.  No transport carries them,
  so a transport counts every message; closing the channel stops the
  worker.
* **Locator replication** — every node install fires the engine's
  ``on_node_installed`` hook, which broadcasts ``{label, host}`` to the
  other groups' ``@sync`` endpoints as ordinary *data* frames: global
  drain therefore covers locator propagation, and a group is never
  quiescent with a stale location table.

Global quiescence (the multi-process ``drain``): every group reports
``in_flight == 0`` **and** the cluster sums satisfy ``Σ frames_out ==
Σ frames_in`` (a frame sitting in a socket buffer has been counted
delivered by its sender but not yet ingressed), observed stable across
two consecutive polls.  Counter polls travel on the control channels, so
polling cannot keep the cluster awake.  The rule compares snapshots, never
elapsed time: the counters only grow, so each group's stayed put from its
first read to its second, and every first read precedes every second one —
the whole cluster was as quiet as they read at one instant in between.  A
quiet poll is therefore confirmed at once; only a busy cluster is given
2 ms before the next poll.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import multiprocessing
import os
import socket
from typing import Dict, List, Optional, Tuple

from ..dlpt.messages import Envelope
from ..dlpt.protocol import ProtocolEngine
from . import transport as _transport
from .asyncio_transport import AsyncioTransport, _Connection
from .cluster import STEPS, Cluster, ClusterError, EngineGroup, group_of
from .transport import TransportError
from .wire import encode_frame

#: How long :meth:`MultiProcessCluster.drain` waits for global quiescence
#: once a worker has reported a transport error (else the transports'
#: :data:`~repro.net.transport.DRAIN_TIMEOUT`).
ERROR_SETTLE = 2.0

#: How long a control RPC waits for its reply.
RPC_TIMEOUT = 30.0

#: The supervisor's beat, and how long a ``ping`` may take before the
#: worker is condemned.
HEARTBEAT_INTERVAL = 0.25
HEARTBEAT_TIMEOUT = 2.0

#: Endpoint naming scheme (group index ``i``).
SYNC_PREFIX = "@sync-"
CLIENT_PREFIX = "@client-g"


class ClusterRecovering(ClusterError):
    """The supervisor is mid-recovery; the operation is retryable once
    the cluster has healed (the serve layer maps this to a backpressure
    reply, so resilient clients ride through the outage)."""


def _make_resolver(n_groups: int, groups: List[tuple]):
    """endpoint -> listener address, per the naming scheme above."""

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


async def _open_channel(conn, on_frames, on_lost) -> asyncio.Transport:
    """A ``_Connection`` with a 64 KiB read buffer of its own over one end
    of a ``multiprocessing.Pipe()`` (a UNIX socketpair); the pipe hands
    its descriptor over and closes."""
    sock = socket.socket(fileno=os.dup(conn.fileno()))
    conn.close()
    channel = _Connection(memoryview(bytearray(1 << 16)), on_frames, on_lost)
    loop = asyncio.get_running_loop()
    return (await loop.create_unix_connection(lambda: channel, sock=sock))[0]


def _frame(payload) -> bytes:
    """One channel frame (a channel joins two parties: no endpoints)."""
    return encode_frame(None, None, payload)


def _expire(future: asyncio.Future) -> None:
    """A control RPC's deadline: its reply future fails, unless answered."""
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


class _Worker(EngineGroup):
    """One engine group behind its control channel: the shared steps,
    plus what only a separate process needs — locator replication, the
    frame/error extension of ``counters``, heartbeat and reset."""

    #: What the control channel dispatches: the shared steps plus the
    #: worker's own two.
    OPS = STEPS | {"ping", "reset"}

    def __init__(self, index: int, n_groups: int, engine) -> None:
        super().__init__(engine)
        self.index = index
        self.n_groups = n_groups

    # -- locator replication ------------------------------------------------

    def broadcast_install(self, label: str, host: str) -> None:
        """The engine's ``on_node_installed`` hook: tell the other groups
        (data frames, so global drain covers the propagation)."""
        src = f"{SYNC_PREFIX}{self.index}"
        for g in range(self.n_groups):
            if g != self.index:
                self.transport.send(src, f"{SYNC_PREFIX}{g}", {"label": label, "host": host})

    def on_sync(self, env: Envelope) -> None:
        self.locator_set({env.payload["label"]: env.payload["host"]})

    # -- control RPCs -------------------------------------------------------

    def serve(self, channel, requests) -> None:
        """Run the control RPCs one channel read carried.  Each framed
        reply — the step's result, or the error it raised (an unencodable
        result included) — is written a callback later, behind the
        delivery pump its step armed, so the counter poll that follows it
        finds that local cascade run."""
        loop = asyncio.get_running_loop()
        for env in requests:
            body = dict(env.payload)
            rid = body.pop("id", None)
            op = body.pop("op", None)
            try:
                if op not in self.OPS:
                    raise ClusterError(f"unknown control op {op!r}")
                reply = _frame({"id": rid, "ok": True, **(getattr(self, op)(**body) or {})})
            except Exception as exc:
                reply = _frame({"id": rid, "ok": False, "error": f"{type(exc).__name__}: {exc}"})
            loop.call_soon(channel.transport.write, reply)

    def counters(self) -> dict:
        """The shared counters plus this group's inter-group frame totals
        and the transport errors since the last poll, handed over and
        forgotten: the polling :meth:`MultiProcessCluster.drain` raises
        them once, so one operation fails, not every later one."""
        t = self.transport
        errors = [repr(e) for e in t.errors]
        t.errors.clear()
        return {
            **super().counters(),
            "frames_out": t.frames_out,
            "frames_in": t.frames_in,
            "errors": errors,
        }

    def ping(self) -> dict:
        """Heartbeat probe: proves the worker's event loop is servicing
        its control channel, not merely that the process exists."""
        return {"pong": True, "uptime": self.transport.now()}

    def reset(self, groups: list) -> None:
        """Wipe this group back to a blank engine that reaches the others
        at ``groups`` (a new worker's first RPC; every worker's in a
        recovery).  Addresses arrive as JSON lists; they must be
        re-tupled or the resolver would hand the link cache unhashable
        keys (and ``address == self.address`` would never match)."""
        groups = [tuple(a) for a in groups]
        engine, t = self.engine, self.transport
        for peer_id in list(engine.peers):
            t.unregister(peer_id)
        engine.peers.clear()
        engine.drop_locations()
        engine.pending_node_messages.clear()
        engine.discovery_replies.clear()
        engine.query_replies.clear()
        t.set_resolve(_make_resolver(self.n_groups, groups))
        t.reset_links()
        t.errors.clear()
        t.reset_accounting()


async def _worker_async(index: int, n_groups: int, conn, chaos=None) -> None:
    transport = AsyncioTransport()
    await transport.start()
    if chaos is not None:
        from .chaos import ChaosTransport

        # Per-group seed derivation: every group injects *different*
        # faults, but the whole cluster replays identically per run seed.
        transport = ChaosTransport(
            transport, chaos, seed=chaos.seed + index * 7919
        )
    engine = ProtocolEngine(transport=transport, client_endpoint=f"{CLIENT_PREFIX}{index}")
    worker = _Worker(index, n_groups, engine)
    engine.on_node_installed = worker.broadcast_install
    transport.register(f"{SYNC_PREFIX}{index}", worker.on_sync)
    closed = asyncio.Event()
    channel = await _open_channel(conn, worker.serve, lambda _channel, _exc: closed.set())
    channel.write(_frame(list(transport.address)))
    try:
        # Serve until the coordinator closes the channel (or dies).
        await closed.wait()
    finally:
        await transport.close()
        channel.close()


def _worker_main(index: int, n_groups: int, conn, chaos=None) -> None:
    """Entry point of one engine-group process (spawn target)."""
    asyncio.run(_worker_async(index, n_groups, conn, chaos))


# ---------------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------------


class MultiProcessCluster(Cluster):
    """Parent-side handle on a ring spread over worker processes.

    The N-group backend (:mod:`repro.net.cluster`): every operation is
    the shared one, reaching a group through the :meth:`call` control RPC
    and ending at *global* quiescence (:meth:`drain`); the overrides here
    only refuse work mid-recovery and keep the ledgers.  Membership is
    tracked here — the coordinator *is* the bootstrap registry of the
    multi-process runtime (``successor_of`` seeds every join with O(1)
    messages).
    """

    #: A supervisor-driven recovery (and a worker silently dying, as a
    #: control-RPC timeout) is *transient*: the broker answers these with
    #: backpressure so a resilient client retries through the outage.
    RETRYABLE_ERRORS: tuple = (ClusterRecovering, asyncio.TimeoutError)

    def __init__(
        self,
        processes: int = 2,
        *,
        chaos=None,
        supervise: bool = False,
        journal=None,
    ) -> None:
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.n_groups = processes
        if chaos is not None:
            from .chaos import parse_chaos

            chaos = parse_chaos(chaos)
        #: Fault plan injected into every worker's transport (or ``None``).
        self.chaos = chaos
        self.supervise = supervise
        #: Membership journal (``repro-registry/1``); the supervisor
        #: records a ``crash`` per peer lost with a dead worker.
        self.journal = journal
        #: peer id -> capacity of every joined peer (insertion-ordered).
        self.members: Dict[str, int] = {}
        #: The acknowledged-registration ledger: every key whose register
        #: returned a host.  Recovery replays it through the rebuilt ring,
        #: which is what makes "no acked registration is ever lost" hold.
        self.registrations: Dict[str, object] = {}
        #: Supervision observability.
        self.recoveries = 0
        self.crashed_peers: List[str] = []
        self.supervisor_errors: List[BaseException] = []
        self._recovering = False
        self._ctx = None
        self._procs: list = []
        #: Per group: the coordinator's end of its control channel.
        self._channels: List[Optional[asyncio.Transport]] = []
        self._groups: List[Optional[tuple]] = []
        self._supervise_task: Optional[asyncio.Task] = None
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}

    # -- lifecycle ----------------------------------------------------------

    async def _spawn(self, index: int) -> asyncio.Future:
        """(Re)spawn the worker process of group ``index``; returns the
        future of its listener address, failed with :class:`ClusterError`
        if its channel closes first."""
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(index, self.n_groups, child_conn, self.chaos),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[index] = proc
        address = asyncio.get_running_loop().create_future()
        died = ClusterError(f"worker {index} died during startup")
        self._channels[index] = await _open_channel(
            parent_conn,
            functools.partial(self._on_replies, address),
            lambda _channel, _exc: address.done() or address.set_exception(died),
        )
        return address

    def _on_replies(self, address: asyncio.Future, channel, frames) -> None:
        """A read of one worker's channel: its address, then the replies
        to :meth:`call`."""
        for env in frames:
            payload = env.payload
            if not address.done():
                address.set_result(tuple(payload))
                continue
            future = self._pending.pop(payload.get("id"), None)
            if future is None or future.done():
                continue
            if payload.get("ok"):
                future.set_result(payload)
            else:
                future.set_exception(ClusterError(payload.get("error", "unknown error")))

    async def _introduce(self, addresses: Dict[int, asyncio.Future]) -> None:
        """Await the listener addresses of (re)spawned workers, then hand
        every group the full address map with its ``reset``."""
        for index, address in zip(addresses, await asyncio.gather(*addresses.values())):
            self._groups[index] = address
        for g in range(self.n_groups):
            await self.call(g, "reset", groups=self._groups)

    async def start(self) -> None:
        self._ctx = multiprocessing.get_context("spawn")
        self._procs = [None] * self.n_groups
        self._channels = [None] * self.n_groups
        self._groups = [None] * self.n_groups
        await self._introduce({index: await self._spawn(index) for index in range(self.n_groups)})
        if self.supervise:
            self._supervise_task = asyncio.get_running_loop().create_task(
                self._supervise()
            )

    async def close(self) -> None:
        if self._supervise_task is not None:
            self._supervise_task.cancel()
            await asyncio.gather(self._supervise_task, return_exceptions=True)
            self._supervise_task = None
        # End-of-file on its channel stops a worker.  Aborting drops an
        # unsent request (it is moot) and closes the socket in the next
        # loop turn, which must come before the blocking joins below.
        for channel in self._channels:
            if channel is not None:
                channel.abort()
        await asyncio.sleep(0)
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self._procs.clear()
        self._channels.clear()

    # -- control RPC --------------------------------------------------------

    async def call(self, group: int, op: str, *, timeout: Optional[float] = None, **body) -> dict:
        """One control RPC to group ``group``; raises :class:`ClusterError`
        on an error reply, ``asyncio.TimeoutError`` when the worker went
        silent.  The deadline is a loop timer on the reply future, not
        ``asyncio.wait_for``: the broker starts a service with no current
        task (:meth:`repro.net.bootstrap.Broker._on_idle`), where a
        task-bound timeout raises ``RuntimeError``."""
        rid = next(self._ids)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending[rid] = future
        body.update(op=op, id=rid)
        channel = self._channels[group]
        if not channel.is_closing():  # a dead worker's RPC just goes unanswered
            channel.write(_frame(body))
        expiry = loop.call_later(timeout or RPC_TIMEOUT, _expire, future)
        try:
            return await future
        finally:
            expiry.cancel()
            self._pending.pop(rid, None)

    # -- quiescence ---------------------------------------------------------

    async def drain(self) -> List[dict]:
        """Wait for *global* quiescence: every group idle, frame sums
        balanced, stable across two consecutive polls (module doc); then
        raise the worker transport errors the polls handed over.  Like
        ``AsyncioTransport.drain`` the wait comes first: an operation that
        fails must not leave its own messages still travelling.  Once an
        error is known the wait is cut to :data:`ERROR_SETTLE` — a codec or
        link error can unbalance the frame sums for good (the sender
        counted a frame nobody will ever count in), and that must still
        surface as the :class:`ClusterError` it is, not as a timeout."""
        loop = asyncio.get_running_loop()
        timeout = _transport.DRAIN_TIMEOUT
        deadline = loop.time() + timeout
        previous: Optional[Tuple] = None
        errors: List[str] = []
        while True:
            snaps = await self.counters()
            fresh = [text for s in snaps for text in s["errors"]]
            if fresh and not errors:
                deadline = min(deadline, loop.time() + ERROR_SETTLE)
            errors += fresh
            quiet = all(s["in_flight"] == 0 for s in snaps) and sum(
                s["frames_out"] for s in snaps
            ) == sum(s["frames_in"] for s in snaps)
            signature = tuple(
                (s["sent"], s["delivered"], s["frames_out"], s["frames_in"])
                for s in snaps
            )
            settled = quiet and signature == previous
            if errors and (settled or loop.time() > deadline):
                raise ClusterError(
                    f"{len(errors)} worker transport error(s): {errors[:4]}"
                )
            if settled:
                return snaps
            previous = signature if quiet else None
            if loop.time() > deadline:
                raise TransportError(
                    f"cluster drain timed out after {timeout}s: {snaps}"
                )
            if not quiet:
                await asyncio.sleep(0.002)

    # -- supervision ---------------------------------------------------------

    def _check_ready(self) -> None:
        if self._recovering:
            raise ClusterRecovering("cluster is recovering from a worker crash")

    async def _supervise(self) -> None:
        """The supervisor: every :data:`HEARTBEAT_INTERVAL` check worker
        liveness (``is_alive`` catches process death instantly; a
        round-robin ``ping`` control RPC catches a hung event loop) and
        run :meth:`_recover` over whatever died."""
        probe = 0
        while True:
            await asyncio.sleep(HEARTBEAT_INTERVAL)
            if self._recovering:
                continue
            dead = [
                i for i, proc in enumerate(self._procs)
                if proc is not None and not proc.is_alive()
            ]
            if not dead and self.n_groups > 0:
                probe = (probe + 1) % self.n_groups
                try:
                    await self.call(probe, "ping", timeout=HEARTBEAT_TIMEOUT)
                except asyncio.TimeoutError:
                    # No heartbeat within the timeout: the worker is dead
                    # or wedged — either way it must be replaced.
                    dead = [probe]
                except ClusterError:
                    continue  # a recovery raced us; re-probe next beat
            if not dead:
                continue
            try:
                await self._recover(dead)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                self.supervisor_errors.append(exc)

    async def _recover(self, dead: List[int]) -> None:
        """Replace dead workers and rebuild the ring (successor adoption).

        The rebuild is a *replay*, not a state transfer: re-admit every
        surviving member (the placement rule routes each key hosted by a
        lost peer to the lowest surviving id >= its label — exactly ring
        successor adoption) and re-insert every ledgered registration
        (idempotent: node data sets absorb duplicates).  The journal gets
        one ``crash`` per lost peer, so its replay equals the post-
        adoption membership, never the pre-crash ring.
        """
        self._recovering = True
        self.recoveries += 1
        try:
            # In-flight control RPCs may be waiting on a dead worker.
            for future in list(self._pending.values()):
                if not future.done():
                    future.set_exception(
                        ClusterRecovering("worker crashed; cluster recovering")
                    )
            self._pending.clear()
            lost_peers = [
                p for p in self.members if group_of(p, self.n_groups) in set(dead)
            ]
            survivors = [
                (p, c) for p, c in self.members.items() if p not in lost_peers
            ]
            for peer in lost_peers:
                if self.journal is not None:
                    self.journal.record("crash", peer)
                self.crashed_peers.append(peer)
                del self.members[peer]
            for index in dead:
                proc = self._procs[index]
                if proc.is_alive():  # hung, not dead: replace it anyway
                    proc.terminate()
                proc.join(timeout=5.0)
                self._channels[index].abort()
            # Every group is reset, survivors included: their links still
            # point at the dead processes, and frames already written to
            # those can never be matched by an ingress, so the old
            # accounting is unbalanceable.
            await self._introduce({index: await self._spawn(index) for index in dead})
            # The rebuild itself must not be perturbed: an injected drop
            # here could silently lose a ledgered registration.
            if self.chaos is not None:
                await self.set_chaos(False)
            # The replay runs the shared admission and insertion directly:
            # past the ready check, and without re-journaling or re-acking.
            self.members = {}
            for peer, capacity in survivors:
                await super().join(peer, capacity)
                self.members[peer] = capacity
            if self.members:
                for key, datum in list(self.registrations.items()):
                    await super().register(key, datum)
            if self.chaos is not None:
                await self.set_chaos(True)
        finally:
            self._recovering = False

    # -- operations: the shared ones, behind the ready check, + ledgers -------

    def _members(self) -> Dict[str, int]:
        return self.members

    async def join(self, peer_id: str, capacity: int = 10) -> dict:
        """The shared admission, plus the worker placement: returns
        ``{"group", "pred", "succ"}``."""
        self._check_ready()
        ring = await super().join(peer_id, capacity)
        self.members[peer_id] = capacity
        return {"group": self._home(peer_id), **ring}

    async def leave(self, peer_id: str) -> None:
        self._check_ready()
        await super().leave(peer_id)
        del self.members[peer_id]

    async def crash(self, victim_id: str) -> None:
        self._check_ready()
        await super().crash(victim_id)
        del self.members[victim_id]
        if not self.members:
            # The last peer hosted everything, acknowledged registrations
            # included: at r=1 there is no surviving replica to recover
            # them from.
            self.registrations.clear()

    async def register(self, key: str, datum: object = None, via: Optional[str] = None) -> dict:
        """The shared insertion; a located result enters the
        acknowledged-registration ledger, which recovery replays —
        acknowledging a registration *is* the promise it survives a
        worker crash."""
        self._check_ready()
        result = await super().register(key, datum, via)
        if result["host"] is not None:
            self.registrations[key] = datum
        return result

    async def discover_many(self, keys, via: Optional[str] = None) -> Optional[list]:
        # ``discover`` is the batch of one: this check covers both.
        self._check_ready()
        return await super().discover_many(keys, via)

    async def search(
        self, kind: str, lo: str, hi: str = "", via: Optional[str] = None
    ) -> Optional[dict]:
        self._check_ready()
        return await super().search(kind, lo, hi, via)

    async def snapshot(self) -> dict:
        self._check_ready()
        return await super().snapshot()
