"""Multi-process engine groups: one DLPT ring spread over OS processes.

The scaling step beyond one process: the ring's peers are partitioned
into *engine groups*, each group a ``ProtocolEngine`` +
:class:`~repro.net.asyncio_transport.AsyncioTransport` pair living in its
own worker process (``multiprocessing`` spawn).  Protocol messages between
peers of different groups cross real sockets; a parent-side
:class:`MultiProcessCluster` coordinates membership, placement and
global quiescence over a control plane that never perturbs the data
plane it measures.

Topology and addressing:

* **Placement** is static: peer ``p`` lives in group
  ``zlib.crc32(p) % n_groups`` (:func:`group_of`), so every group can
  resolve any peer id to the owning group's listener address without
  coordination.
* **Per-group endpoints** — group ``i`` registers its control RPC
  endpoint ``@ctl-i`` (control plane, uncounted), its locator-sync sink
  ``@sync-i`` (data plane, counted) and its engine's private client
  endpoint ``@client-gi`` so discovery/query replies route back to the
  issuing process.  The coordinator answers on ``@coord``.
* **Locator replication** — every node install fires the engine's
  ``on_node_installed`` hook, which broadcasts ``{label, host}`` to the
  other groups' ``@sync`` endpoints as ordinary *data* frames: global
  drain therefore covers locator propagation, and a group is never
  quiescent with a stale location table.

Global quiescence (the multi-process ``drain``): every group reports
``in_flight == 0`` **and** the cluster sums satisfy ``Σ frames_out ==
Σ frames_in`` (a frame sitting in a socket buffer has been counted
delivered by its sender but not yet ingressed), observed stable across
two consecutive polls.  Counter polls travel on the control plane, so
polling cannot keep the cluster awake.

Crashes are the coordinator's job (fail-stop has no goodbye protocol):
``crash_pop`` rips the victim's endpoint out of its group and returns
its ν, ``adopt`` installs those nodes on the successor, ``set_succ`` /
``set_pred`` splice the neighbours' ring pointers, and a ``locator_set``
broadcast repoints every group's location table — the exact decomposition
of :meth:`repro.net.cluster.LocalCluster.crash` into control RPCs.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import zlib
from typing import Dict, List, Optional, Tuple

from ..sim.network import Envelope
from .asyncio_transport import AsyncioTransport
from .cluster import (
    engine_snapshot,
    entry_for,
    successor_of,
    take_discovery_replies,
    take_query_replies,
    toggle_chaos,
    transport_counters,
)
from .transport import TransportError
from .wire import decode_node_payload, encode_node_payload

#: Endpoint naming scheme (group index ``i``).
COORD_ENDPOINT = "@coord"
CTL_PREFIX = "@ctl-"
SYNC_PREFIX = "@sync-"
CLIENT_PREFIX = "@client-g"


class ClusterError(RuntimeError):
    """A control RPC failed, or the cluster lost a worker."""


class ClusterRecovering(ClusterError):
    """The supervisor is mid-recovery; the operation is retryable once
    the cluster has healed (the serve layer maps this to a backpressure
    reply, so resilient clients ride through the outage)."""


def group_of(peer_id: str, n_groups: int) -> int:
    """The owning group of ``peer_id``: stable, coordination-free."""
    return zlib.crc32(peer_id.encode("utf-8")) % n_groups


def _make_resolver(n_groups: int, groups: List[tuple], coord: Optional[tuple]):
    """endpoint -> listener address, per the naming scheme above."""

    def resolve(endpoint) -> Optional[tuple]:
        if not isinstance(endpoint, str):
            return None
        if endpoint == COORD_ENDPOINT:
            return coord
        for prefix in (CTL_PREFIX, SYNC_PREFIX, CLIENT_PREFIX):
            if endpoint.startswith(prefix):
                try:
                    return groups[int(endpoint[len(prefix):])]
                except (ValueError, IndexError):
                    return None
        return groups[group_of(endpoint, n_groups)]

    return resolve


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


class _Worker:
    """One engine group: the control RPC surface around a local engine."""

    def __init__(self, index: int, n_groups: int, transport, engine, stop) -> None:
        self.index = index
        self.n_groups = n_groups
        self.transport = transport
        self.engine = engine
        self.stop = stop

    # -- locator replication ------------------------------------------------

    def broadcast_install(self, label: str, host: str) -> None:
        """The engine's ``on_node_installed`` hook: tell the other groups
        (data frames, so global drain covers the propagation)."""
        src = f"{SYNC_PREFIX}{self.index}"
        for g in range(self.n_groups):
            if g != self.index:
                self.transport.send(src, f"{SYNC_PREFIX}{g}", {"label": label, "host": host})

    def on_sync(self, env: Envelope) -> None:
        body = env.payload
        self._set_location(str(body["label"]), str(body["host"]))

    def _set_location(self, label: str, host: str) -> None:
        self.engine.locator[label] = host
        # Flush messages parked for the label, exactly as a local install
        # would (a SearchingHost can race the Host hop across groups).
        parked = self.engine.pending_node_messages.pop(label, None)
        if parked:
            for src, msg in parked:
                self.transport.send(src, host, msg)

    # -- control RPCs -------------------------------------------------------

    def on_control(self, env: Envelope) -> None:
        request = env.payload
        if not isinstance(request, dict):
            return
        reply = {"id": request.get("id")}
        try:
            handler = self._OPS[request.get("op")]
            reply.update(ok=True, **handler(self, request))
        except Exception as exc:
            reply.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        self.transport.send(
            f"{CTL_PREFIX}{self.index}",
            request.get("reply_to", COORD_ENDPOINT),
            reply,
        )

    def _op_bootstrap(self, request: dict) -> dict:
        self.engine.bootstrap_peer(str(request["peer"]), int(request["capacity"]))
        return {}

    def _op_join(self, request: dict) -> dict:
        self.engine.join_peer(
            str(request["peer"]), int(request["capacity"]), seed=request["seed"]
        )
        return {}

    def _op_leave(self, request: dict) -> dict:
        self.engine.leave_peer(str(request["peer"]))
        return {}

    def _op_crash_pop(self, request: dict) -> dict:
        victim_id = str(request["peer"])
        self.transport.unregister(victim_id)
        victim = self.engine.peers.pop(victim_id)
        from ..dlpt import messages as m

        nodes = [
            encode_node_payload(
                m.NodePayload(
                    label=st.label,
                    father=st.father,
                    children=frozenset(st.children),
                    data=tuple(st.data),
                )
            )
            for st in victim.nodes.values()
        ]
        return {"pred": victim.pred, "succ": victim.succ, "nodes": nodes}

    def _op_adopt(self, request: dict) -> dict:
        from ..dlpt.protocol import NodeState

        peer = self.engine.peers[str(request["peer"])]
        for obj in request["nodes"]:
            payload = decode_node_payload(obj)
            peer.nodes[payload.label] = NodeState(
                label=payload.label,
                father=payload.father,
                children=set(payload.children),
                data=set(payload.data),
            )
            # Location broadcast is the coordinator's locator_set; no hook.
            self.engine.locator[payload.label] = peer.id
        return {}

    def _op_ring(self, request: dict) -> dict:
        peer = self.engine.peers[str(request["peer"])]
        return {"pred": peer.pred, "succ": peer.succ}

    def _op_locate(self, request: dict) -> dict:
        return {"host": self.engine.locator.get(str(request["label"]))}

    def _op_set_succ(self, request: dict) -> dict:
        self.engine.peers[str(request["peer"])].succ = str(request["succ"])
        return {}

    def _op_set_pred(self, request: dict) -> dict:
        self.engine.peers[str(request["peer"])].pred = str(request["pred"])
        return {}

    def _op_locator_set(self, request: dict) -> dict:
        for label, host in request["entries"].items():
            self._set_location(str(label), str(host))
        return {}

    def _op_locator_del(self, request: dict) -> dict:
        for label in request["labels"]:
            self.engine.locator.pop(str(label), None)
        return {}

    def _op_insert(self, request: dict) -> dict:
        via = entry_for(self.engine, request.get("via"))
        self.engine.insert_data(str(request["key"]), request.get("datum"), via=via)
        return {}

    def _op_discover(self, request: dict) -> dict:
        via = entry_for(self.engine, request.get("via"))
        if via is None:
            return {"issued": False}
        self.engine.discover(str(request["key"]), via=via)
        return {"issued": True}

    def _op_search(self, request: dict) -> dict:
        via = entry_for(self.engine, request.get("via"))
        if via is None:
            return {"issued": False}
        self.engine.search_query(
            str(request["kind"]), str(request["lo"]), str(request.get("hi", "")), via=via
        )
        return {"issued": True}

    def _op_collect(self, request: dict) -> dict:
        return {
            "discovery": take_discovery_replies(self.engine),
            "queries": take_query_replies(self.engine),
        }

    def _op_snapshot(self, request: dict) -> dict:
        return engine_snapshot(self.engine)

    def _op_counters(self, request: dict) -> dict:
        """Counters plus the transport errors since the last poll, handed
        over and forgotten: the polling :meth:`MultiProcessCluster.drain`
        raises them once, so one operation fails, not every later one."""
        t = self.transport
        errors = [repr(e) for e in t.errors]
        t.errors.clear()
        return {
            **transport_counters(t),
            "frames_out": t.frames_out,
            "frames_in": t.frames_in,
            "errors": errors,
        }

    def _op_chaos(self, request: dict) -> dict:
        """Toggle fault injection (a no-op on a plain transport)."""
        return {"chaos": toggle_chaos(self.transport, bool(request["enabled"]))}

    def _op_ping(self, request: dict) -> dict:
        """Heartbeat probe: proves the worker's event loop is servicing
        its control endpoint, not merely that the process exists."""
        return {"pong": True, "uptime": self.transport.now()}

    def _op_reset(self, request: dict) -> dict:
        """Supervisor recovery: wipe this group back to a blank engine.

        Addresses arrive as JSON lists over the control plane; they must
        be re-tupled or the resolver would hand the link cache unhashable
        keys (and ``address == self.address`` would never match)."""
        groups = [tuple(a) for a in request["groups"]]
        coord = tuple(request["coord"]) if request.get("coord") else None
        engine, t = self.engine, self.transport
        for peer_id in list(engine.peers):
            t.unregister(peer_id)
        engine.peers.clear()
        engine.locator.clear()
        engine.pending_node_messages.clear()
        engine.discovery_replies.clear()
        engine.query_replies.clear()
        t.set_resolve(_make_resolver(self.n_groups, groups, coord))
        t.reset_links()
        t.errors.clear()
        t.reset_accounting()
        return {}

    def _op_shutdown(self, request: dict) -> dict:
        # Reply first; stop a beat later so the reply frame leaves the link.
        asyncio.get_running_loop().call_later(0.05, self.stop.set)
        return {}

    _OPS = {
        "bootstrap": _op_bootstrap,
        "join": _op_join,
        "leave": _op_leave,
        "crash_pop": _op_crash_pop,
        "adopt": _op_adopt,
        "ring": _op_ring,
        "locate": _op_locate,
        "set_succ": _op_set_succ,
        "set_pred": _op_set_pred,
        "locator_set": _op_locator_set,
        "locator_del": _op_locator_del,
        "insert": _op_insert,
        "discover": _op_discover,
        "search": _op_search,
        "collect": _op_collect,
        "snapshot": _op_snapshot,
        "counters": _op_counters,
        "chaos": _op_chaos,
        "ping": _op_ping,
        "reset": _op_reset,
        "shutdown": _op_shutdown,
    }


async def _worker_async(index: int, n_groups: int, conn, chaos=None) -> None:
    from ..dlpt.protocol import ProtocolEngine

    transport = AsyncioTransport()
    await transport.start()
    if chaos is not None:
        from .chaos import ChaosTransport

        # Per-group seed derivation: every group injects *different*
        # faults, but the whole cluster replays identically per run seed.
        transport = ChaosTransport(
            transport, chaos, seed=chaos.seed + index * 7919
        )
    stop = asyncio.Event()
    worker = _Worker(index, n_groups, transport, None, stop)
    engine = ProtocolEngine(
        transport=transport,
        client_endpoint=f"{CLIENT_PREFIX}{index}",
        on_node_installed=worker.broadcast_install,
    )
    worker.engine = engine
    # Register every endpoint BEFORE publishing the address: the first
    # control RPC may arrive the instant the coordinator learns it.
    transport.register(f"{CTL_PREFIX}{index}", worker.on_control)
    transport.register(f"{SYNC_PREFIX}{index}", worker.on_sync)
    conn.send(transport.address)
    while not conn.poll():
        await asyncio.sleep(0.005)
    handshake = conn.recv()
    transport.set_resolve(
        _make_resolver(n_groups, handshake["groups"], handshake["coord"])
    )
    try:
        await stop.wait()
    finally:
        await transport.close()
        conn.close()


def _worker_main(index: int, n_groups: int, conn, chaos=None) -> None:
    """Entry point of one engine-group process (spawn target)."""
    asyncio.run(_worker_async(index, n_groups, conn, chaos))


# ---------------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------------


class MultiProcessCluster:
    """Parent-side handle on a ring spread over worker processes.

    The multi-process backend (surface: :mod:`repro.net.cluster`): the
    same ``join`` / ``leave`` / ``crash`` / ``register`` / ``discover`` /
    ``discover_many`` / ``search`` / ``snapshot`` operations as
    :class:`~repro.net.cluster.LocalCluster`, each ending at *global*
    quiescence, plus the raw :meth:`call` control RPC and the
    :meth:`drain` loop they are built from.  Membership is tracked here —
    the coordinator *is* the bootstrap registry of the multi-process
    runtime (``successor_of`` seeds every join with O(1) messages).
    """

    #: A supervisor-driven recovery (and a worker silently dying, as a
    #: control-RPC timeout) is *transient*: the broker answers these with
    #: backpressure so a resilient client retries through the outage.
    RETRYABLE_ERRORS: tuple = (ClusterRecovering, asyncio.TimeoutError)

    def __init__(
        self,
        processes: int = 2,
        *,
        drain_timeout: float = 60.0,
        rpc_timeout: float = 30.0,
        chaos=None,
        supervise: bool = False,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float = 2.0,
        journal=None,
    ) -> None:
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.n_groups = processes
        self.drain_timeout = drain_timeout
        self.rpc_timeout = rpc_timeout
        if chaos is not None:
            from .chaos import parse_chaos

            chaos = parse_chaos(chaos)
        #: Fault plan injected into every worker's transport (or ``None``).
        self.chaos = chaos
        self.supervise = supervise
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
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
        self.transport: Optional[AsyncioTransport] = None
        self._ctx = None
        self._procs: list = []
        self._conns: list = []
        self._groups: List[tuple] = []
        self._supervise_task: Optional[asyncio.Task] = None
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        self._op_count = 0

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self, index: int) -> None:
        """(Re)spawn the worker process of group ``index``."""
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(index, self.n_groups, child_conn, self.chaos),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[index] = proc
        self._conns[index] = parent_conn

    async def _await_address(self, index: int) -> tuple:
        """Wait for group ``index`` to publish its listener address."""
        conn = self._conns[index]
        while not conn.poll():
            if not self._procs[index].is_alive():
                raise ClusterError(f"worker {index} died during startup")
            await asyncio.sleep(0.005)
        return conn.recv()

    async def _readiness_barrier(self, indices) -> None:
        # Readiness barrier: a worker can only answer once its resolver is
        # installed (the reply needs the coordinator's address), so one
        # successful ping per group proves the control plane is two-way.
        for group in indices:
            for attempt in range(40):
                try:
                    await self.call(group, "ping", timeout=0.5)
                    break
                except asyncio.TimeoutError:
                    if attempt == 39:
                        raise ClusterError(f"worker {group} never became ready")

    async def start(self) -> None:
        self._ctx = multiprocessing.get_context("spawn")
        self._procs = [None] * self.n_groups
        self._conns = [None] * self.n_groups
        for index in range(self.n_groups):
            self._spawn(index)
        self._groups = [
            await self._await_address(index) for index in range(self.n_groups)
        ]
        self.transport = AsyncioTransport()
        await self.transport.start()
        self.transport.register(COORD_ENDPOINT, self._on_reply)
        self.transport.set_resolve(
            _make_resolver(self.n_groups, self._groups, None)
        )
        for conn in self._conns:
            conn.send({"groups": self._groups, "coord": self.transport.address})
        await self._readiness_barrier(range(self.n_groups))
        if self.supervise:
            self._supervise_task = asyncio.get_running_loop().create_task(
                self._supervise()
            )

    async def close(self) -> None:
        if self._supervise_task is not None:
            self._supervise_task.cancel()
            await asyncio.gather(self._supervise_task, return_exceptions=True)
            self._supervise_task = None
        for g in range(self.n_groups):
            try:
                await self.call(g, "shutdown", timeout=5.0)
            except (ClusterError, asyncio.TimeoutError, TransportError):
                pass
        if self.transport is not None:
            await self.transport.close()
            self.transport = None
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self._procs.clear()
        for conn in self._conns:
            if conn is not None:
                conn.close()
        self._conns.clear()

    # -- control RPC --------------------------------------------------------

    def _on_reply(self, env: Envelope) -> None:
        payload = env.payload
        if not isinstance(payload, dict):
            return
        future = self._pending.pop(payload.get("id"), None)
        if future is None or future.done():
            return
        if payload.get("ok"):
            future.set_result(payload)
        else:
            future.set_exception(ClusterError(payload.get("error", "unknown error")))

    async def call(self, group: int, op: str, *, timeout: Optional[float] = None, **body) -> dict:
        """One control RPC to group ``group``; raises :class:`ClusterError`
        on an error reply, ``TimeoutError`` when the worker went silent."""
        rid = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        body.update(op=op, id=rid, reply_to=COORD_ENDPOINT)
        self.transport.send(COORD_ENDPOINT, f"{CTL_PREFIX}{group}", body)
        try:
            return await asyncio.wait_for(future, timeout or self.rpc_timeout)
        finally:
            self._pending.pop(rid, None)

    # -- quiescence ---------------------------------------------------------

    async def counters(self) -> List[dict]:
        return [await self.call(g, "counters") for g in range(self.n_groups)]

    async def set_chaos(self, enabled: bool) -> None:
        """Toggle fault injection on every worker (no-op without chaos)."""
        for g in range(self.n_groups):
            await self.call(g, "chaos", enabled=enabled)

    async def drain(self) -> List[dict]:
        """Wait for *global* quiescence: every group idle, frame sums
        balanced, stable across two consecutive polls (module doc)."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_timeout
        previous: Optional[Tuple] = None
        while True:
            snaps = await self.counters()
            errors = [text for s in snaps for text in s["errors"]]
            if errors:
                raise ClusterError(
                    f"{len(errors)} worker transport error(s): {errors[:4]}"
                )
            quiet = all(s["in_flight"] == 0 for s in snaps) and sum(
                s["frames_out"] for s in snaps
            ) == sum(s["frames_in"] for s in snaps)
            signature = tuple(
                (s["sent"], s["delivered"], s["frames_out"], s["frames_in"])
                for s in snaps
            )
            if quiet and signature == previous:
                return snaps
            previous = signature if quiet else None
            if loop.time() > deadline:
                raise TransportError(
                    f"cluster drain timed out after {self.drain_timeout}s: {snaps}"
                )
            await asyncio.sleep(0.002)

    # -- supervision ---------------------------------------------------------

    def _check_ready(self) -> None:
        if self._recovering:
            raise ClusterRecovering("cluster is recovering from a worker crash")

    async def _supervise(self) -> None:
        """The supervisor: every ``heartbeat_interval`` check worker
        liveness (``is_alive`` catches process death instantly; a
        round-robin ``ping`` control RPC catches a hung event loop) and
        run :meth:`_recover` over whatever died."""
        probe = 0
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            if self._recovering:
                continue
            dead = [
                i for i, proc in enumerate(self._procs)
                if proc is not None and not proc.is_alive()
            ]
            if not dead and self.n_groups > 0:
                probe = (probe + 1) % self.n_groups
                try:
                    await self.call(probe, "ping", timeout=self.heartbeat_timeout)
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
                try:
                    self._conns[index].close()
                except OSError:
                    pass
                self._spawn(index)
            for index in dead:
                self._groups[index] = await self._await_address(index)
            # Fresh coordinator epoch: stale links would dial the dead
            # processes, and frames already written to them can never be
            # matched by an ingress, so the old accounting is unbalanceable.
            self.transport.reset_links()
            self.transport.errors.clear()
            self.transport.reset_accounting()
            self.transport.set_resolve(
                _make_resolver(self.n_groups, self._groups, None)
            )
            for index in dead:
                self._conns[index].send(
                    {"groups": self._groups, "coord": self.transport.address}
                )
            await self._readiness_barrier(dead)
            for g in range(self.n_groups):
                await self.call(g, "reset", groups=self._groups, coord=self.transport.address)
            # The rebuild itself must not be perturbed: an injected drop
            # here could silently lose a ledgered registration.
            if self.chaos is not None:
                await self.set_chaos(False)
            self.members = {}
            for peer, capacity in survivors:
                await self._admit(peer, capacity)
            if self.members:
                for key, datum in list(self.registrations.items()):
                    await self._register_raw(key, datum)
            if self.chaos is not None:
                await self.set_chaos(True)
        finally:
            self._recovering = False

    # -- membership ---------------------------------------------------------

    def live_ids(self) -> List[str]:
        return sorted(self.members)

    def successor_of(self, peer_id: str) -> Optional[str]:
        return successor_of(self.live_ids(), peer_id)

    async def _admit(self, peer_id: str, capacity: int) -> dict:
        """The raw admission (shared by :meth:`join` and recovery's
        membership replay — the replay must not re-journal joins)."""
        group = group_of(peer_id, self.n_groups)
        if not self.members:
            await self.call(group, "bootstrap", peer=peer_id, capacity=capacity)
        else:
            await self.call(
                group,
                "join",
                peer=peer_id,
                capacity=capacity,
                seed=self.successor_of(peer_id),
            )
        await self.drain()
        self.members[peer_id] = capacity
        ring = await self.call(group, "ring", peer=peer_id)
        return {"group": group, "pred": ring.get("pred"), "succ": ring.get("succ")}

    async def join(self, peer_id: str, capacity: int = 10) -> dict:
        """Admit ``peer_id`` (bootstrap when first), drain, and return its
        settled ring pointers plus placement ``{"group", "pred", "succ"}``."""
        self._check_ready()
        return await self._admit(peer_id, capacity)

    async def leave(self, peer_id: str) -> None:
        self._check_ready()
        if peer_id not in self.members:
            raise ClusterError(f"peer {peer_id!r} not joined")
        await self.call(group_of(peer_id, self.n_groups), "leave", peer=peer_id)
        await self.drain()
        del self.members[peer_id]

    async def crash(self, victim_id: str) -> None:
        """Fail-stop crash + ``r=1`` recovery, decomposed into control
        RPCs (the multi-process :meth:`~repro.net.cluster.LocalCluster.crash`)."""
        self._check_ready()
        if victim_id not in self.members:
            raise ClusterError(f"peer {victim_id!r} not joined")
        popped = await self.call(
            group_of(victim_id, self.n_groups), "crash_pop", peer=victim_id
        )
        del self.members[victim_id]
        pred, succ, nodes = popped["pred"], popped["succ"], popped["nodes"]
        if succ == victim_id:
            # Last peer of the ring: everything it hosted dies with it —
            # including its acknowledged registrations (there is no
            # surviving replica to recover them from at r=1).
            labels = [obj["label"] for obj in nodes]
            for label in labels:
                self.registrations.pop(label, None)
            for g in range(self.n_groups):
                await self.call(g, "locator_del", labels=labels)
            return
        await self.call(group_of(succ, self.n_groups), "adopt", peer=succ, nodes=nodes)
        new_pred = pred if pred != victim_id else succ
        await self.call(group_of(succ, self.n_groups), "set_pred", peer=succ, pred=new_pred)
        await self.call(group_of(pred, self.n_groups), "set_succ", peer=pred, succ=succ)
        entries = {obj["label"]: succ for obj in nodes}
        if entries:
            for g in range(self.n_groups):
                await self.call(g, "locator_set", entries=entries)

    # -- data-plane operations ---------------------------------------------

    def _insert_group(self) -> int:
        """Inserts must start where a joined peer lives (the empty-tree
        Host walk needs a local starting peer): the min live id's group."""
        if not self.members:
            raise ClusterError("no peers joined")
        return group_of(min(self.members), self.n_groups)

    def _rotate_group(self) -> int:
        self._op_count += 1
        return self._op_count % self.n_groups

    async def _register_raw(
        self, key: str, datum: object = None, via: Optional[str] = None
    ) -> dict:
        group = self._insert_group()
        await self.call(group, "insert", key=key, datum=datum, via=via)
        await self.drain()
        located = await self.call(group, "locate", label=key)
        return {"key": key, "host": located.get("host")}

    async def register(self, key: str, datum: object = None, via: Optional[str] = None) -> dict:
        """Insert ``key`` at quiescence; returns ``{"key", "host"}`` (the
        hosting peer per the post-drain replicated locator).  A located
        result enters the acknowledged-registration ledger, which recovery
        replays — acknowledging a registration *is* the promise it
        survives a worker crash."""
        self._check_ready()
        result = await self._register_raw(key, datum, via)
        if result.get("host") is not None:
            self.registrations[key] = datum
        return result

    async def discover(self, key: str, via: Optional[str] = None) -> Optional[dict]:
        """One discovery at quiescence; ``None`` when the tree is empty
        (no entry node), else the broker-shaped reply record."""
        self._check_ready()
        group = self._rotate_group()
        issued = await self.call(group, "discover", key=key, via=via)
        if not issued.get("issued"):
            return None
        await self.drain()
        got = await self.call(group, "collect")
        replies = got["discovery"]
        if len(replies) != 1:
            raise ClusterError(f"{len(replies)} replies for one discovery of {key!r}")
        return replies[0]

    async def discover_many(self, keys) -> Optional[List[dict]]:
        """A batch of discoveries, answered in request order (one global
        drain each); ``None`` when the tree is empty."""
        results = []
        for key in keys:
            reply = await self.discover(key)
            if reply is None:
                return None
            results.append(reply)
        return results

    async def search(
        self, kind: str, lo: str, hi: str = "", via: Optional[str] = None
    ) -> Optional[dict]:
        """One set query at quiescence; ``None`` when the tree is empty."""
        self._check_ready()
        group = self._rotate_group()
        issued = await self.call(group, "search", kind=kind, lo=lo, hi=hi, via=via)
        if not issued.get("issued"):
            return None
        await self.drain()
        got = await self.call(group, "collect")
        replies = got["queries"]
        if len(replies) != 1:
            raise ClusterError(f"{len(replies)} replies for one {kind} query")
        return replies[0]

    async def snapshot(self) -> dict:
        """The union view over all groups: live peers, hosted labels (with
        a filled-data flag) and per-group locator sizes."""
        self._check_ready()
        live: List[str] = []
        hosted: Dict[str, bool] = {}
        locator_sizes = []
        for g in range(self.n_groups):
            snap = await self.call(g, "snapshot")
            live.extend(snap["live"])
            hosted.update(snap["hosted"])
            locator_sizes.append(snap["locator_size"])
        return {
            "live": sorted(live),
            "hosted": hosted,
            "locator_sizes": locator_sizes,
        }
