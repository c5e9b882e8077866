"""The traced half of the ``serve`` benchmark: a per-layer ledger.

No end-to-end number comes from here.  The harness hosts the same stack
(``start_cluster``: transport + engine + broker, 128 peers) in its *own*
process, replays the head of the workload's op stream once untraced and
once traced on a fresh cluster, and records a span at every layer
boundary by wrapping **public callables only** — nothing inside
``src/repro`` is edited:

====================  =========================================================
layer (module)        wrapped callable -> span name
====================  =========================================================
``net.client``        ``DLPTClient.discover`` ... ``peer_leave`` -> ``rpc.<op>``
                      (root: call -> reply future settled) and ``client.<op>``
                      (the synchronous part of the call)
``net.wire``          ``encode_frame`` -> ``wire.encode``;
                      ``FrameReader.feed`` -> ``wire.decode`` (one per frame)
``net.asyncio_        ``AsyncioTransport.send`` -> ``transport.send``;
transport``           ``AsyncioTransport.drain`` -> ``transport.drain``
``net.bootstrap``     the handler registered for ``"@broker"`` -> ``broker.admit``
``dlpt.protocol``     handlers registered for peer endpoints ->
                      ``engine.handler``; ``ProtocolEngine.discover`` /
                      ``insert_data`` / ``search_query`` / ``join_peer`` /
                      ``leave_peer`` -> ``engine.<call>``
====================  =========================================================

Everything runs on one thread, so at any instant at most one synchronous
span is innermost: wall time partitions exactly into span self times
(span minus its children) plus *idle* time, when no traced code runs.
Idle time is split three ways: inside an open ``transport.drain`` it is
**drain wait** (event-loop turns, socket syscalls, the transport's own
reader/writer tasks); inside a broker service interval but outside the
drain it is the **broker's own service code**; the rest of the time a
request was outstanding is the **residual** no layer claims.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import gc
import json
import os
import shutil
import statistics
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import serve_calib as calib
import serve_harness as harness
from serve_workloads import N_PEERS, N_PRELOAD, WORKLOADS, Oracle, Plan

#: name -> (unit, better).  Mirrored by BENCHMARK.json ``per_layer``.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # net.client
    "client.rpc_us": ("us", "lower"),
    "client.self_us_per_op": ("us", "lower"),
    "client.retries_per_kop": ("1", "lower"),
    "client.op_discover_p50_ms": ("ms", "lower"),
    "client.op_register_p50_ms": ("ms", "lower"),
    "client.op_discover_batch_p50_ms": ("ms", "lower"),
    "client.op_prefix_p50_ms": ("ms", "lower"),
    "client.op_range_p50_ms": ("ms", "lower"),
    "client.op_peer_join_p50_ms": ("ms", "lower"),
    "client.op_peer_leave_p50_ms": ("ms", "lower"),
    # net.wire
    "wire.encode_us_per_frame": ("us", "lower"),
    "wire.decode_us_per_frame": ("us", "lower"),
    "wire.frames_per_op": ("count", "lower"),
    "wire.bytes_per_frame": ("B", "lower"),
    "wire.self_us_per_op": ("us", "lower"),
    # net.asyncio_transport
    "transport.send_us_per_msg": ("us", "lower"),
    "transport.msgs_per_op": ("count", "lower"),
    "transport.drain_wait_us_per_op": ("us", "lower"),
    "transport.self_us_per_op": ("us", "lower"),
    "transport.undelivered": ("count", "lower"),
    # net.bootstrap
    "broker.queue_wait_us_p50": ("us", "lower"),
    "broker.queue_wait_us_p95": ("us", "lower"),
    "broker.service_us_per_op": ("us", "lower"),
    "broker.self_us_per_op": ("us", "lower"),
    "broker.max_pending": ("count", "lower"),
    "broker.rejected_per_kop": ("1", "lower"),
    "broker.duplicates_absorbed": ("count", "lower"),
    # dlpt.protocol
    "engine.handler_us_per_msg": ("us", "lower"),
    "engine.msgs_per_op": ("count", "lower"),
    "engine.hops_per_lookup": ("1", "lower"),
    "engine.self_us_per_op": ("us", "lower"),
    "engine.keys_per_scan": ("count", "higher"),
    "engine.nodes_end": ("count", "lower"),
    # net.serve
    "serve.launch_s": ("s", "lower"),
    "serve.join_ms_per_peer": ("ms", "lower"),
    "serve.preload_ms_per_key": ("ms", "lower"),
    # net.procgroup / net.p2p (diagnostic: no end-to-end workload)
    "procgroup.discover_p50_ms": ("ms", "lower"),
    "procgroup.register_p50_ms": ("ms", "lower"),
    "procgroup.ctl_rpcs_per_op": ("count", "lower"),
    "procgroup.drain_polls_per_op": ("count", "lower"),
    "p2p.frames_per_op": ("count", "lower"),
    # harness
    "raw.ops_per_s": ("1/s", "higher"),
    "raw.lat_p50_ms": ("ms", "lower"),
    "raw.lat_p95_ms": ("ms", "lower"),
    "raw.lat_p99_ms": ("ms", "lower"),
    "calib.unit_ms_p50": ("ms", "lower"),
    "calib.unit_ms_iqr_pct": ("%", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "ledger.residual_pct": ("%", "lower"),
}

#: ``DLPTClient`` method -> the op name used in ``client.op_<name>_p50_ms``.
CLIENT_OPS = {
    "discover": "discover",
    "register": "register",
    "discover_batch": "discover_batch",
    "complete": "prefix",
    "range_search": "range",
    "peer_join": "peer_join",
    "peer_leave": "peer_leave",
}
ENGINE_CALLS = ("discover", "insert_data", "search_query", "join_peer", "leave_peer")
TRACE_SEGMENT_OPS = 200
PROCGROUP_PEERS = 16
PROCGROUP_REGISTERS = 150
PROCGROUP_DISCOVERS = 450


def layer_of(name: str) -> str:
    """``wire.encode`` -> ``wire``; the ``rpc.<op>`` roots are the client's."""
    head = name.split(".", 1)[0]
    return "client" if head == "rpc" else head


# -- spans -------------------------------------------------------------------


#: A span is a list (cheaper to record than an object): its fields by index.
#: ``PARENT`` is the index of the enclosing synchronous span, -1 at the top
#: of the call stack; ``SYNC`` is False for roots and drains, which stay
#: open across event-loop turns.
NAME, START, END, PARENT, REQ, SYNC = range(6)


class Tracer:
    """In-memory span recorder for one single-threaded event loop."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.clock = time.perf_counter
        #: Index of the root span whose client call is on the stack, or -1.
        self._current_root = -1
        #: Broker bookkeeping: admission end per request, the running
        #: service's start, and the finished (start, end, request) triples.
        self.admitted: Dict[tuple, float] = {}
        self._service_start: Optional[float] = None
        self.services: List[Tuple[float, float, tuple]] = []
        self.frames = 0
        self.frame_bytes = 0
        #: Wrappers pass straight through unless recording is on (set-up
        #: and preload run under the wrappers but are not part of the ledger).
        self.on = False

    # synchronous spans ------------------------------------------------------

    def begin(self, name: str, req=None) -> int:
        spans, stack = self.spans, self.stack
        index = len(spans)
        spans.append([name, self.clock(), 0.0, stack[-1] if stack else -1, req, True])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self.stack.pop()

    # asynchronous spans (roots and drains) -----------------------------------

    def open(self, name: str, req=None) -> int:
        index = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, -1, req, False])
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()

    # request identity -----------------------------------------------------

    def frame_request(self, src, dst, payload) -> Optional[tuple]:
        """The request a JSON RPC frame belongs to, if it is one."""
        if not isinstance(payload, dict) or "id" not in payload:
            return None
        if dst == "@broker":
            return (payload.get("reply_to", src), payload["id"])
        if src == "@broker":
            return (dst, payload["id"])
        return None


def sync_self_times(spans: List[list]) -> List[float]:
    """Self time of every span: its duration minus the time its direct
    children cover.  Asynchronous spans get their full duration (their
    idle share is split by :func:`ledger`)."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[SYNC] and span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[i] for i, span in enumerate(spans)]


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _clip(intervals: List[Tuple[float, float]], lo: float, hi: float) -> List[Tuple[float, float]]:
    return [(max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi]


def _overlap(a: List[Tuple[float, float]], b: List[Tuple[float, float]]) -> float:
    """Total length of the intersection of two lists of disjoint,
    sorted intervals."""
    total, j = 0.0, 0
    for start, end in a:
        while j < len(b) and b[j][1] <= start:
            j += 1
        k = j
        while k < len(b) and b[k][0] < end:
            total += min(end, b[k][1]) - max(start, b[k][0])
            k += 1
    return total


def ledger(spans: List[list], selfs: List[float],
           services: List[Tuple[float, float, tuple]], lo: float, hi: float) -> Dict[str, float]:
    """Partition the window ``[lo, hi]`` (seconds) by layer.

    ``spans`` are the spans that start inside the window and ``selfs``
    their :func:`sync_self_times`.  Returns per-layer self seconds
    (``client``, ``wire``, ``transport``, ``broker``, ``engine``),
    ``drain_wait``, ``broker_service`` (idle time inside service
    intervals outside the drain), ``busy`` (time at least one request was
    outstanding) and ``residual``."""
    out = {"client": 0.0, "wire": 0.0, "transport": 0.0, "broker": 0.0, "engine": 0.0}
    top: List[Tuple[float, float]] = []
    roots: List[Tuple[float, float]] = []
    drains: List[Tuple[float, float]] = []
    for span, self_s in zip(spans, selfs):
        if span[SYNC]:
            out[layer_of(span[NAME])] += self_s
            if span[PARENT] < 0:
                top.append((span[START], span[END]))
        elif span[NAME].startswith("rpc."):
            roots.append((span[START], span[END]))
        else:
            drains.append((span[START], span[END]))
    busy = _union_length(roots)
    top.sort()
    idle: List[Tuple[float, float]] = []
    cursor = lo
    for start, end in top:
        if start > cursor:
            idle.append((cursor, start))
        cursor = max(cursor, end)
    if hi > cursor:
        idle.append((cursor, hi))
    drains.sort()
    service = sorted(_clip([(a, b) for a, b, _ in services], lo, hi))
    out["drain_wait"] = _overlap(idle, drains)
    out["broker_service"] = _overlap(idle, service) - out["drain_wait"]
    out["busy"] = busy
    claimed = sum(out[k] for k in ("client", "wire", "transport", "broker", "engine"))
    out["residual"] = busy - claimed - out["drain_wait"] - out["broker_service"]
    return out


# -- wrapping the public callables ------------------------------------------------


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the span wrappers; restore every attribute on exit."""
    from repro.dlpt.protocol import ProtocolEngine
    from repro.net import asyncio_transport, client, wire
    from repro.net.asyncio_transport import AsyncioTransport
    from repro.net.client import DLPTClient

    saved: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, value) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # net.client: root span + the synchronous part of the call.
    def wrap_client(method: str, op: str):
        orig = getattr(DLPTClient, method)

        def call(self, *args, **kwargs):
            if not tracer.on:
                return orig(self, *args, **kwargs)
            root = tracer.open("rpc." + op)
            tracer._current_root = root
            index = tracer.begin("client." + op)
            try:
                future = orig(self, *args, **kwargs)
            finally:
                tracer.end(index)
                tracer._current_root = -1
            future.add_done_callback(lambda _f, root=root: tracer.close(root))
            return future

        return call

    for method, op in CLIENT_OPS.items():
        patch(DLPTClient, method, wrap_client(method, op))

    # net.wire: encode (the two modules that imported the name) and decode.
    orig_encode = wire.encode_frame

    def encode_frame(src, dst, payload):
        if not tracer.on:
            return orig_encode(src, dst, payload)
        req = tracer.frame_request(src, dst, payload)
        if req is not None and tracer._current_root >= 0:
            tracer.spans[tracer._current_root][REQ] = req
        index = tracer.begin("wire.encode", req)
        try:
            frame = orig_encode(src, dst, payload)
        finally:
            tracer.end(index)
        tracer.frames += 1
        tracer.frame_bytes += len(frame)
        return frame

    patch(client, "encode_frame", encode_frame)
    patch(asyncio_transport, "encode_frame", encode_frame)

    orig_feed = wire.FrameReader.feed

    def feed(self, chunk):
        frames = orig_feed(self, chunk)
        if not tracer.on:
            yield from frames
            return
        while True:
            index = tracer.begin("wire.decode")
            try:
                env = next(frames)
            except StopIteration:
                tracer.end(index)
                tracer.spans.pop()  # nothing was decoded: not a span
                return
            except BaseException:
                tracer.end(index)
                raise
            tracer.end(index)
            tracer.spans[index][REQ] = tracer.frame_request(env.src, env.dst, env.payload)
            yield env

    patch(wire.FrameReader, "feed", feed)

    # net.asyncio_transport: send, drain, and the handlers it is given.
    orig_send = AsyncioTransport.send

    def send(self, src, dst, payload):
        if not tracer.on:
            return orig_send(self, src, dst, payload)
        req = tracer.frame_request(src, dst, payload)
        index = tracer.begin("transport.send", req)
        try:
            orig_send(self, src, dst, payload)
        finally:
            tracer.end(index)
        if src == "@broker" and req is not None and tracer._service_start is not None:
            tracer.services.append((tracer._service_start, tracer.clock(), req))
            tracer._service_start = None

    patch(AsyncioTransport, "send", send)

    orig_drain = AsyncioTransport.drain

    async def drain(self):
        if not tracer.on:
            return await orig_drain(self)
        index = tracer.open("transport.drain")
        try:
            await orig_drain(self)
        finally:
            tracer.close(index)

    patch(AsyncioTransport, "drain", drain)

    orig_register = AsyncioTransport.register

    def register(self, endpoint, handler):
        if endpoint == "@broker":
            def traced(env, handler=handler):
                if not tracer.on:
                    return handler(env)
                req = tracer.frame_request(env.src, env.dst, env.payload)
                index = tracer.begin("broker.admit", req)
                try:
                    handler(env)
                finally:
                    tracer.end(index)
                    if req is not None:
                        tracer.admitted[req] = tracer.clock()
        else:
            # Peer endpoints (engine hop handlers) and the engine's own
            # reply sink ("@client").
            def traced(env, handler=handler):
                if not tracer.on:
                    return handler(env)
                index = tracer.begin("engine.handler")
                try:
                    handler(env)
                finally:
                    tracer.end(index)
        orig_register(self, endpoint, traced)

    patch(AsyncioTransport, "register", register)

    # dlpt.protocol: the engine's public entry points.  The first one after
    # the broker's previous reply marks the start of the next service.
    def wrap_engine(name: str):
        orig = getattr(ProtocolEngine, name)

        def call(self, *args, **kwargs):
            if not tracer.on:
                return orig(self, *args, **kwargs)
            if tracer._service_start is None:
                tracer._service_start = tracer.clock()
            index = tracer.begin("engine." + name)
            try:
                return orig(self, *args, **kwargs)
            finally:
                tracer.end(index)

        return call

    for name in ENGINE_CALLS:
        patch(ProtocolEngine, name, wrap_engine(name))

    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# -- the in-process replay ------------------------------------------------------------


class InProcessCluster:
    """``start_cluster`` + client connections, all on the harness's loop."""

    def __init__(self) -> None:
        self.transport = self.engine = self.broker = None
        self.clients: List = []
        self.counter = harness.ByteCounter()
        self.join_s = 0.0
        self.preload_s = 0.0

    async def start(self, plan: Plan, connections: int) -> None:
        from repro.net.serve import start_cluster

        self.run_dir = os.path.join(harness.TMP_ROOT, f"{os.getpid()}-inproc")
        os.makedirs(self.run_dir, exist_ok=True)
        t0 = time.perf_counter()
        self.transport, self.engine, self.broker = await start_cluster(
            N_PEERS, path=os.path.join(self.run_dir, "s.sock"))
        self.join_s = time.perf_counter() - t0
        path = self.transport.address[1]
        for i in range(connections):
            self.clients.append(await harness.open_client(path, f"@bench-{i}", self.counter))
        t0 = time.perf_counter()
        for i in range(0, len(plan.preload), harness.PRELOAD_CHUNK):
            await asyncio.gather(*[
                self.clients[0].register(k) for k in plan.preload[i:i + harness.PRELOAD_CHUNK]])
        self.preload_s = time.perf_counter() - t0

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []
        if self.broker is not None:
            await self.broker.close()
            await self.transport.close()  # unlinks the socket it bound
            os.rmdir(self.run_dir)


async def replay(plan: Plan, spec: dict, tracer: Tracer):
    """Bring a fresh in-process cluster up under the span wrappers, replay
    ``plan.ops`` in calibrated segments, and tear it down.

    Recording is switched on for even segments only.  The odd segments
    run the same patched stack with the wrappers passing straight
    through: they are the untraced companion, interleaved so that host
    drift hits both alike, from which ``trace.overhead_pct`` and the
    ``raw.*`` diagnostics come."""
    cluster = InProcessCluster()
    tally = harness.Tally(Oracle(plan.preload, plan.peers))

    def switch(index: int, active: bool) -> None:
        tracer.on = active and index % 2 == 0

    with patched(tracer):
        try:
            await cluster.start(plan, spec["connections"])
            sent0 = cluster.transport.messages_sent
            # No collector pauses: spans are container objects, and
            # collecting over them would count as tracing overhead.
            gc.disable()
            try:
                segments, exact = await harness.measure(
                    plan.ops, TRACE_SEGMENT_OPS, spec["callers"], None, cluster.clients,
                    cluster.counter, tally, deadline_s=120.0, on_segment=switch)
            finally:
                gc.enable()
            info = await cluster.clients[0].info()
            bad = tally.oracle.final_mismatch(info)
            if bad:
                tally.fail(bad)
            state = {
                "msgs": cluster.transport.messages_sent - sent0,
                "undelivered": cluster.transport.messages_dropped
                + cluster.transport.messages_dead_lettered,
                "rejected": cluster.broker.requests_rejected,
                "duplicates": cluster.broker.duplicates_absorbed,
                "nodes_end": len(cluster.engine.locator),
                "retries": sum(c.timeouts + c.busy_rejections + c.reconnects
                               for c in cluster.clients),
                "join_s": cluster.join_s,
                "preload_s": cluster.preload_s,
            }
        finally:
            await cluster.close()
    return segments, exact, tally, state


async def launch_probe() -> float:
    """Seconds from spawning ``python -m repro serve --peers 128`` to its
    ``cluster up`` line (interpreter start + imports + 127 joins)."""
    t0 = time.perf_counter()
    session = harness.Session(harness.Server())
    try:
        await session.server.wait_up()
        elapsed = time.perf_counter() - t0
        # One round trip before SIGTERM: the server prints "cluster up" a
        # few microseconds before it installs its signal handlers.
        await session.connect(harness.ByteCounter())
        await session.clients[0].info()
        return elapsed
    finally:
        await session.close()


async def procgroup_probe(plan: Plan, registers: int, discovers: int, out=print) -> Dict[str, float]:
    """The ``--processes 2`` diagnostics: a short closed-loop mini-run
    against ``MultiProcessCluster`` through its public methods.  Raw
    (uncalibrated) times — the path is timer-bound, see README."""
    from repro.net.procgroup import MultiProcessCluster
    from repro.net.serve import peer_ids

    zeros = {name: 0.0 for name in PER_LAYER if name.startswith(("procgroup.", "p2p."))}
    tmp = os.path.abspath(os.path.join(harness.TMP_ROOT, f"{os.getpid()}-mp"))
    if len(tmp) > 70:  # + "/repro-p2p-XXXXXXXX/peer.sock" must fit sun_path
        out(f"# procgroup probe skipped: scratch path too long for a UNIX socket ({tmp})")
        return zeros
    os.makedirs(tmp, exist_ok=True)
    # The workers bind their sockets under tempfile.gettempdir(): keep
    # them inside the checkout (the environment reaches spawned workers).
    saved_env, saved_tempdir = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None
    cluster = MultiProcessCluster(processes=2)
    counts = {"call": 0, "counters": 0}
    orig_call, orig_counters = cluster.call, cluster.counters

    async def call(group, op, **kwargs):
        counts["call"] += 1
        return await orig_call(group, op, **kwargs)

    async def counters():
        counts["counters"] += 1
        return await orig_counters()

    cluster.call, cluster.counters = call, counters
    try:
        await cluster.start()
        for pid in peer_ids(PROCGROUP_PEERS):
            await cluster.join(pid)
        keys = plan.preload[:registers]
        frames0 = sum(s["frames_out"] for s in await orig_counters())
        counts["call"] = counts["counters"] = 0
        reg, disc = [], []
        for key in keys:
            t0 = time.perf_counter()
            reply = await cluster.register(key)
            reg.append(time.perf_counter() - t0)
            if reply.get("host") is None:
                raise harness.BenchError(f"procgroup register {key!r} failed: {reply!r}")
        for i in range(discovers):
            key = keys[i % len(keys)]
            t0 = time.perf_counter()
            reply = await cluster.discover(key)
            disc.append(time.perf_counter() - t0)
            if not reply or not reply.get("found"):
                raise harness.BenchError(f"procgroup discover {key!r} failed: {reply!r}")
        n = len(reg) + len(disc)
        calls, polls = counts["call"], counts["counters"]
        frames = sum(s["frames_out"] for s in await orig_counters()) - frames0
        return {
            "procgroup.discover_p50_ms": statistics.median(disc) * 1e3,
            "procgroup.register_p50_ms": statistics.median(reg) * 1e3,
            "procgroup.ctl_rpcs_per_op": calls / n,
            "procgroup.drain_polls_per_op": polls / n,
            "p2p.frames_per_op": frames / n,
        }
    finally:
        await cluster.close()
        if saved_env is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = saved_env
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(tmp, ignore_errors=True)
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """``multiprocessing`` (spawn) leaves a resource-tracker process that
    only exits after its parent; stop it so every process this benchmark
    started has ended before it exits."""
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


# -- analysis -------------------------------------------------------------------------


def analyse(tracer: Tracer, segments: List[dict], n_ops: int) -> Dict[str, float]:
    """Calibrated per-layer metrics from the recorded spans."""
    spans = tracer.spans
    bounds = [seg["t0"] for seg in segments]

    def factor_at(t: float) -> float:
        return segments[max(0, bisect.bisect_right(bounds, t) - 1)]["factor"]

    # The ledger, segment by segment (each scaled by its own factor).
    # Spans are recorded in start order, so a segment's spans are a slice.
    selfs = sync_self_times(spans)
    starts = [span[START] for span in spans]
    totals: Dict[str, float] = {}
    for seg in segments:
        i, j = bisect.bisect_left(starts, seg["t0"]), bisect.bisect_left(starts, seg["t1"])
        part = ledger(spans[i:j], selfs[i:j], tracer.services, seg["t0"], seg["t1"])
        for key, value in part.items():
            totals[key] = totals.get(key, 0.0) + value * seg["factor"]
    us_per_op = {key: value * 1e6 / n_ops for key, value in totals.items()}

    by_name: Dict[str, List[float]] = {}
    roots_by_op: Dict[str, List[float]] = {}
    rpc_total = 0.0
    for span, self_s in zip(spans, selfs):  # recorded in traced segments only
        f = factor_at(span[START])
        if span[NAME].startswith("rpc."):
            roots_by_op.setdefault(span[NAME][4:], []).append(self_s * f)
            rpc_total += self_s * f
        elif span[SYNC]:
            by_name.setdefault(span[NAME], []).append(self_s * f)

    def mean_us(name: str) -> float:
        values = by_name.get(name)
        return statistics.fmean(values) * 1e6 if values else 0.0

    waits, service = [], []
    # +1 when a request is admitted, -1 when its service starts: the
    # running sum is the broker's pending count, seen from outside.
    events: List[Tuple[float, int]] = []
    for start, end, req in tracer.services:
        f = factor_at(start)
        service.append((end - start) * f)
        if req in tracer.admitted:
            waits.append(max(0.0, start - tracer.admitted[req]) * f)
            events += [(tracer.admitted[req], 1), (start, -1)]
    pending = max_pending = 0
    for _, step in sorted(events):
        pending += step
        max_pending = max(max_pending, pending)

    metrics = {
        "client.rpc_us": rpc_total * 1e6 / n_ops,
        "client.self_us_per_op": us_per_op["client"],
        "wire.encode_us_per_frame": mean_us("wire.encode"),
        "wire.decode_us_per_frame": mean_us("wire.decode"),
        "wire.frames_per_op": len(by_name.get("wire.encode", ())) / n_ops,
        "wire.bytes_per_frame": tracer.frame_bytes / max(1, tracer.frames),
        "wire.self_us_per_op": us_per_op["wire"],
        "transport.send_us_per_msg": mean_us("transport.send"),
        "transport.drain_wait_us_per_op": us_per_op["drain_wait"],
        "transport.self_us_per_op": us_per_op["transport"] + us_per_op["drain_wait"],
        "broker.queue_wait_us_p50": calib.percentile(waits, 50) * 1e6 if waits else 0.0,
        "broker.queue_wait_us_p95": calib.percentile(waits, 95) * 1e6 if waits else 0.0,
        "broker.service_us_per_op": statistics.fmean(service) * 1e6 if service else 0.0,
        "broker.self_us_per_op": us_per_op["broker"] + us_per_op["broker_service"],
        "broker.max_pending": float(max_pending),
        "engine.handler_us_per_msg": mean_us("engine.handler"),
        "engine.msgs_per_op": len(by_name.get("engine.handler", ())) / n_ops,
        "engine.self_us_per_op": us_per_op["engine"],
        "ledger.residual_pct": 100.0 * totals["residual"] / totals["busy"],
        "_busy_us_per_op": us_per_op["busy"],
        "_residual_us_per_op": us_per_op["residual"],
    }
    for op in CLIENT_OPS.values():
        values = roots_by_op.get(op)
        metrics[f"client.op_{op}_p50_ms"] = calib.percentile(values, 50) * 1e3 if values else 0.0
    return metrics


def write_jsonl(tracer: Tracer, segments: List[dict], path: str) -> None:
    """One JSON object per span: name, layer, start/end in microseconds
    since the first span, parent span index (-1 at the top of the call
    stack), request ``[client endpoint, id]`` when known, and the
    calibration factor of the segment it started in."""
    bounds = [seg["t0"] for seg in segments]
    t_zero = tracer.spans[0][START] if tracer.spans else 0.0
    with open(path, "w") as fh:
        for index, span in enumerate(tracer.spans):
            seg = max(0, bisect.bisect_right(bounds, span[START]) - 1)
            fh.write(json.dumps({
                "i": index,
                "name": span[NAME],
                "layer": layer_of(span[NAME]),
                "start_us": round((span[START] - t_zero) * 1e6, 2),
                "end_us": round((span[END] - t_zero) * 1e6, 2),
                "parent": span[PARENT],
                "req": list(span[REQ]) if span[REQ] else None,
                "sync": span[SYNC],
                "factor": round(segments[seg]["factor"], 5),
            }) + "\n")


async def run_traced(workload: str, seed: int, *, smoke: bool = False,
                     trace_out: Optional[str] = None, out=print) -> dict:
    """The ``--trace 1`` run; returns the result document."""
    spec = WORKLOADS[workload]
    # Traced and untraced segments alternate, so twice the traced count.
    n_segments = 2 * max(1, spec["trace_ops"] // TRACE_SEGMENT_OPS // (10 if smoke else 1))
    plan = Plan(workload, seed, n_segments * TRACE_SEGMENT_OPS,
                N_PRELOAD // 10 if smoke else N_PRELOAD)
    os.makedirs(harness.TMP_ROOT, exist_ok=True)
    out(f"# traced workload {workload} seed {seed}: {len(plan.ops)} ops in segments of "
        f"{TRACE_SEGMENT_OPS}, every other one traced; op-stream sha256 {plan.sha256()}")

    tracer = Tracer()
    segments, exact, tally, state = await replay(plan, spec, tracer)
    traced, plain = segments[0::2], segments[1::2]
    launch_s = await launch_probe()
    shrink = 10 if smoke else 1
    procgroup = await procgroup_probe(
        plan, PROCGROUP_REGISTERS // shrink, PROCGROUP_DISCOVERS // shrink, out=out)

    traced_ops = sum(seg["ops"] for seg in traced)
    metrics = analyse(tracer, traced, traced_ops)
    busy_us = metrics.pop("_busy_us_per_op")
    residual_us = metrics.pop("_residual_us_per_op")
    out(f"# ledger (us per op, calibrated): busy {busy_us:.1f} = "
        f"client {metrics['client.self_us_per_op']:.1f} + wire {metrics['wire.self_us_per_op']:.1f}"
        f" + transport {metrics['transport.self_us_per_op']:.1f}"
        f" + broker {metrics['broker.self_us_per_op']:.1f}"
        f" + engine {metrics['engine.self_us_per_op']:.1f} + residual {residual_us:.1f}")

    def rpc_mean(segs: List[dict]) -> float:
        return statistics.fmean(
            statistics.fmean(seg["latencies_s"]) * seg["factor"] for seg in segs)

    plain_lat = [lat for seg in plain for lat in seg["latencies_s"]]
    units = [seg["unit_ms"] for seg in segments]
    metrics.update({
        "client.retries_per_kop": 1000.0 * state["retries"] / exact["ops"],
        "transport.msgs_per_op": state["msgs"] / exact["ops"],
        "transport.undelivered": float(state["undelivered"]),
        "broker.rejected_per_kop": 1000.0 * state["rejected"] / exact["ops"],
        "broker.duplicates_absorbed": float(state["duplicates"]),
        "engine.hops_per_lookup": tally.hops / max(1, tally.lookups),
        "engine.keys_per_scan": tally.scan_keys / max(1, tally.scans),
        "engine.nodes_end": float(state["nodes_end"]),
        "serve.launch_s": launch_s,
        "serve.join_ms_per_peer": state["join_s"] * 1e3 / N_PEERS,
        "serve.preload_ms_per_key": state["preload_s"] * 1e3 / len(plan.preload),
        "raw.ops_per_s": len(plain_lat) / sum(seg["wall_s"] for seg in plain),
        "raw.lat_p50_ms": calib.percentile(plain_lat, 50) * 1e3,
        "raw.lat_p95_ms": calib.percentile(plain_lat, 95) * 1e3,
        "raw.lat_p99_ms": calib.percentile(plain_lat, 99) * 1e3,
        "calib.unit_ms_p50": statistics.median(units),
        "calib.unit_ms_iqr_pct": calib.spread_pct(units),
        "trace.overhead_pct": 100.0 * (rpc_mean(traced) / rpc_mean(plain) - 1.0),
    })
    metrics.update(procgroup)

    if trace_out is None:
        trace_out = os.path.join(harness.TMP_ROOT, f"trace-{workload}-{seed}.jsonl")
    write_jsonl(tracer, segments, trace_out)
    out(f"# {len(tracer.spans)} spans of {traced_ops} traced ops written to {trace_out}")

    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise harness.BenchError(f"traced run did not produce {sorted(missing)}")
    return {
        "workload": workload,
        "seed": seed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.first_failures,
        "metrics": {name: metrics[name] for name in PER_LAYER},
    }
