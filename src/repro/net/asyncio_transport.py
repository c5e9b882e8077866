"""The asyncio transports: ``repro-wire/1`` frames over real sockets.

:class:`AsyncioTransport` implements the :class:`~repro.net.transport.Transport`
contract on an asyncio event loop.  The paper's system model has one
communication substrate — any peer reaches any other by its id — and this
is its one socket realisation, at *engine-group* granularity: a group is
the set of endpoints registered on one transport (its peers, its broker,
its client sink).

* **One listener** per transport (a Unix-domain socket by default, TCP
  with ``host=``); each frame names its destination endpoint.  An
  accepted connection is a small :class:`asyncio.BufferedProtocol`
  holding its own ``FrameReader`` and hello state, not a reader task:
  the kernel fills the transport's one read buffer (:data:`_READ_BUFFER`
  bytes, shared by every connection, so a read allocates nothing) and
  the socket callback that read a frame parses it, admits it and runs
  the pump, so a request reaches its handler in that same loop turn.
* ``send()`` is synchronous (protocol handlers call it mid-message) and
  picks the route by where the destination lives: **local endpoints** go
  onto the transport's one ready queue (next bullet); **connected
  clients** (:class:`~repro.net.client.DLPTClient`: the hello frame names
  a private reply endpoint) get the frame written back over their
  connection; **everything else** resolves through the
  ``set_resolve(endpoint -> address)`` callback to another group's
  listener and travels over a cached link — **lazy dial** on first use,
  **idle reap** after ``idle_timeout`` silent seconds (the next frame
  redials), **reconnect with backoff** (the shared
  :class:`~repro.net.policy.RetryPolicy`; when the dial budget is
  exhausted the queued frames count dropped, never wedged).  An
  undecodable inbound frame ends the connection it came over: from
  another group's link it is recorded in ``errors`` (the next ``drain()``
  raises it), from a client it is only counted (``client_wire_errors``)
  — one client's garbage must not fail somebody else's operation.  So is
  a client frame for any endpoint but :data:`BROKER_ENDPOINT` (a client
  that addresses a peer directly would run a protocol handler on input
  no broker checked), and one that speaks as anyone but the endpoint its
  hello named — as ``s``, or as a request's ``reply_to`` (it could
  otherwise answer or capture another client's RPC).
* Local delivery is **run to completion**: one synchronous pump pops the
  ready queue and runs the handlers, what they send to local endpoints
  included — a hop costs a queue pop, not an event-loop turn.  An
  inbound frame joins the same queue without arming the pump: the read
  callback that parsed it runs the pump before it returns.  A send made
  while a pump runs (or is scheduled) arms nothing either, because that
  pump delivers it.  Delivery is
  also **flat**: ``send()`` to a local endpoint is one step (count,
  build the envelope, append it, arm the pump — all in its own body) and
  the pump looks the handler up and runs it inline, so a hop is three
  Python-level calls — the handler, ``send`` and the envelope's
  constructor — with no helper in between
  (``TestRunToCompletionDelivery`` counts them).  The pump
  hands the loop back every :data:`_PUMP_BATCH` deliveries, so not even
  an endless cascade starves socket I/O, timers or ``drain_timeout``.
  A pump that leaves the queue empty, and is not nested in another,
  then makes the one call installed with ``set_idle()``: the broker
  serves there what the pump admitted, so a served request costs the
  one loop turn that read it.
  A group's own sends are thus delivered in send order, but only
  *pairwise* FIFO is contractual: frames from other groups and clients
  join that order as the kernel hands them over — the nondeterminism the
  conformance harness canonicalises away.
* A single-process ring is the transport with **no resolver**: every peer
  is local, nothing is dialed, and an unknown destination dead-letters.
  The multi-process runtime (:mod:`repro.net.procgroup`) gives every
  worker the same class plus a resolver.
* The clock is the loop's monotonic clock (seconds since ``start()``);
  timers are ``loop.call_later``.  There is deliberately no RNG: losses
  and delays are the operating system's, never sampled — see the contract
  note in :mod:`repro.net.transport`.
* ``await drain()`` runs the pump first — as ``SimTransport.drain`` runs
  the simulator — so a cascade that stays in this group completes without
  the caller yielding; for what is still out (frames on a link, a cascade
  longer than a batch) it polls the counter invariant ``sent == delivered
  + dropped + dead_lettered`` (a handler's sends count *before* its own
  delivery completes, so it cannot hold transiently mid-cascade), then
  raises the first handler exception if any handler failed.

Accounting: the invariant holds at quiescence *per group* — a cross-group
frame counts ``delivered`` at the sender once written to the link and
``sent`` at the receiver on ingress, so cluster-wide sums also balance.
``frames_out`` / ``frames_in`` count inter-group wire frames only; a
cluster is globally quiescent when every group's ``in_flight`` is zero
**and** ``Σ frames_out == Σ frames_in`` (a frame can sit in a socket
buffer after the sender counted it delivered — the frame totals catch
exactly that window).

:class:`LoopbackAsyncioTransport` keeps the event loop, the counters, the
ready queue and its pump, and adds a full wire-codec round-trip on
*every* hop in place of the sockets — deterministic global delivery
order, byte-faithful frames, runnable in tier-1 CI.
"""

from __future__ import annotations

import asyncio
import collections
import functools
import os
import tempfile
import zlib
from typing import Any, Callable, Deque, Dict, Hashable, Optional, Set, Tuple

from ..dlpt.messages import Envelope
from .policy import RetryPolicy
from .transport import Handler, Transport, TransportError
from .wire import WIRE_SCHEMA, FrameReader, WireError, decode_frame, encode_frame

#: Local deliveries one pump call makes before it hands the loop back
#: (and reschedules itself): the bound that keeps a long cascade from
#: starving socket I/O, timers and ``drain_timeout``.
_PUMP_BATCH = 256

#: Bytes one socket read may fill: the transport keeps one buffer this
#: size for all its accepted connections (a read is copied into the
#: connection's ``FrameReader`` before the next one starts), so a read
#: allocates nothing and the listener's memory does not grow with its
#: connections.  256 KiB is what ``asyncio.Protocol`` reads at a time, so
#: a large frame from another group's link still arrives in one read.
_READ_BUFFER = 256 * 1024

#: The reserved endpoint hello frames are addressed to.
CONTROL_ENDPOINT = "@transport"

#: The broker's well-known endpoint: the one destination a client
#: connection may address (:mod:`repro.net.bootstrap` serves it).
BROKER_ENDPOINT = "@broker"


async def dial(address: tuple) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open a stream to a transport ``address`` (``("unix", path)`` or
    ``("tcp", host, port)``)."""
    if address[0] == "unix":
        return await asyncio.open_unix_connection(address[1])
    if address[0] == "tcp":
        return await asyncio.open_connection(address[1], address[2])
    raise TransportError(f"undialable address {address!r}")


def hello_frame(**fields: Any) -> bytes:
    """The frame every connection opens with: ``endpoint=`` introduces a
    client's private reply endpoint, ``kind="peer"`` an inter-group link."""
    return encode_frame(
        CONTROL_ENDPOINT, CONTROL_ENDPOINT, {"hello": WIRE_SCHEMA, **fields}
    )


class _Link:
    """One cached outbound connection: an outbox and its writer task."""

    __slots__ = ("address", "outbox", "task", "last_used", "writer")

    def __init__(self, address: tuple, loop: asyncio.AbstractEventLoop) -> None:
        self.address = address
        self.outbox: asyncio.Queue = asyncio.Queue()
        self.task: Optional[asyncio.Task] = None
        self.last_used: float = loop.time()
        self.writer: Optional[asyncio.StreamWriter] = None


class _Connection(asyncio.BufferedProtocol):
    """One accepted connection: its frame reader and hello state.  A read
    lands in the owner's read buffer and is parsed, admitted and pumped
    inside :meth:`buffer_updated`."""

    def __init__(self, owner: "AsyncioTransport") -> None:
        self.owner = owner
        self.frames = FrameReader()
        self.transport: Optional[asyncio.Transport] = None
        #: ``None`` until the hello; then whether this is another group's link.
        self.peer: Optional[bool] = None
        #: The endpoint a client's hello named: the only one it speaks as.
        self.endpoint: Optional[str] = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.owner._connections.add(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.owner._read_buffer

    def buffer_updated(self, nbytes: int) -> None:
        owner = self.owner
        try:
            for env in self.frames.feed(owner._read_buffer[:nbytes]):
                if self.peer is None:
                    self.peer, self.endpoint = owner._handle_hello(env, self.transport)
                else:
                    owner._ingress(env, self)
        except WireError as exc:
            if self.peer:
                owner.errors.append(exc)
            else:
                # A client's (or a stranger's) garbage, or a frame it sent
                # past the broker or under another name, is that
                # connection's own failure: it is closed and counted, and
                # nobody else's drain() hears of it.
                owner.client_wire_errors += 1
            self.transport.close()
        finally:
            owner._pump()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        owner = self.owner
        owner._connections.discard(self)
        # A reconnected client's hello may have re-routed its endpoint to
        # the new connection already.
        if self.endpoint is not None and owner._routes.get(self.endpoint) is self.transport:
            del owner._routes[self.endpoint]


class AsyncioTransport(Transport):
    """Length-prefixed JSON frames over TCP or Unix-domain sockets: one
    listener, in-process delivery to local endpoints, reply routing to
    connected clients, lazily dialed links to other groups (module doc)."""

    def __init__(
        self,
        *,
        path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        drain_timeout: float = 60.0,
        idle_timeout: float = 30.0,
        dial_retries: int = 5,
        dial_backoff: float = 0.05,
    ) -> None:
        self._handlers: Dict[Hashable, Handler] = {}
        #: Envelopes for local endpoints, in send order; :meth:`_pump`
        #: delivers them.
        self._ready: Deque[Envelope] = collections.deque()
        #: A pump is running or scheduled: a send then arms none.
        self._pump_armed = False
        #: Called when a pump leaves the ready queue empty (:meth:`set_idle`).
        self._idle: Optional[Callable[[], None]] = None
        #: endpoint -> transport of the client connection hosting it.
        self._routes: Dict[Hashable, asyncio.Transport] = {}
        #: Accepted connections still open; :meth:`close` closes them.
        self._connections: Set[_Connection] = set()
        #: What every accepted connection reads into (:data:`_READ_BUFFER`).
        self._read_buffer = memoryview(bytearray(_READ_BUFFER))
        self._links: Dict[tuple, _Link] = {}
        self._resolve: Optional[Callable[[Hashable], Optional[tuple]]] = None
        self._reaper_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = 0.0
        self._server: Optional[asyncio.AbstractServer] = None
        self._tempdir: Optional[str] = None
        self._started = False
        self._use_tcp = host is not None
        self._host = host
        self._port = port
        self._path = path
        #: ``("unix", path)`` or ``("tcp", host, port)`` once started.
        self.address: Optional[tuple] = None
        self.drain_timeout = drain_timeout
        self.idle_timeout = idle_timeout
        self.dial_retries = dial_retries
        self.dial_backoff = dial_backoff
        #: Handler/codec/link exceptions, surfaced by :meth:`drain`.
        self.errors: list[BaseException] = []
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_dead_lettered = 0
        #: Inter-group wire frames written / read.
        self.frames_out = 0
        self.frames_in = 0
        #: Client connections closed for sending an undecodable frame.
        self.client_wire_errors = 0
        #: Links dialed / reaped over the transport's lifetime.
        self.links_dialed = 0
        self.links_reaped = 0

    def set_idle(self, idle: Optional[Callable[[], None]]) -> None:
        """Install (or, with ``None``, remove) the callback an outer pump
        makes once it leaves the ready queue empty (module doc)."""
        self._idle = idle

    def set_resolve(self, resolve: Optional[Callable[[Hashable], Optional[tuple]]]) -> None:
        """Install (or replace) the endpoint resolver.  The multi-process
        runtime can only build the full address map after every group has
        bound its listener, so the resolver arrives post-``start()``."""
        self._resolve = resolve

    # -- endpoints ---------------------------------------------------------

    def register(self, endpoint: Hashable, handler: Handler) -> None:
        self._handlers[endpoint] = handler

    def unregister(self, endpoint: Hashable) -> None:
        self._handlers.pop(endpoint, None)

    def is_registered(self, endpoint: Hashable) -> bool:
        return endpoint in self._handlers

    # -- delivery ----------------------------------------------------------

    def send(self, src: Hashable, dst: Hashable, payload: Any) -> None:
        if not self._started:
            raise TransportError("transport is not started")
        self.messages_sent += 1
        env = Envelope(src, dst, payload)
        if dst in self._handlers:
            # Queue for the pump — never deliver: ``send`` is called
            # mid-handler and from cluster steps that write state after
            # sending.  (:meth:`_enqueue`, in place: a local hop is this
            # call, the envelope's constructor and the handler.)
            self._ready.append(env)
            if not self._pump_armed:
                self._pump_armed = True
                self._loop.call_soon(self._pump_soon)
            return
        if self._deliver_to_client(env):
            return
        address = self._resolve(dst) if self._resolve is not None else None
        if address is None or address == self.address:
            self.messages_dead_lettered += 1
            return
        self._link_to(address).outbox.put_nowait(env)

    def _deliver_to_client(self, env: Envelope) -> bool:
        """Write ``env`` to the connection of the client that introduced
        ``env.dst`` (it leaves the cluster's frame accounting there);
        ``False`` when no connected client did."""
        route = self._routes.get(env.dst)
        if route is None:
            return False
        try:
            route.write(encode_frame(env.src, env.dst, env.payload))
        except WireError as exc:
            self.errors.append(exc)
            self.messages_dropped += 1
            return True
        self.messages_delivered += 1
        return True

    def _enqueue(self, env: Envelope) -> None:
        """Queue ``env`` for the pump and make sure the pump will run
        (loopback; ``send`` has these lines in its own body, and ingress
        leaves the pump to the read callback)."""
        self._ready.append(env)
        if not self._pump_armed:
            self._pump_armed = True
            self._loop.call_soon(self._pump_soon)

    def _pump_soon(self) -> None:
        self._pump_armed = False
        self._pump()

    def _pump(self) -> None:
        """Deliver ready envelopes run-to-completion — what the handlers
        send locally meanwhile included — up to :data:`_PUMP_BATCH`; a
        longer cascade continues in the next loop turn.  Registration is
        checked *here* (at delivery time, like the simulator's network) so
        an endpoint that unregistered with messages still inbound
        dead-letters them.  A pump started while another runs or is
        scheduled only delivers, and the other arms what is left; an
        outer pump that empties the queue calls the idle callback."""
        outer = not self._pump_armed
        self._pump_armed = True
        ready = self._ready
        handlers = self._handlers
        try:
            for _ in range(_PUMP_BATCH):
                if not ready:
                    break
                env = ready.popleft()
                handler = handlers.get(env.dst)
                if handler is None:
                    self.messages_dead_lettered += 1
                    continue
                try:
                    handler(env)
                except Exception as exc:  # surfaced at drain(); keep delivering
                    self.errors.append(exc)
                self.messages_delivered += 1
            if outer and not ready and self._idle is not None:
                self._idle()
        finally:
            if outer:
                if ready:
                    self._loop.call_soon(self._pump_soon)
                else:
                    self._pump_armed = False

    # -- outbound links ----------------------------------------------------

    def _link_to(self, address: tuple) -> _Link:
        link = self._links.get(address)
        if link is None:
            link = _Link(address, self._loop)
            self._links[address] = link
            link.task = self._loop.create_task(self._run_link(link))
        link.last_used = self._loop.time()
        return link

    async def _run_link(self, link: _Link) -> None:
        """Dial (with backoff), then pump the link's outbox onto the wire."""
        # Seeded per (own, destination) address so two groups redialing
        # the same dead peer desynchronize from each other.
        policy = RetryPolicy(
            retries=self.dial_retries,
            backoff=self.dial_backoff,
            seed=zlib.crc32(repr((self.address, link.address)).encode("utf-8")),
        )
        for attempt in range(self.dial_retries + 1):
            try:
                _reader, writer = await dial(link.address)
                break
            except OSError as exc:
                if attempt == self.dial_retries:
                    self._fail_link(link, exc)
                    return
                await asyncio.sleep(policy.delay(attempt + 1))
        link.writer = writer
        self.links_dialed += 1
        writer.write(hello_frame(kind="peer"))
        try:
            while True:
                env = await link.outbox.get()
                try:
                    frame = encode_frame(env.src, env.dst, env.payload)
                except WireError as exc:
                    self.messages_dropped += 1
                    self.errors.append(exc)
                    continue
                writer.write(frame)
                await writer.drain()
                self.messages_delivered += 1
                self.frames_out += 1
        except (ConnectionError, OSError) as exc:
            self._fail_link(link, exc)
        finally:
            writer.close()

    def _fail_link(self, link: _Link, exc: BaseException) -> None:
        """The link is unusable: count its queued frames dropped, forget it
        (a later send re-dials from scratch), and surface the error."""
        self.errors.append(exc)
        self._drop_queued(link)
        self._links.pop(link.address, None)

    def _drop_queued(self, link: _Link) -> None:
        """The wire contract for a dead connection: its queued frames
        count dropped."""
        while not link.outbox.empty():
            link.outbox.get_nowait()
            self.messages_dropped += 1

    def _sever(self, link: _Link) -> None:
        """Tear an (already forgotten) link down without recording an error."""
        if link.task is not None:
            link.task.cancel()
        self._drop_queued(link)
        if link.writer is not None:
            link.writer.close()

    def kill_link(self, dst: Hashable) -> bool:
        """Sever the cached link under ``dst`` mid-flight (chaos's
        connection-kill fault).  Queued frames count dropped —
        the wire contract for a dead connection — but no error is
        recorded: a kill is an injected fault, not a transport defect, and
        the next send to the address re-dials from scratch.  Returns
        whether a link was actually severed."""
        address = self._resolve(dst) if self._resolve is not None else None
        if address is None:
            return False
        link = self._links.pop(address, None)
        if link is None:
            return False
        self._sever(link)
        return True

    def reset_links(self) -> None:
        """Forget every cached outbound link (supervisor recovery: peers
        may have respawned at new addresses).  Queued frames count
        dropped; subsequent sends re-resolve and re-dial."""
        for link in list(self._links.values()):
            self._sever(link)
        self._links.clear()

    def reset_accounting(self) -> None:
        """Zero the message/frame counters: a fresh accounting epoch.

        After a worker crash, frames written to the dead process
        (``frames_out``) have no matching ingress anywhere, so the cluster
        frame sums can never balance again.  Recovery resets every
        surviving transport's epoch instead of trying to reconstruct what
        the dead worker had absorbed."""
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_dead_lettered = 0
        self.frames_out = 0
        self.frames_in = 0

    async def _reap_idle(self) -> None:
        period = max(self.idle_timeout / 4, 0.01)
        while True:
            await asyncio.sleep(period)
            now = self._loop.time()
            for address, link in list(self._links.items()):
                if (
                    link.outbox.empty()
                    and now - link.last_used > self.idle_timeout
                    and link.task is not None
                ):
                    link.task.cancel()
                    self._links.pop(address, None)
                    self.links_reaped += 1

    # -- listener side -----------------------------------------------------

    def _handle_hello(
        self, env: Envelope, route: asyncio.Transport
    ) -> Tuple[bool, Optional[str]]:
        """First frame of every connection (:func:`hello_frame`).  A named
        ``endpoint`` (a client's private reply sink) becomes routable back
        over ``route``; returns whether the connection is another group's
        link rather than a client, and the endpoint."""
        payload = env.payload
        if (
            env.dst != CONTROL_ENDPOINT
            or not isinstance(payload, dict)
            or payload.get("hello") != WIRE_SCHEMA
        ):
            raise WireError(f"connection did not open with a hello frame: {env!r}")
        endpoint = payload.get("endpoint")
        if endpoint is not None:
            if not isinstance(endpoint, str):
                raise WireError(f"a hello's endpoint must be a string, got {endpoint!r}")
            self._routes[endpoint] = route
        return payload.get("kind") == "peer", endpoint

    def _ingress(self, env: Envelope, conn: _Connection) -> None:
        """One inbound frame enters this group's accounting domain and the
        ready queue (the read callback pumps it); a frame for an endpoint
        this listener does not host dead-letters (frames are never
        forwarded a second hop).  A client may send the broker JSON
        objects only, and only as the endpoint its hello named — as ``s``
        and as a request's ``reply_to``: any other frame is that
        connection's failure (``WireError``), never a handler's."""
        if conn.peer:
            self.frames_in += 1
        elif env.dst != BROKER_ENDPOINT:
            raise WireError(f"a client may address only {BROKER_ENDPOINT!r}, not {env.dst!r}")
        elif not isinstance(env.payload, dict):
            kind = type(env.payload).__name__
            raise WireError(f"a client's request must be a JSON object, not {kind}")
        elif env.src != conn.endpoint or (
            env.payload.get("reply_to", conn.endpoint) != conn.endpoint
        ):
            raise WireError(f"a client speaks only as its hello's endpoint {conn.endpoint!r}")
        self.messages_sent += 1
        if env.dst in self._handlers:
            self._ready.append(env)
        elif not self._deliver_to_client(env):
            self.messages_dead_lettered += 1

    # -- clock & timers ----------------------------------------------------

    def now(self) -> float:
        if self._loop is None:
            return 0.0
        return self._loop.time() - self._t0

    def call_later(self, delay: float, action: Callable[[], Any]):
        if self._loop is None:
            raise TransportError("transport is not started")
        return self._loop.call_later(delay, action)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and publish :attr:`address`."""
        if self._started:
            return
        self._loop = loop = asyncio.get_running_loop()
        self._t0 = loop.time()
        accept = functools.partial(_Connection, self)
        if self._use_tcp:
            self._server = await loop.create_server(accept, self._host, self._port)
            sockname = self._server.sockets[0].getsockname()
            self.address = ("tcp", sockname[0], sockname[1])
        else:
            if self._path is None:
                self._tempdir = tempfile.mkdtemp(prefix="repro-net-")
                self._path = os.path.join(self._tempdir, "dlpt.sock")
            self._server = await loop.create_unix_server(accept, path=self._path)
            self.address = ("unix", self._path)
        self._reaper_task = self._loop.create_task(self._reap_idle())
        self._started = True

    async def close(self) -> None:
        self._started = False
        # Nothing is read, let alone delivered, from an accepted connection
        # once close() has begun: its client sees end-of-file.
        for conn in list(self._connections):
            conn.transport.close()
        tasks = [self._reaper_task, *(link.task for link in self._links.values())]
        self.reset_links()
        # Like a dead link's queue: what was still to be delivered here
        # counts dropped, and the pump callback finds nothing to do.
        self.messages_dropped += len(self._ready)
        self._ready.clear()
        tasks = [t for t in tasks if t]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._reaper_task = None
        self._routes.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            if not self._use_tcp and self._path is not None:
                # Unlink the socket file we bound — user-supplied paths
                # included — so a restart never hits its own stale socket.
                try:
                    os.unlink(self._path)
                except OSError:
                    pass
        if self._tempdir is not None:
            try:
                os.rmdir(self._tempdir)
            except OSError:
                pass
            self._tempdir = None

    # -- quiescence --------------------------------------------------------

    async def drain(self) -> None:
        """Local quiescence: no message of this transport is in flight
        (transitively); then surface the first handler error."""
        if self._loop is None:
            raise TransportError("transport is not started")
        deadline = self._loop.time() + self.drain_timeout
        spins = 0
        self._pump()
        while self.in_flight > 0:
            if self._loop.time() > deadline:
                raise TransportError(
                    f"drain timed out after {self.drain_timeout}s with "
                    f"{self.in_flight} messages in flight"
                )
            spins += 1
            # Mostly bare yields (everything lives on this loop); back off
            # to a real sleep periodically so socket I/O is never starved.
            await asyncio.sleep(0 if spins % 64 else 0.001)
        if self.errors:
            errors, self.errors = self.errors, []
            raise TransportError(
                f"{len(errors)} handler/codec/link error(s) during drain"
            ) from errors[0]


class LoopbackAsyncioTransport(AsyncioTransport):
    """Deterministic in-process variant: no sockets, one global FIFO.

    Every message round-trips the full ``repro-wire/1`` codec
    (``encode_frame`` → ``decode_frame``), so serialisation bugs surface
    in tier-1, and then joins the base class's ready queue whatever its
    destination — global FIFO order, reproducible run to run, which
    matches the simulator's zero-latency ``call_soon`` semantics exactly.
    """

    def send(self, src: Hashable, dst: Hashable, payload: Any) -> None:
        if not self._started:
            raise TransportError("transport is not started")
        self.messages_sent += 1
        try:
            frame = encode_frame(src, dst, payload)
        except WireError as exc:
            self.messages_dropped += 1
            self.errors.append(exc)
            return
        self._enqueue(decode_frame(frame))

    async def start(self) -> None:
        if self._started:
            return
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()
        self.address = ("loopback",)
        self._started = True
