"""The asyncio transports: ``repro-wire/1`` frames over real sockets.

:class:`AsyncioTransport` implements the :class:`~repro.net.transport.Transport`
contract on an asyncio event loop.  The paper's system model has one
communication substrate — any peer reaches any other by its id — and this
is its one socket realisation, at *engine-group* granularity: a group is
the set of endpoints registered on one transport (its peers, its broker,
its client sink).

* **One listener** per transport (a Unix-domain socket by default, TCP
  with ``host=``); each frame names its destination endpoint.  Every
  socket — accepted, dialed, or a control channel
  (:mod:`repro.net.procgroup`) — is one :class:`asyncio.BufferedProtocol`,
  :class:`_Connection`, never a task: the kernel fills a read buffer its
  owner keeps (here the one :data:`_READ_BUFFER`, so a read allocates
  nothing) and the socket callback that read a frame parses, admits and
  pumps it, so a request reaches its handler in that same loop turn.
* ``send()`` is synchronous (protocol handlers call it mid-message) and
  picks the route by where the destination lives: **local endpoints** go
  onto the transport's one ready queue (next bullet); **connected
  clients** (:class:`~repro.net.client.DLPTClient`: the hello frame names
  a private reply endpoint) get the frame written back over their
  connection; **everything else** resolves through the
  ``set_resolve(endpoint -> address)`` callback to another group's
  listener and travels over a cached link: **lazy dial** on first use
  (the transport's only task, held while it dials), **reconnect with
  backoff** (the shared :class:`~repro.net.policy.RetryPolicy`; an
  exhausted dial budget counts the queued frames dropped, never wedged),
  **one write per link per loop turn** (``send`` encodes and queues the
  frame; one flush writes the turn's frames), **idle reap** after
  :data:`IDLE_TIMEOUT` silent seconds (a timer; the next frame redials).  An
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
  an endless cascade starves socket I/O, timers or the drain deadline.
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
  its event heap — so a cascade that stays in this group completes without
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
import os
import tempfile
import zlib
from typing import Any, Callable, Deque, Dict, Hashable, Optional, Set, Tuple

from ..dlpt.messages import Envelope
from . import transport as _transport
from .policy import RetryPolicy
from .transport import Handler, Transport, TransportError
from .wire import WIRE_SCHEMA, FrameReader, WireError, decode_frame, encode_frame

#: Local deliveries one pump call makes before it hands the loop back
#: (and reschedules itself): the bound that keeps a long cascade from
#: starving socket I/O, timers and the drain deadline
#: (:data:`repro.net.transport.DRAIN_TIMEOUT`).
_PUMP_BATCH = 256

#: Seconds a link may stay silent before its idle timer forgets it.
IDLE_TIMEOUT = 30.0

#: Refused dials a link retries before it drops its frames, and the
#: delay before the first retry (:class:`~repro.net.policy.RetryPolicy`).
DIAL_RETRIES = 5
DIAL_BACKOFF = 0.05

#: Bytes one socket read may fill: the transport keeps one buffer this
#: size for all its connections (a read is copied into the connection's
#: ``FrameReader`` before the next one starts), so a read allocates
#: nothing and the listener's memory does not grow with its connections.
#: 256 KiB is what ``asyncio.Protocol`` reads at a time, so
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


def _nothing(*_args: Any) -> None:
    """A role callback with nothing to do (a link's reads: nobody writes on one)."""


class _Connection(asyncio.BufferedProtocol):
    """One socket the runtime owns — accepted, dialed as a link, or a
    control channel (:mod:`repro.net.procgroup`).  A read lands in
    ``buffer``, which the owner keeps; its frames go to the role's
    ``on_frames(conn, frames)`` in the callback that read them, and
    ``on_made(conn)`` / ``on_lost(conn, exc)`` hear it open and close."""

    def __init__(self, buffer: memoryview, on_frames, on_lost, on_made=_nothing) -> None:
        self.buffer, self.frames = buffer, FrameReader()
        self.on_frames, self.on_lost, self.on_made = on_frames, on_lost, on_made
        self.transport: Optional[asyncio.Transport] = None
        #: Accepted: ``None`` until the hello, then whether another group
        #: dialed it; and the endpoint a client's hello named, its only name.
        self.peer: Optional[bool] = None
        self.endpoint: Optional[str] = None
        #: A link: the listener it reaches, its dial task (``None`` once it
        #: is up), the frames queued on it this loop turn, its last send.
        self.address: Optional[tuple] = None
        self.dial: Optional[asyncio.Task] = None
        self.queued: list = []
        self.last_used = 0.0

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.on_made(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.on_frames(self, self.frames.feed(self.buffer[:nbytes]))

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.on_lost(self, exc)


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
        #: What every connection reads into (:data:`_READ_BUFFER`).
        self._read_buffer = memoryview(bytearray(_READ_BUFFER))
        #: address -> the link cached for it, dialing or up.
        self._links: Dict[tuple, _Connection] = {}
        self._resolve: Optional[Callable[[Hashable], Optional[tuple]]] = None
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
        frame = self._encode(src, dst, payload)
        if frame is None:
            return
        link = self._links.get(address)
        if link is None:
            link = _Connection(self._read_buffer, _nothing, self._on_link_lost)
            link.address = address
            link.dial = self._loop.create_task(self._dial(link))
            self._links[address] = link
        link.last_used = self._loop.time()
        if not link.queued and link.dial is None:
            self._loop.call_soon(self._flush, link)
        link.queued.append(frame)

    def _encode(self, src: Hashable, dst: Hashable, payload: Any) -> Optional[bytes]:
        """The message's frame; ``None`` when the codec refuses it: the
        message counts dropped and the error waits for :meth:`drain`."""
        try:
            return encode_frame(src, dst, payload)
        except WireError as exc:
            self.messages_dropped += 1
            self.errors.append(exc)
            return None

    def _deliver_to_client(self, env: Envelope) -> bool:
        """Write ``env`` to the connection of the client that introduced
        ``env.dst`` (it leaves the cluster's frame accounting there);
        ``False`` when no connected client did."""
        route = self._routes.get(env.dst)
        if route is None:
            return False
        frame = self._encode(env.src, env.dst, env.payload)
        if frame is not None:
            route.write(frame)
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
        checked *here* (at delivery time, as
        :class:`~repro.net.transport.SimTransport` does) so an endpoint
        that unregistered with messages still inbound dead-letters them.
        A pump started while another runs or is scheduled only delivers,
        and the other arms what is left; an outer pump that empties the
        queue calls the idle callback."""
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

    async def _dial(self, link: _Connection) -> None:
        """Connect ``link`` with backoff (or forget it), then say hello,
        write what queued meanwhile and arm the idle reap."""
        # Seeded per (own, destination) address so two groups redialing
        # the same dead peer desynchronize from each other.
        policy = RetryPolicy(
            DIAL_BACKOFF, zlib.crc32(repr((self.address, link.address)).encode("utf-8"))
        )
        kind, *where = link.address
        loop = self._loop
        connect = loop.create_connection if kind == "tcp" else loop.create_unix_connection
        for attempt in range(DIAL_RETRIES + 1):
            try:
                await connect(lambda: link, *where)
                break
            except OSError as exc:
                if attempt == DIAL_RETRIES:
                    link.dial = None
                    return self._forget(link, exc)
                await asyncio.sleep(policy.delay(attempt + 1))
        link.dial = None
        self.links_dialed += 1
        link.transport.write(hello_frame(kind="peer"))
        loop.call_later(IDLE_TIMEOUT, self._reap, link)
        self._flush(link)

    def _flush(self, link: _Connection) -> None:
        """Write what ``link`` queued this loop turn, in one call.  A link
        that is closing (the other group hung up, or this write failed)
        keeps its frames: ``connection_lost`` follows and drops them."""
        queued, transport = link.queued, link.transport
        if queued and not transport.is_closing():
            transport.writelines(queued)
            if not transport.is_closing():
                link.queued = []
                self.messages_delivered += len(queued)
                self.frames_out += len(queued)

    def _reap(self, link: _Connection) -> None:
        """A link's idle timer: forget it after :data:`IDLE_TIMEOUT` silent
        seconds (the next frame redials), or re-arm for the time left."""
        if self._links.get(link.address) is not link:
            return
        idle = self._loop.time() - link.last_used
        if idle < IDLE_TIMEOUT:
            self._loop.call_later(IDLE_TIMEOUT - idle, self._reap, link)
        else:
            self.links_reaped += 1
            self._forget(link)

    def _on_link_lost(self, link: _Connection, exc: Optional[Exception]) -> None:
        """A cached link closed under us: a failure if it says so or cost
        frames; a link the other group closed while idle is just gone."""
        if self._links.get(link.address) is link:
            if exc is None and link.queued:
                exc = ConnectionResetError(f"link to {link.address!r} closed by its peer")
            self._forget(link, exc)

    def _forget(self, link: _Connection, exc: Optional[BaseException] = None) -> None:
        """The one way a link ends: un-cache it (the next send re-dials),
        count its queued frames dropped — the wire contract for a dead
        connection — cancel its dial, close it (what was written still
        flushes), and record ``exc``, a failure the link hit by itself."""
        if self._links.get(link.address) is link:
            del self._links[link.address]
        self.messages_dropped += len(link.queued)
        link.queued = []
        if link.dial is not None:
            link.dial.cancel()
        if link.transport is not None:
            link.transport.close()
        if exc is not None:
            self.errors.append(exc)

    def kill_link(self, dst: Hashable) -> bool:
        """Sever the cached link under ``dst`` mid-flight (chaos's
        connection-kill fault): its queued frames count dropped, but no
        error is recorded — a kill is an injected fault, not a transport
        defect.  Returns whether a link was actually severed."""
        address = self._resolve(dst) if self._resolve is not None else None
        link = self._links.get(address)
        if link is not None:
            self._forget(link)
        return link is not None

    def reset_links(self) -> None:
        """Forget every cached outbound link (supervisor recovery: peers
        may have respawned at new addresses).  Queued frames count
        dropped; subsequent sends re-resolve and re-dial."""
        for link in list(self._links.values()):
            self._forget(link)

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

    # -- listener side -----------------------------------------------------

    def _accept(self) -> _Connection:
        return _Connection(self._read_buffer, self._on_frames, self._on_lost, self._on_made)

    def _on_made(self, conn: _Connection) -> None:
        if self._started:
            self._connections.add(conn)
        else:  # accepted while close() ran: nothing is read from it
            conn.transport.close()

    def _on_frames(self, conn: _Connection, frames) -> None:
        """An accepted connection's read: its hello, then frames admitted
        by :meth:`_ingress`; the pump runs before the callback returns."""
        try:
            for env in frames:
                if conn.peer is None:
                    self._handle_hello(env, conn)
                else:
                    self._ingress(env, conn)
        except WireError as exc:
            if conn.peer:
                self.errors.append(exc)
            else:
                # A client's (or a stranger's) garbage, or a frame it sent
                # past the broker or under another name, is that
                # connection's own failure: it is closed and counted, and
                # nobody else's drain() hears of it.
                self.client_wire_errors += 1
            conn.transport.close()
        finally:
            self._pump()

    def _on_lost(self, conn: _Connection, exc: Optional[Exception]) -> None:
        self._connections.discard(conn)
        # A reconnected client's hello may have re-routed its endpoint to
        # the new connection already.
        if conn.endpoint is not None and self._routes.get(conn.endpoint) is conn.transport:
            del self._routes[conn.endpoint]

    def _handle_hello(self, env: Envelope, conn: _Connection) -> None:
        """First frame of every accepted connection (:func:`hello_frame`):
        it says whether ``conn`` is another group's link rather than a
        client, and a named ``endpoint`` (a client's private reply sink)
        becomes routable back over it."""
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
            self._routes[endpoint] = conn.transport
        conn.peer, conn.endpoint = payload.get("kind") == "peer", endpoint

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
        if self._use_tcp:
            self._server = await loop.create_server(self._accept, self._host, self._port)
            sockname = self._server.sockets[0].getsockname()
            self.address = ("tcp", sockname[0], sockname[1])
        else:
            if self._path is None:
                self._tempdir = tempfile.mkdtemp(prefix="repro-net-")
                self._path = os.path.join(self._tempdir, "dlpt.sock")
            self._server = await loop.create_unix_server(self._accept, path=self._path)
            self.address = ("unix", self._path)
        self._started = True

    async def close(self) -> None:
        self._started = False
        # Nothing is read, let alone delivered, from an accepted connection
        # once close() has begun: its client sees end-of-file.
        for conn in list(self._connections):
            conn.transport.close()
        dials = [link.dial for link in self._links.values() if link.dial is not None]
        self.reset_links()
        # Like a dead link's queue: what was still to be delivered here
        # counts dropped, and the pump callback finds nothing to do.
        self.messages_dropped += len(self._ready)
        self._ready.clear()
        await asyncio.gather(*dials, return_exceptions=True)
        self._routes.clear()
        if self._server is not None:
            # Accept nothing new, and give an accept under way the turn it
            # needs to attach before the server closes (a later one leaks
            # its socket); :meth:`_on_made` then closes its connection.
            for sock in self._server.sockets:
                self._loop.remove_reader(sock.fileno())
            await asyncio.sleep(0)
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
        timeout = _transport.DRAIN_TIMEOUT
        deadline = self._loop.time() + timeout
        spins = 0
        self._pump()
        while self.in_flight > 0:
            if self._loop.time() > deadline:
                raise TransportError(
                    f"drain timed out after {timeout}s with "
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
    matches :class:`~repro.net.transport.SimTransport`'s zero-delay
    deliveries exactly.
    """

    def send(self, src: Hashable, dst: Hashable, payload: Any) -> None:
        if not self._started:
            raise TransportError("transport is not started")
        self.messages_sent += 1
        frame = self._encode(src, dst, payload)
        if frame is not None:
            self._enqueue(decode_frame(frame))

    async def start(self) -> None:
        if self._started:
            return
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()
        self.address = ("loopback",)
        self._started = True
