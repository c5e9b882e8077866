"""The asyncio transport: ``repro-wire/1`` frames over real sockets.

:class:`AsyncioTransport` implements the :class:`~repro.net.transport.Transport`
contract on an asyncio event loop.  One listener socket (a Unix-domain
socket by default, TCP with ``host=``) multiplexes *all* endpoints — each
frame names its destination endpoint, so a whole peer cluster shares one
address, broker-style.  Internals:

* ``send()`` is synchronous (protocol handlers call it mid-message): it
  counts the message and enqueues it on a single outbound queue; a writer
  task encodes frames and pushes them through the transport's own loopback
  connection to the listener.  The single queue + single connection gives
  global FIFO on the wire, strictly stronger than the per-(src, dst) FIFO
  the contract demands.
* The listener fans frames out to **per-endpoint inbox queues**, each
  drained by a consumer task that runs the endpoint's handler; endpoints
  therefore process their inboxes concurrently, so *cross*-endpoint
  interleavings are scheduler-defined — exactly the nondeterminism the
  conformance harness canonicalises away.
* External processes (e.g. :class:`~repro.net.client.DLPTClient`) connect
  to the same listener, introduce themselves with a hello frame, and get
  per-connection **reply routing**: frames addressed to an endpoint that
  lives on a remote connection are forwarded back over it.
* The clock is the loop's monotonic clock (seconds since ``start()``);
  timers are ``loop.call_later``.  There is deliberately no RNG: losses
  and delays are the operating system's, never sampled — see the contract
  note in :mod:`repro.net.transport`.
* ``await drain()`` polls the counter invariant ``sent == delivered +
  dropped + dead_lettered`` until quiescent (handler-issued sends count
  *before* the issuing delivery completes, so the invariant cannot hold
  transiently mid-cascade), then raises the first handler exception if
  any handler failed.

Everything but the first bullet lives in :class:`SocketTransport`, the
base :class:`AsyncioTransport` shares with the per-group
:class:`~repro.net.p2p.PeerAsyncioTransport`.

:class:`LoopbackAsyncioTransport` keeps the event loop, the counters and
the full wire-codec round-trip, but replaces the sockets with a single
in-process FIFO queue drained by one pump task — deterministic global
delivery order, byte-faithful frames, runnable in tier-1 CI.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from ..sim.network import Envelope
from .transport import Handler, Transport, TransportError
from .wire import WIRE_SCHEMA, FrameReader, WireError, decode_frame, encode_frame

#: Socket read chunk size; frames reassemble across chunks via FrameReader.
_READ_CHUNK = 1 << 16

#: The reserved endpoint hello frames are addressed to.
CONTROL_ENDPOINT = "@transport"


async def dial(address: tuple) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open a stream to a transport ``address`` (``("unix", path)`` or
    ``("tcp", host, port)``)."""
    if address[0] == "unix":
        return await asyncio.open_unix_connection(address[1])
    if address[0] == "tcp":
        return await asyncio.open_connection(address[1], address[2])
    raise TransportError(f"undialable address {address!r}")


def hello_frame(**fields: Any) -> bytes:
    """The frame every connection opens with (``_handle_hello``)."""
    return encode_frame(
        CONTROL_ENDPOINT, CONTROL_ENDPOINT, {"hello": WIRE_SCHEMA, **fields}
    )


class SocketTransport(Transport):
    """What every socket transport shares: one UNIX/TCP listener, hello
    frames, per-endpoint inbox queues + consumer tasks, reply routing to
    connected clients, the monotonic clock and the counter-polling drain.

    Subclasses supply :meth:`send` (how an outbound message reaches the
    wire), :meth:`_ingress` (how an inbound frame enters the accounting
    domain) and their own outbound machinery in ``start``/``close``.
    Endpoints whose name starts with one of ``control_prefixes`` bypass
    every counter (none do by default).
    """

    #: ``tempfile.mkdtemp`` prefix / socket file name of the default
    #: (no ``path=``) Unix-domain listener.
    _TEMP_PREFIX = "repro-net-"
    _SOCKET_NAME = "dlpt.sock"

    def __init__(
        self,
        *,
        path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        drain_timeout: float = 60.0,
        control_prefixes: tuple = (),
    ) -> None:
        self._handlers: Dict[Hashable, Handler] = {}
        self._inboxes: Dict[Hashable, asyncio.Queue] = {}
        self._consumers: Dict[Hashable, asyncio.Task] = {}
        #: endpoint -> StreamWriter of the remote connection hosting it.
        self._routes: Dict[Hashable, asyncio.StreamWriter] = {}
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
        self.control_prefixes = tuple(control_prefixes)
        #: Handler/codec/link exceptions, surfaced by :meth:`drain`.
        self.errors: list[BaseException] = []
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_dead_lettered = 0

    def _is_control(self, endpoint: Hashable) -> bool:
        return isinstance(endpoint, str) and endpoint.startswith(self.control_prefixes)

    # -- endpoints ---------------------------------------------------------

    def register(self, endpoint: Hashable, handler: Handler) -> None:
        self._handlers[endpoint] = handler

    def unregister(self, endpoint: Hashable) -> None:
        self._handlers.pop(endpoint, None)

    def is_registered(self, endpoint: Hashable) -> bool:
        return endpoint in self._handlers

    # -- listener side -----------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        frames = FrameReader()
        hello: Optional[dict] = None
        try:
            while True:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    break
                for env in frames.feed(chunk):
                    if hello is None:
                        hello = self._handle_hello(env, writer)
                        continue
                    self._ingress(hello, env, writer)
                    self._route(env)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancels server-spawned connection tasks that
            # were never individually awaited; exiting quietly keeps the
            # stream protocol's done-callback from logging it.
            pass
        except WireError as exc:
            self.errors.append(exc)
        finally:
            stale = [ep for ep, w in self._routes.items() if w is writer]
            for ep in stale:
                del self._routes[ep]
            writer.close()

    def _handle_hello(self, env: Envelope, writer: asyncio.StreamWriter) -> dict:
        """First frame of every connection: ``{"hello": ..., "endpoint":
        optional, ...}``.  A named endpoint (a client's private reply
        sink) becomes routable back over this connection; the payload is
        returned for :meth:`_ingress` to tell connection kinds apart."""
        payload = env.payload
        if (
            env.dst != CONTROL_ENDPOINT
            or not isinstance(payload, dict)
            or payload.get("hello") != WIRE_SCHEMA
        ):
            raise WireError(f"connection did not open with a hello frame: {env!r}")
        endpoint = payload.get("endpoint")
        if endpoint is not None:
            self._routes[endpoint] = writer
        return payload

    def _ingress(self, hello: dict, env: Envelope, writer: asyncio.StreamWriter) -> None:
        """Account for one inbound frame of a connection opened by ``hello``."""
        raise NotImplementedError

    def _route(self, env: Envelope) -> None:
        """Fan a decoded frame out: local inbox, remote route or dead."""
        if env.dst in self._handlers or env.dst in self._inboxes:
            self._ensure_consumer(env.dst).put_nowait(env)
        elif env.dst in self._routes:
            self._routes[env.dst].write(encode_frame(env.src, env.dst, env.payload))
            if not self._is_control(env.dst):
                self.messages_delivered += 1
        elif not self._is_control(env.dst):
            self.messages_dead_lettered += 1

    def _ensure_consumer(self, endpoint: Hashable) -> asyncio.Queue:
        inbox = self._inboxes.get(endpoint)
        if inbox is None:
            inbox = asyncio.Queue()
            self._inboxes[endpoint] = inbox
            self._consumers[endpoint] = self._loop.create_task(
                self._consume(endpoint, inbox)
            )
        return inbox

    async def _consume(self, endpoint: Hashable, inbox: asyncio.Queue) -> None:
        while True:
            env = await inbox.get()
            self._deliver(env)

    def _deliver(self, env: Envelope) -> None:
        """Run the destination handler; registration is checked *here* (at
        delivery time, like the simulator's network) so an endpoint that
        unregistered with messages still inbound dead-letters them."""
        counted = not self._is_control(env.dst)
        handler = self._handlers.get(env.dst)
        if handler is None:
            if counted:
                self.messages_dead_lettered += 1
            return
        try:
            handler(env)
        except Exception as exc:  # surfaced at drain(); keep consuming
            self.errors.append(exc)
        if counted:
            self.messages_delivered += 1

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

    async def _listen(self) -> None:
        """Bind the listener and publish :attr:`address`."""
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()
        if self._use_tcp:
            self._server = await asyncio.start_server(
                self._on_connection, self._host, self._port
            )
            sockname = self._server.sockets[0].getsockname()
            self.address = ("tcp", sockname[0], sockname[1])
        else:
            if self._path is None:
                self._tempdir = tempfile.mkdtemp(prefix=self._TEMP_PREFIX)
                self._path = os.path.join(self._tempdir, self._SOCKET_NAME)
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=self._path
            )
            self.address = ("unix", self._path)

    async def _stop(self, tasks) -> None:
        """Cancel ``tasks`` (the subclass's own) and every consumer, and
        forget the inboxes and client routes."""
        self._started = False
        tasks = [t for t in [*tasks, *self._consumers.values()] if t]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._consumers.clear()
        self._inboxes.clear()
        self._routes.clear()

    async def _unlisten(self) -> None:
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
        """Local quiescence: no counted message of this transport is in
        flight (transitively); then surface the first handler error."""
        deadline = self._loop.time() + self.drain_timeout
        spins = 0
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


class AsyncioTransport(SocketTransport):
    """Length-prefixed JSON frames over TCP or Unix-domain sockets: every
    ``send`` crosses the transport's own loopback connection."""

    def __init__(
        self,
        *,
        path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        drain_timeout: float = 60.0,
    ) -> None:
        super().__init__(path=path, host=host, port=port, drain_timeout=drain_timeout)
        self._outbox: Optional[asyncio.Queue] = None
        self._client_writer: Optional[asyncio.StreamWriter] = None
        self._writer_task: Optional[asyncio.Task] = None

    # -- delivery ----------------------------------------------------------

    def send(self, src: Hashable, dst: Hashable, payload: Any) -> None:
        if not self._started:
            raise TransportError("transport is not started")
        self.messages_sent += 1
        self._outbox.put_nowait((src, dst, payload))

    async def _write_outbox(self) -> None:
        while True:
            src, dst, payload = await self._outbox.get()
            try:
                frame = encode_frame(src, dst, payload)
            except WireError as exc:
                self.messages_dropped += 1
                self.errors.append(exc)
                continue
            self._client_writer.write(frame)
            await self._client_writer.drain()

    def _ingress(self, hello: dict, env: Envelope, writer: asyncio.StreamWriter) -> None:
        if not hello.get("internal"):
            # Remote ingress: the frame enters this transport's accounting
            # domain here (the loopback's own frames were counted by
            # ``send``), and its origin endpoint becomes routable back
            # over this connection.
            self.messages_sent += 1
            self._routes[env.src] = writer

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            return
        await self._listen()
        self._outbox = asyncio.Queue()
        _reader, writer = await dial(self.address)
        self._client_writer = writer
        writer.write(hello_frame(internal=True))
        await writer.drain()
        self._writer_task = self._loop.create_task(self._write_outbox())
        self._started = True

    async def close(self) -> None:
        await self._stop([self._writer_task])
        self._writer_task = None
        if self._client_writer is not None:
            self._client_writer.close()
            try:
                await self._client_writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._client_writer = None
        await self._unlisten()


class LoopbackAsyncioTransport(AsyncioTransport):
    """Deterministic in-process variant: no sockets, one global FIFO.

    Every message still round-trips the full ``repro-wire/1`` codec
    (``encode_frame`` → ``decode_frame``), so serialisation bugs surface
    in tier-1, but delivery is a single queue drained by one pump task —
    global FIFO order, reproducible run to run, which matches the
    simulator's zero-latency ``call_soon`` semantics exactly.
    """

    def __init__(self, *, drain_timeout: float = 60.0) -> None:
        super().__init__(drain_timeout=drain_timeout)
        self._queue: Optional[asyncio.Queue] = None
        self._pump_task: Optional[asyncio.Task] = None

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
        self._queue.put_nowait(decode_frame(frame))

    async def _pump(self) -> None:
        while True:
            env = await self._queue.get()
            self._deliver(env)

    async def start(self) -> None:
        if self._started:
            return
        self._loop = asyncio.get_running_loop()
        self._t0 = self._loop.time()
        self._queue = asyncio.Queue()
        self._pump_task = self._loop.create_task(self._pump())
        self.address = ("loopback",)
        self._started = True

    async def close(self) -> None:
        self._started = False
        if self._pump_task is not None:
            self._pump_task.cancel()
            await asyncio.gather(self._pump_task, return_exceptions=True)
            self._pump_task = None
