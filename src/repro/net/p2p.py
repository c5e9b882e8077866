"""Peer-to-peer asyncio transport: one listener per engine group, dialed links.

:class:`AsyncioTransport` multiplexes every endpoint behind one broker
listener — fine for a single process, but a *distributed* DLPT deployment
(the Chord-style substrate the paper assumes, Section 2) gives each peer
its own address and dials its neighbours directly.
:class:`PeerAsyncioTransport` is that shape, at engine-group granularity:

* **Own listener** — every transport binds its own UNIX/TCP socket; the
  endpoints registered on it (the group's peers, its broker, its client
  sink) are served locally, with no hop through a shared broker listener.
* **Outbound connection cache** — frames for endpoints living on *other*
  groups resolve through a caller-supplied ``resolve(endpoint) ->
  address`` callback and travel over cached per-address connections:
  **lazy dial** (a link is opened on first use), **idle reap** (links
  silent for ``idle_timeout`` seconds are closed; the next frame redials)
  and **reconnect with backoff** (dial failures retry with exponential
  backoff before the queued frames are counted dropped).
* **External clients** (:class:`~repro.net.client.DLPTClient`) connect to
  any group's listener exactly as they would to a broker transport: the
  hello frame names their private reply endpoint and frames addressed to
  it are written back over that connection.

Accounting: the per-transport counter invariant ``messages_sent ==
messages_delivered + messages_dropped + messages_dead_lettered`` holds at
quiescence *per group* — a cross-group frame counts ``delivered`` at the
sender once written to the link and ``sent`` at the receiver on ingress,
so cluster-wide sums also balance.  ``frames_out`` / ``frames_in`` count
inter-group wire frames only; a cluster is globally quiescent when every
group's ``in_flight`` is zero **and** the cluster sums satisfy
``Σ frames_out == Σ frames_in`` (a frame can sit in a socket buffer after
the sender counted it delivered — the frame totals catch exactly that
window).  Endpoints whose name starts with a *control prefix* (default
``"@ctl"``/``"@coord"``, the :mod:`repro.net.procgroup` control plane)
bypass every counter, so coordinator polling never perturbs the
quiescence it is measuring.
"""

from __future__ import annotations

import asyncio
import zlib
from typing import Any, Callable, Dict, Hashable, Optional

from ..sim.network import Envelope
from .asyncio_transport import SocketTransport, dial, hello_frame
from .policy import RetryPolicy
from .transport import TransportError
from .wire import WireError, encode_frame

#: Endpoint-name prefixes that mark control-plane traffic (uncounted).
DEFAULT_CONTROL_PREFIXES = ("@ctl", "@coord")


class _Link:
    """One cached outbound connection: an outbox and its writer task."""

    __slots__ = ("address", "outbox", "task", "last_used", "writer")

    def __init__(self, address: tuple, loop: asyncio.AbstractEventLoop) -> None:
        self.address = address
        self.outbox: asyncio.Queue = asyncio.Queue()
        self.task: Optional[asyncio.Task] = None
        self.last_used: float = loop.time()
        self.writer: Optional[asyncio.StreamWriter] = None


class PeerAsyncioTransport(SocketTransport):
    """Per-group listener + outbound connection cache (see module doc)."""

    _TEMP_PREFIX = "repro-p2p-"
    _SOCKET_NAME = "peer.sock"

    def __init__(
        self,
        *,
        path: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
        resolve: Optional[Callable[[Hashable], Optional[tuple]]] = None,
        drain_timeout: float = 60.0,
        idle_timeout: float = 30.0,
        dial_retries: int = 5,
        dial_backoff: float = 0.05,
        dial_jitter: float = 0.25,
        control_prefixes: tuple = DEFAULT_CONTROL_PREFIXES,
    ) -> None:
        super().__init__(
            path=path,
            host=host,
            port=port,
            drain_timeout=drain_timeout,
            control_prefixes=control_prefixes,
        )
        self._links: Dict[tuple, _Link] = {}
        self._resolve = resolve
        self._reaper_task: Optional[asyncio.Task] = None
        self.idle_timeout = idle_timeout
        self.dial_retries = dial_retries
        self.dial_backoff = dial_backoff
        self.dial_jitter = dial_jitter
        #: Inter-group wire frames written / read (control plane excluded).
        self.frames_out = 0
        self.frames_in = 0
        #: Links dialed / reaped over the transport's lifetime.
        self.links_dialed = 0
        self.links_reaped = 0

    def set_resolve(self, resolve: Optional[Callable[[Hashable], Optional[tuple]]]) -> None:
        """Install (or replace) the endpoint resolver.  The multi-process
        runtime can only build the full address map after every group has
        bound its listener, so the resolver arrives post-``start()``."""
        self._resolve = resolve

    # -- delivery ----------------------------------------------------------

    def send(self, src: Hashable, dst: Hashable, payload: Any) -> None:
        if not self._started:
            raise TransportError("transport is not started")
        control = self._is_control(dst)
        if not control:
            self.messages_sent += 1
        if dst in self._handlers or dst in self._inboxes:
            self._ensure_consumer(dst).put_nowait(Envelope(src=src, dst=dst, payload=payload))
            return
        if dst in self._routes:
            # An external client's reply endpoint: write straight back over
            # its connection (it leaves the cluster's frame accounting).
            try:
                frame = encode_frame(src, dst, payload)
            except WireError as exc:
                self.messages_dropped += 1
                self.errors.append(exc)
                return
            self._routes[dst].write(frame)
            if not control:
                self.messages_delivered += 1
            return
        address = self._resolve(dst) if self._resolve is not None else None
        if address is None or address == self.address:
            if not control:
                self.messages_dead_lettered += 1
            return
        self._link_to(address).outbox.put_nowait((src, dst, payload, control))

    def _link_to(self, address: tuple) -> _Link:
        link = self._links.get(address)
        if link is None:
            link = _Link(address, self._loop)
            self._links[address] = link
            link.task = self._loop.create_task(self._run_link(link))
        link.last_used = self._loop.time()
        return link

    def _dial_policy(self, address: tuple) -> RetryPolicy:
        """The per-link dial schedule: exponential backoff with bounded
        deterministic jitter, seeded per destination address so two groups
        redialing the same dead peer desynchronize from each other."""
        return RetryPolicy(
            retries=self.dial_retries,
            backoff=self.dial_backoff,
            jitter=self.dial_jitter,
            seed=zlib.crc32(repr((self.address, address)).encode("utf-8")),
        )

    async def _run_link(self, link: _Link) -> None:
        """Dial (with backoff), then pump the link's outbox onto the wire."""
        policy = self._dial_policy(link.address)
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
                src, dst, payload, control = await link.outbox.get()
                try:
                    frame = encode_frame(src, dst, payload)
                except WireError as exc:
                    self.messages_dropped += 1
                    self.errors.append(exc)
                    continue
                writer.write(frame)
                await writer.drain()
                if not control:
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
        """The wire contract for a dead connection: its queued
        non-control frames count dropped."""
        while not link.outbox.empty():
            _src, _dst, _payload, control = link.outbox.get_nowait()
            if not control:
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
        connection-kill fault).  Queued non-control frames count dropped —
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
        may have respawned at new addresses).  Queued non-control frames
        count dropped; subsequent sends re-resolve and re-dial."""
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

    def _ingress(self, hello: dict, env: Envelope, writer: asyncio.StreamWriter) -> None:
        counted = not self._is_control(env.dst)
        if counted:
            self.messages_sent += 1
        if hello.get("kind") == "peer":
            # Inter-group ingress: the frame enters this group's
            # accounting domain here.
            if counted:
                self.frames_in += 1
        else:
            # Client ingress (broker RPCs; a DLPTClient hello carries
            # ``endpoint``, not ``kind``): the client's origin endpoint
            # becomes routable back.
            self._routes[env.src] = writer

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            return
        await self._listen()
        self._reaper_task = self._loop.create_task(self._reap_idle())
        self._started = True

    async def close(self) -> None:
        await self._stop(
            [self._reaper_task, *(link.task for link in self._links.values())]
        )
        self._reaper_task = None
        for link in self._links.values():
            if link.writer is not None:
                link.writer.close()
        self._links.clear()
        await self._unlisten()
