"""``DLPTClient`` — a futures-style socket client for a served cluster.

The client speaks ``repro-wire/1`` directly: it connects to the cluster's
listener (the address :class:`~repro.net.asyncio_transport.AsyncioTransport`
printed at start), introduces its private reply endpoint with a hello
frame, and exchanges JSON RPC payloads with the ``"@broker"`` endpoint
(:mod:`repro.net.bootstrap`).  Every operation is *futures-style*: the
method synchronously writes the request and returns an
:class:`asyncio.Future`, so callers can issue many operations and await
them together::

    client = await DLPTClient.connect(address)
    futures = [client.register(k) for k in keys]      # pipelined
    await asyncio.gather(*futures)
    hit = await client.discover("storage/s3")         # {"found": True, ...}
    rows = await client.discover_batch(keys)          # one RPC, n results

Replies correlate by request id; a broker-side failure resolves the
future with :class:`DLPTClientError`.  The client is a plain peer-less
process — it holds no ring state and can connect and disconnect freely.

Resilience policy (``connect(..., timeout=, retries=, backoff=)``): with
a timeout set, an RPC whose reply does not arrive in time is retried
under the *same* correlation id — the broker absorbs duplicates of
requests still in service and re-serves completed replies from cache, so
a retry never re-executes the operation.  A broker backpressure reply
(``busy``) raises :class:`DLPTClientBusy` when retries are exhausted;
with retries left, the client honours the reply's ``retry_after`` hint
(falling back to the jittered :class:`~repro.net.policy.RetryPolicy`
schedule) and retries.  Exhausted timeouts raise
:class:`DLPTClientTimeout`.  A **connection reset mid-RPC** is not
fatal: with retries configured, the client redials the original address,
re-introduces the *same* reply endpoint, and re-sends the in-flight
request under the same correlation id — idempotent at the broker for the
same reason timeouts are — raising only once the retry budget is
exhausted.  The default policy (``timeout=None, retries=0``) is the bare
pre-policy behaviour: any connection loss fails pending RPCs outright.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import zlib
from typing import Dict, Optional, Sequence

from .asyncio_transport import BROKER_ENDPOINT, dial, hello_frame
from .policy import RetryPolicy
from .wire import FrameReader, encode_frame

_client_counter = itertools.count(1)


class DLPTClientError(RuntimeError):
    """The broker answered with an error, or the connection failed."""


class DLPTClientBusy(DLPTClientError):
    """The broker rejected the RPC with backpressure (inbox full)."""

    def __init__(self, message: str, retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DLPTClientReset(DLPTClientError):
    """The connection died mid-RPC.  With retries configured the client
    absorbs this internally (reconnect + re-send under the same id); it
    surfaces only once the retry budget is exhausted."""


class DLPTClientTimeout(DLPTClientError):
    """No reply arrived within the RPC timeout (after all retries)."""


class DLPTClient:
    """A futures-style RPC client bound to one broker connection."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        endpoint: str,
        *,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.05,
        address: Optional[tuple] = None,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self._reader = reader
        self._writer = writer
        self.endpoint = endpoint
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        #: The dialed address, kept so a mid-RPC connection reset can be
        #: healed by redialing (``None`` disables reconnection).
        self._address = address
        self._connected = True
        self._closing = False
        self._conn_lock = asyncio.Lock()
        #: Jittered backoff schedule shared by busy/reset retries; seeded
        #: per client endpoint so synchronized clients desynchronize.
        self._policy = RetryPolicy(backoff, zlib.crc32(endpoint.encode("utf-8")))
        #: Observability: timeouts suffered, busy replies absorbed, and
        #: connections re-established after mid-RPC resets.
        self.timeouts = 0
        self.busy_rejections = 0
        self.reconnects = 0
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        self._rpc_tasks: set = set()
        self._loop = asyncio.get_running_loop()
        self._read_task = self._loop.create_task(self._read_loop())

    # -- connection --------------------------------------------------------

    @classmethod
    async def connect(
        cls,
        address,
        *,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.05,
    ) -> "DLPTClient":
        """Connect to a served cluster.

        ``address`` is what the transport reports: ``("unix", path)``,
        ``("tcp", host, port)``, or a bare Unix-socket path string.
        ``timeout``/``retries``/``backoff`` set the RPC resilience policy
        (module doc); the defaults disable it.
        """
        if isinstance(address, (str, os.PathLike)):
            address = ("unix", os.fspath(address))
        endpoint = f"@client-{os.getpid()}-{next(_client_counter)}"
        reader, writer = await cls._open(address, endpoint)
        return cls(
            reader, writer, endpoint,
            timeout=timeout, retries=retries, backoff=backoff, address=address,
        )

    @staticmethod
    async def _open(address: tuple, endpoint: str):
        """Dial ``address`` and send the hello introducing ``endpoint``."""
        reader, writer = await dial(address)
        writer.write(hello_frame(endpoint=endpoint))
        await writer.drain()
        return reader, writer

    async def close(self) -> None:
        self._closing = True
        tasks = [self._read_task, *self._rpc_tasks]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._rpc_tasks.clear()
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._fail_pending(DLPTClientError("client closed"))

    # -- the futures-style API ---------------------------------------------

    def register(self, key: str, datum: object = None) -> asyncio.Future:
        """Register ``key`` (with optional JSON-scalar ``datum``); resolves
        to ``{"key": ..., "host": ...}`` once the tree has absorbed it."""
        return self._rpc({"op": "register", "key": key, "datum": datum})

    def discover(self, key: str) -> asyncio.Future:
        """Look ``key`` up; resolves to ``{"found": bool, "data": [...],
        "hops": int, "host": ...}``."""
        return self._rpc({"op": "discover", "key": key})

    def discover_batch(self, keys: Sequence[str]) -> asyncio.Future:
        """Look many keys up in one RPC; resolves to a list of per-key
        result dicts in request order."""
        fut = self._rpc({"op": "discover_batch", "keys": list(keys)})
        result: asyncio.Future = self._loop.create_future()

        def unwrap(done: asyncio.Future) -> None:
            if result.cancelled():
                return
            exc = done.exception() if not done.cancelled() else None
            if done.cancelled():
                result.cancel()
            elif exc is not None:
                result.set_exception(exc)
            else:
                result.set_result(done.result()["results"])

        fut.add_done_callback(unwrap)
        return result

    def complete(self, prefix: str) -> asyncio.Future:
        """Prefix completion: resolves to ``{"keys": [...], "hops": int}``
        with every registered key extending ``prefix``, sorted."""
        return self._rpc({"op": "search", "kind": "prefix", "lo": prefix})

    def range_search(self, lo: str, hi: str) -> asyncio.Future:
        """Lexicographic range query: resolves to ``{"keys": [...],
        "hops": int}`` with every registered key in ``[lo, hi]``, sorted."""
        return self._rpc({"op": "search", "kind": "range", "lo": lo, "hi": hi})

    def peer_join(self, peer_id: str, capacity: int = 10) -> asyncio.Future:
        """Admit a new peer to the ring via the bootstrap registry."""
        return self._rpc({"op": "peer_join", "peer": peer_id, "capacity": capacity})

    def peer_leave(self, peer_id: str) -> asyncio.Future:
        """Gracefully retire a peer from the ring."""
        return self._rpc({"op": "peer_leave", "peer": peer_id})

    def info(self) -> asyncio.Future:
        """Cluster snapshot: peer/node counts and the registered keys."""
        return self._rpc({"op": "info"})

    # -- plumbing ----------------------------------------------------------

    def _rpc(self, body: dict) -> asyncio.Future:
        rid = next(self._ids)
        request = {**body, "id": rid, "reply_to": self.endpoint}
        if self.timeout is None and self.retries == 0:
            return self._send_attempt(rid, request)
        result: asyncio.Future = self._loop.create_future()
        task = self._loop.create_task(self._rpc_with_policy(rid, request, result))
        self._rpc_tasks.add(task)
        task.add_done_callback(self._rpc_tasks.discard)
        return result

    def _send_attempt(self, rid: int, request: dict) -> asyncio.Future:
        """Write the request frame and register a fresh reply future.

        Re-arming the same ``rid`` replaces the previous attempt's future:
        whenever the (single) broker reply lands, it settles the *current*
        attempt, and abandoned attempt futures are simply dropped.
        """
        future = self._loop.create_future()
        if not self._connected:
            future.set_exception(DLPTClientReset("connection reset"))
            return future
        self._pending[rid] = future
        self._writer.write(encode_frame(self.endpoint, BROKER_ENDPOINT, request))
        return future

    async def _rpc_with_policy(
        self, rid: int, request: dict, result: asyncio.Future
    ) -> None:
        try:
            await self._attempt_loop(rid, request, result)
        except asyncio.CancelledError:
            if not result.done():
                result.set_exception(DLPTClientError("client closed"))
                result.exception()  # retrieved: teardown must stay quiet
            raise

    async def _attempt_loop(
        self, rid: int, request: dict, result: asyncio.Future
    ) -> None:
        attempts = self.retries + 1
        last_exc: Exception = DLPTClientError("rpc never attempted")
        for attempt in range(attempts):
            attempt_future = self._send_attempt(rid, request)
            try:
                if self.timeout is not None:
                    payload = await asyncio.wait_for(
                        asyncio.shield(attempt_future), self.timeout
                    )
                else:
                    payload = await attempt_future
            except asyncio.TimeoutError:
                self.timeouts += 1
                last_exc = DLPTClientTimeout(
                    f"rpc {request.get('op')!r} (id {rid}) timed out after "
                    f"{self.timeout}s on attempt {attempt + 1}/{attempts}"
                )
                continue  # retry immediately under the same correlation id
            except DLPTClientBusy as exc:
                self.busy_rejections += 1
                last_exc = exc
                if attempt < attempts - 1:
                    pause = exc.retry_after if exc.retry_after else self._policy.delay(attempt + 1)
                    await asyncio.sleep(pause)
                continue
            except DLPTClientReset as exc:
                # The connection died mid-RPC: heal it and re-send under
                # the same correlation id (the broker's duplicate
                # absorption / completed-reply cache makes this safe).
                last_exc = exc
                if attempt < attempts - 1:
                    try:
                        await self._reconnect()
                    except (ConnectionError, OSError, asyncio.TimeoutError) as dial_exc:
                        last_exc = DLPTClientReset(f"reconnect failed: {dial_exc}")
                    await asyncio.sleep(self._policy.delay(attempt + 1))
                continue
            except DLPTClientError as exc:
                # A definitive broker error: no retry.
                if not result.done():
                    result.set_exception(exc)
                return
            if not result.done():
                result.set_result(payload)
            return
        self._pending.pop(rid, None)
        if not result.done():
            result.set_exception(last_exc)

    async def _read_loop(self) -> None:
        # A fresh FrameReader per connection: a frame truncated by the old
        # connection's death is discarded, never half-delivered.
        frames = FrameReader()
        try:
            while True:
                chunk = await self._reader.read(1 << 16)
                if not chunk:
                    self._on_connection_lost()
                    return
                for env in frames.feed(chunk):
                    self._settle(env.payload)
        except ConnectionError:
            self._on_connection_lost()
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # A frame the codec refuses leaves the stream unreadable from
            # here on: the connection is lost, and closed so the server
            # sees it go.
            self._writer.close()
            self._on_connection_lost(f"protocol error: {exc}")

    def _on_connection_lost(self, reason: str = "connection closed") -> None:
        """The connection died under us (or spoke garbage).  Resilient
        clients (retries > 0, known address) fail pending attempts with
        the retryable :class:`DLPTClientReset`; bare clients keep the
        legacy fatal behaviour.  Either way a later RPC fails at once or
        redials — it never waits on a connection nobody reads."""
        self._connected = False
        if self._closing:
            self._fail_pending(DLPTClientError("client closed"))
        elif self.retries > 0 and self._address is not None:
            self._fail_pending(DLPTClientReset("connection reset"))
        else:
            self._fail_pending(DLPTClientError(reason))

    async def _reconnect(self) -> None:
        """Redial the original address and re-introduce the *same* reply
        endpoint (the listener re-routes it to the new connection, so even
        a reply to the pre-reset attempt still reaches us)."""
        async with self._conn_lock:
            if self._connected or self._closing:
                return
            if self._address is None:
                raise ConnectionError("no address to reconnect to")
            reader, writer = await self._open(self._address, self.endpoint)
            old_writer = self._writer
            self._reader, self._writer = reader, writer
            self._connected = True
            self.reconnects += 1
            self._read_task = self._loop.create_task(self._read_loop())
            try:
                old_writer.close()
            except Exception:
                pass

    def _settle(self, payload: object) -> None:
        if not isinstance(payload, dict):
            return
        future = self._pending.pop(payload.get("id"), None)
        if future is None or future.done():
            return
        if payload.get("ok"):
            future.set_result(payload)
        elif payload.get("busy"):
            retry_after = payload.get("retry_after")
            future.set_exception(
                DLPTClientBusy(
                    payload.get("error", "busy"),
                    retry_after=retry_after if isinstance(retry_after, (int, float)) else None,
                )
            )
        else:
            future.set_exception(DLPTClientError(payload.get("error", "unknown error")))

    def _fail_pending(self, exc: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)
        for future in pending.values():
            # Futures nobody awaits yet: mark retrieved so the loop does
            # not log "exception was never retrieved" during teardown.
            if future.done() and not future.cancelled():
                future.exception()
