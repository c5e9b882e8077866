"""Client resilience to mid-RPC connection resets.

A connection reset used to be fatal: every pending future failed and the
client was dead.  With a retry budget (``connect(..., retries=)``) the
client now heals a reset by redialing the original address,
re-introducing the *same* reply endpoint, and re-sending the in-flight
request under the same correlation id — the broker's duplicate absorption
and completed-reply cache make the re-send idempotent.  These tests run
against a scripted flaky broker on a real Unix socket that severs
connections on cue; the end-to-end path (a real worker SIGKILLed under a
supervised cluster) lives in the procgroup and CI suites.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.net.asyncio_transport import CONTROL_ENDPOINT
from repro.net.bootstrap import BROKER_ENDPOINT
from repro.net.client import DLPTClient, DLPTClientError, DLPTClientReset
from repro.net.wire import FrameReader, encode_frame

pytestmark = pytest.mark.asyncio


#: A length-prefixed frame whose body is not JSON.
BAD_FRAME = b"\x00\x00\x00\x03{x]"


class _FlakyServer:
    """A broker double behind a real Unix listener that kills connections
    per a script.

    ``script`` maps the 1-based arrival ordinal of each *request* frame
    (hellos excluded, counted across connections) to a behaviour:
    ``"ok"`` (correlated reply), ``"close"`` (sever the connection
    without answering — a mid-RPC reset), ``"close_listener"`` (sever
    and also stop accepting, so reconnects fail).  The first
    ``bad_hellos`` connections are answered with :data:`BAD_FRAME` as
    soon as their hello arrives.
    """

    def __init__(self, path: str, script, default="ok", bad_hellos=0):
        self.path = path
        self.script = script
        self.default = default
        self.bad_hellos = bad_hellos
        self.frames = []
        self.connections = 0
        self._server = None

    async def start(self):
        self._server = await asyncio.start_unix_server(
            self._on_connection, path=self.path
        )

    async def _on_connection(self, reader, writer):
        self.connections += 1
        frames = FrameReader()
        try:
            while True:
                chunk = await reader.read(1 << 16)
                if not chunk:
                    return
                for env in frames.feed(chunk):
                    if env.dst == CONTROL_ENDPOINT:  # the hello
                        if self.connections <= self.bad_hellos:
                            writer.write(BAD_FRAME)
                        continue
                    self.frames.append(env)
                    action = self.script.get(len(self.frames), self.default)
                    if action == "close_listener":
                        self._server.close()
                        writer.close()
                        return
                    if action == "close":
                        writer.close()
                        return
                    reply = {
                        "id": env.payload.get("id"),
                        "ok": True,
                        "echo": env.payload.get("op"),
                    }
                    writer.write(encode_frame(BROKER_ENDPOINT, env.src, reply))
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def close(self):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()


async def _flaky(tmp_path, script, default="ok", bad_hellos=0, **policy):
    server = _FlakyServer(str(tmp_path / "flaky.sock"), script, default, bad_hellos)
    await server.start()
    client = await DLPTClient.connect(server.path, **policy)
    return client, server


class TestConnectionReset:
    def test_reset_mid_rpc_heals_under_the_same_correlation_id(self, tmp_path):
        async def body():
            client, server = await _flaky(
                tmp_path, {1: "close"}, retries=3, backoff=0.001
            )
            try:
                reply = await client.info()
                assert reply["ok"] and reply["echo"] == "info"
                assert client.reconnects == 1
                assert server.connections == 2  # original + one redial
                # Both attempts carried the same correlation id and the
                # same reply endpoint — idempotent at a real broker.
                rids = {f.payload["id"] for f in server.frames}
                srcs = {f.src for f in server.frames}
                assert len(server.frames) == 2
                assert len(rids) == 1 and len(srcs) == 1
            finally:
                await client.close()
                await server.close()

        asyncio.run(body())

    def test_bare_client_keeps_the_fatal_behaviour(self, tmp_path):
        async def body():
            client, server = await _flaky(tmp_path, {1: "close"})  # retries=0
            try:
                with pytest.raises(DLPTClientError, match="connection closed"):
                    await client.info()
                assert client.reconnects == 0
                assert server.connections == 1
            finally:
                await client.close()
                await server.close()

        asyncio.run(body())

    def test_reset_budget_exhausted_surfaces_the_reset(self, tmp_path):
        async def body():
            client, server = await _flaky(
                tmp_path, {}, default="close", retries=2, backoff=0.001
            )
            try:
                with pytest.raises(DLPTClientReset):
                    await client.info()
                assert len(server.frames) == 3  # 1 attempt + 2 retries
                assert server.connections == 3
                assert client.reconnects == 2
            finally:
                await client.close()
                await server.close()

        asyncio.run(body())

    def test_reconnect_failure_also_counts_against_the_budget(self, tmp_path):
        async def body():
            client, server = await _flaky(
                tmp_path, {1: "close_listener"}, retries=2, backoff=0.001
            )
            try:
                with pytest.raises(DLPTClientReset, match="connection"):
                    await client.info()
                assert client.reconnects == 0  # every redial was refused
                assert server.connections == 1
            finally:
                await client.close()
                await server.close()

        asyncio.run(body())

    def test_pipelined_rpcs_all_heal_through_one_reconnect(self, tmp_path):
        async def body():
            client, server = await _flaky(
                tmp_path, {1: "close"}, retries=3, backoff=0.001
            )
            try:
                futures = [client.info() for _ in range(3)]
                replies = await asyncio.gather(*futures)
                assert all(r["ok"] for r in replies)
                # The reset failed all three in-flight attempts, but the
                # connection lock serialised healing into one redial.
                assert client.reconnects == 1
            finally:
                await client.close()
                await server.close()

        asyncio.run(body())


class TestMalformedReply:
    """A reply frame the codec refuses used to fail the RPCs pending at
    that moment and end the read loop, but leave the client "connected":
    every later RPC wrote its request and waited on a future nobody would
    ever settle.  A protocol error is now a lost connection."""

    def test_a_bare_client_fails_later_rpcs_at_once(self, tmp_path):
        async def body():
            client, server = await _flaky(tmp_path, {}, bad_hellos=1)
            try:
                await asyncio.wait_for(client._read_task, 1.0)  # garbage read
                with pytest.raises(DLPTClientError, match="connection"):
                    await asyncio.wait_for(client.discover("k"), 1.0)
                assert server.frames == []  # nothing was written to a dead stream
            finally:
                await client.close()
                await server.close()

        asyncio.run(body())

    def test_a_resilient_client_redials(self, tmp_path):
        async def body():
            client, server = await _flaky(
                tmp_path, {}, bad_hellos=1, retries=2, backoff=0.001
            )
            try:
                await asyncio.wait_for(client._read_task, 1.0)
                reply = await asyncio.wait_for(client.discover("k"), 1.0)
                assert reply["ok"] and reply["echo"] == "discover"
                assert client.reconnects == 1 and server.connections == 2
            finally:
                await client.close()
                await server.close()

        asyncio.run(body())
