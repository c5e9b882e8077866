"""Messages are values: nothing assigns to one after it was built.

The message classes of :mod:`repro.dlpt.messages` and the
:class:`~repro.dlpt.messages.Envelope` are slotted dataclasses, not frozen
ones — a frozen ``__init__`` stores every field through
``object.__setattr__``, a tax on every hop — so immutability is checked
here instead of enforced there: every payload a ring delivers is
``encode_frame``d before and after its handler runs, and the two frames
must be equal bytes.  The in-process socket transport is the leg that
matters (it hands the *same* object from hop to hop, and a forwarded
``pending`` tuple is shared between messages); the loopback leg runs the
same scripts in tier-1.  The one record that is handed over rather than
shared is the node itself: a ``NodeState`` in a ``Host``, ``SearchingHost``,
``YourInformation`` or ``LeaveTransfer`` is the very object its receiver
installs, so its handler must leave it as it arrived too — the node
changes only later, under the messages addressed to it.

The second half pins the codec's per-type field tuples: every wire type
round-trips field by field.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strategies import keys_st, peer_ids_st, set_queries, wire_message_builders

from repro.core.queries import PrefixQuery, RangeQuery
from repro.net.asyncio_transport import AsyncioTransport, LoopbackAsyncioTransport
from repro.net.cluster import LocalCluster
from repro.net.conformance import record_conformance_trace, replay_trace
from repro.net.wire import MESSAGE_TYPES, decode_frame, encode_frame, encode_payload

pytestmark = pytest.mark.asyncio

TRANSPORTS = [
    pytest.param(LoopbackAsyncioTransport, id="loopback"),
    pytest.param(AsyncioTransport, id="asyncio-unix", marks=pytest.mark.net),
]


def checking(base):
    """``base`` with every handler wrapped at the public ``register``: a
    delivered envelope must encode to the same frame after its handler
    ran as before.  ``transport.mutations`` lists the ones that did not,
    ``transport.checked`` lists the payloads looked at."""

    class Checking(base):
        def __init__(self):
            super().__init__()
            self.mutations = []
            self.checked = []

        def register(self, endpoint, handler):
            def checked(env):
                before = encode_frame(env.src, env.dst, env.payload)
                try:
                    handler(env)
                finally:
                    self.checked.append(env.payload)
                    if encode_frame(env.src, env.dst, env.payload) != before:
                        self.mutations.append((endpoint, before, env))

            super().register(endpoint, checked)

    return Checking()


@st.composite
def scripts(draw):
    """A ring, a corpus and up to 40 operations over them: join / leave /
    register / discover and prefix / range / exact scans."""
    peers, keys = draw(peer_ids_st), draw(keys_st)
    steps = st.one_of(
        st.tuples(st.just("join"), st.text(alphabet="abc", min_size=2, max_size=6)),
        st.tuples(st.just("leave"), st.integers(0, 7)),
        st.tuples(st.just("register"), st.sampled_from(keys)),
        st.tuples(st.just("discover"), st.sampled_from(keys) | st.text(alphabet="abc", max_size=4)),
        st.tuples(st.just("search"), set_queries(keys)),
    )
    return peers, keys, draw(st.lists(steps, max_size=40))


async def _run_script(transport, peers, keys, steps):
    await transport.start()
    cluster = LocalCluster(transport)
    for peer in peers:
        await cluster.join(peer)
    for key in keys[: len(keys) // 2]:
        await cluster.register(key)
    for op, arg in steps:
        live = cluster.live_ids()
        if op == "join":
            if arg not in live:
                await cluster.join(arg)
        elif op == "leave":
            if len(live) > 1:
                await cluster.leave(live[arg % len(live)])
        elif op == "register":
            await cluster.register(arg, datum=len(arg))
        elif op == "discover":
            await cluster.discover(arg)
        elif isinstance(arg, PrefixQuery):
            await cluster.search("prefix", arg.prefix)
        elif isinstance(arg, RangeQuery):
            await cluster.search("range", arg.lo, arg.hi)
        else:  # an exact probe is the degenerate range
            await cluster.search("range", arg.key, arg.key)
    cluster.engine.check_ring()
    cluster.engine.check_tree()
    await cluster.close()


#: Every payload type the conformance fixture below delivers.  A read
#: walks its own peer's nodes without a message, so the fixture's message
#: count says little; what the check must keep covering is each type.
TRACE_TYPES = {
    "DataInsertion", "DiscoveryReply", "DiscoveryRequest", "Host", "LeaveTransfer",
    "NewPredecessor", "SearchingHost", "SetQueryReply", "SetQueryRequest", "UpdateChild",
    "UpdateSuccessor", "YourInformation",
}


class TestHandlersLeaveTheirMessagesAlone:
    @pytest.mark.parametrize("base", TRANSPORTS)
    def test_every_type_of_the_recorded_conformance_trace_is_checked(self, base):
        """Joins, leaves, crashes, registrations, discoveries and set
        queries of the conformance fixture: no delivery changes a byte,
        and every type the fixture sends is among the deliveries checked."""
        trace = record_conformance_trace(
            n_peers=12, n_keys=40, growth_units=2, total_units=5, load_fraction=0.05,
            faults="crash_storm:0.05:start=2:end=4", queries="mixed:n=2", seed=1789,
        )
        transport = checking(base)
        report = asyncio.run(replay_trace(trace, LocalCluster(transport)))
        assert len(transport.checked) >= report.messages_delivered > 0
        assert {type(payload).__name__ for payload in transport.checked} >= TRACE_TYPES
        assert transport.mutations == []

    def test_a_scan_band_across_two_peers_sends_a_loaded_token(self):
        """The scan token becomes a frame only when its next node lives on
        another peer.  Here the band under ``d`` leaves ``dddd`` (hosting
        ``d``, ``da``, ``dab``, ``dac``) for ``hhhh`` (``dx``, ``dy``) with
        two matches collected and ``dy`` still pending: that token crosses
        the codec whole, and the reply is the oracle's."""
        keys = ["dab", "dac", "dx", "dy"]

        async def body():
            transport = checking(LoopbackAsyncioTransport)
            await transport.start()
            cluster = LocalCluster(transport)
            for peer in ("dddd", "hhhh", "pppp"):
                await cluster.join(peer)
            for key in keys:
                await cluster.register(key)
            reply = await cluster.search("prefix", "d")
            await cluster.close()
            return transport, reply

        transport, reply = asyncio.run(body())
        tokens = [
            payload for payload in transport.checked
            if isinstance(payload, MESSAGE_TYPES["SetQueryRequest"])
        ]
        assert [(t.node, t.phase, t.pending, t.keys) for t in tokens if t.phase == 1] == [
            ("dx", 1, ("dy",), ("dab", "dac"))
        ]
        assert reply["keys"] == keys
        assert transport.mutations == []

    @pytest.mark.parametrize("base", TRANSPORTS)
    def test_over_random_scripts(self, base):
        @settings(
            max_examples=25 if base is LoopbackAsyncioTransport else 10,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(script=scripts())
        def run(script):
            transport = checking(base)
            asyncio.run(_run_script(transport, *script))
            assert transport.checked
            assert transport.mutations == []

        run()

    def test_the_check_catches_a_mutating_handler(self):
        """The fixture itself: a handler that assigns to its message —
        possible now that the classes are not frozen — is reported."""

        async def body():
            transport = checking(LoopbackAsyncioTransport)
            await transport.start()

            def bump(env):
                env.payload.hops += 1

            transport.register("b", bump)
            transport.send("a", "b", MESSAGE_TYPES["DiscoveryReply"](key="k", found=False))
            await transport.drain()
            assert [endpoint for endpoint, _, _ in transport.mutations] == ["b"]
            await transport.close()

        asyncio.run(body())


class TestFieldTuples:
    @settings(max_examples=50, deadline=None)
    @given(
        messages=st.tuples(*(wire_message_builders[name] for name in sorted(MESSAGE_TYPES)))
    )
    def test_every_type_round_trips_field_by_field(self, messages):
        """One instance of every wire type: the codec reads exactly the
        dataclass's fields, in declaration order, and hands each back."""
        assert [type(message).__name__ for message in messages] == sorted(MESSAGE_TYPES)
        for message in messages:
            names = [f.name for f in dataclasses.fields(message)]
            name, fields = encode_payload(message)
            assert MESSAGE_TYPES[name] is type(message)
            assert list(fields) == names
            decoded = decode_frame(encode_frame("s", "d", message)).payload
            assert type(decoded) is type(message)
            for field in names:
                assert getattr(decoded, field) == getattr(message, field), (name, field)

    def test_the_positionally_built_records_keep_their_declared_order(self):
        """``ProtocolEngine`` builds the per-hop requests and the discovery
        replies positionally (``_on_discovery``, ``_on_discovery_batch``,
        ``_on_set_query``): reordering their fields would silently swap
        arguments there."""
        declared = {
            name: tuple(f.name for f in dataclasses.fields(MESSAGE_TYPES[name]))
            for name in ("DiscoveryRequest", "DiscoveryBatch", "DiscoveryReply", "SetQueryRequest")
        }
        assert declared == {
            "DiscoveryRequest": ("node", "key", "reply_to", "hops"),
            "DiscoveryBatch": ("node", "keys", "reply_to", "hops"),
            "DiscoveryReply": ("key", "found", "data", "hops"),
            "SetQueryRequest": (
                "node", "kind", "lo", "hi", "reply_to", "phase", "pending", "keys", "hops",
            ),
        }
