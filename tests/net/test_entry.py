"""The entry rule (docs/runtime.md, "The entry rule"): an operation with
no live preferred entry starts at the lowest live label, and the engine
keeps that label where the location table is written —
``ProtocolEngine.set_location``, its one writer — so
``ProtocolEngine.entry`` never iterates the table.

Five angles: the invariant ``engine.lowest_label == min(engine.locator)``
under random membership and write interleavings; the writes one by
one; the engine's own ``via`` handling, which is the same rule whether
``via`` is ``None`` or names no live label; and the complexity, by
counting iterations of the table rather than timing them.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import keys_st, peer_ids_min3_st

from repro.dlpt.protocol import ProtocolEngine
from repro.net.asyncio_transport import LoopbackAsyncioTransport
from repro.net.cluster import EngineGroup, LocalCluster
from repro.net.transport import SimTransport

pytestmark = pytest.mark.asyncio


async def _loopback_cluster() -> LocalCluster:
    transport = LoopbackAsyncioTransport()
    await transport.start()
    return LocalCluster(transport)


def _holds(engine: ProtocolEngine) -> None:
    assert engine.lowest_label == min(engine.locator, default=None)


# -- the invariant, by generator --------------------------------------------

#: One scripted step: what to do and which candidate to do it to (taken
#: modulo however many candidates the ring has at that point).
_steps_st = st.lists(
    st.tuples(
        st.sampled_from(["join", "join", "leave", "crash", "register", "register", "wipe"]),
        st.integers(0, 63),
    ),
    min_size=4,
    max_size=24,
)


class TestLowestLabelInvariant:
    @settings(max_examples=25, deadline=None)
    @given(pool=peer_ids_min3_st, keys=keys_st, steps=_steps_st)
    def test_it_holds_after_every_drained_step(self, pool, keys, steps):
        """``wipe`` crashes the ring down to one peer, which then hosts
        every label (the lowest among them); a crash is a departure, so
        labels only ever move."""

        async def body():
            cluster = await _loopback_cluster()
            engine = cluster.engine
            await cluster.join(pool[0])
            await cluster.register(keys[0])
            _holds(engine)
            for action, n in steps:
                live = cluster.live_ids()
                if action == "join":
                    absent = [p for p in pool if p not in live]
                    if absent:
                        await cluster.join(absent[n % len(absent)])
                elif action == "leave":
                    if len(live) > 1:
                        await cluster.leave(live[n % len(live)])
                elif action == "crash":
                    if len(live) > 1:
                        await cluster.crash(live[n % len(live)])
                elif action == "register":
                    if live:
                        await cluster.register(keys[n % len(keys)])
                else:
                    for peer in live[1:]:
                        await cluster.crash(peer)
                    assert set(engine.locator.values()) == {live[0]}
                _holds(engine)
            await cluster.close()

        asyncio.run(body())


# -- the writes, one by one --------------------------------------------------


def _group(**locations) -> EngineGroup:
    """A group over a blank (simulated) engine with one bootstrapped peer
    ``p`` and the given label -> host table."""
    group = EngineGroup(SimTransport())
    group.engine.bootstrap_peer("p")
    for label, host in locations.items():
        group.engine.set_location(label, host)
    return group


class TestLocationWrites:
    def test_locator_set_keeps_the_lowest(self):
        group = _group(m="p")
        engine = group.engine
        assert engine.lowest_label == "m"
        for label in ("q", "c", "d"):
            engine.set_location(label, "p")
        assert engine.lowest_label == "c"
        engine.set_location("c", "elsewhere")  # a repoint is not a new label
        assert engine.lowest_label == "c" and engine.locator["c"] == "elsewhere"

    def test_an_emptied_table_issues_nothing(self):
        group = _group()
        assert group.engine.lowest_label is None
        assert group.discover(["a"], via=None) == {"issued": False}
        assert group.search("prefix", "a", "", via=None) == {"issued": False}

    def test_a_reset_blanks_it_and_the_next_install_sets_it_again(self):
        """A fresh engine, as ``_Worker.reset`` builds one."""
        engine = _group().engine
        assert engine.locator == {} and engine.lowest_label is None
        engine.insert_data("k")  # empty tree: the root is installed on a Host hop
        engine.run()
        assert engine.locator == {"k": "p"} and engine.lowest_label == "k"

    def test_a_preferred_live_label_still_wins(self):
        group = _group(b="p", a="p")
        assert group.engine.entry("b") == "b"
        assert group.engine.entry("gone") == "a" and group.engine.entry(None) == "a"


# -- the engine's own default -----------------------------------------------


def _engine_first_installed_not_lowest() -> ProtocolEngine:
    """A simulated ring whose first-installed label (``dgemm``, the old
    root) is not its lowest (``d``, the common-prefix root above it)."""
    engine = ProtocolEngine()
    engine.bootstrap_peer("pm")
    for peer in ("pd", "pz"):
        engine.join_peer(peer)
        engine.run()
    for key in ("dgemm", "daxpy", "dtrsm"):
        engine.insert_data(key)
        engine.run()
    assert next(iter(engine.locator)) != engine.lowest_label == "d"
    return engine


class TestEngineDefaultEntry:
    """``via=None`` on the engine means what it means one layer up: the
    lowest live label, not whichever label the table happens to list first."""

    def test_a_default_discovery_starts_at_the_lowest_label(self):
        engine = _engine_first_installed_not_lowest()
        engine.discover("daxpy")
        engine.run()
        engine.discover("daxpy", via=engine.lowest_label)
        engine.run()
        default, explicit = engine.discovery_replies
        assert default.found and explicit.found
        assert default.hops == explicit.hops


class TestADeadEntryIsNotWaitedFor:
    """An operation whose ``via`` names no live label enters at the lowest
    label; it used to be parked under that label forever."""

    @pytest.mark.parametrize(
        "factory", [SimTransport, LoopbackAsyncioTransport], ids=["sim", "loopback"]
    )
    def test_it_enters_at_the_lowest_label(self, factory):
        async def body():
            transport = factory()
            await transport.start()
            engine = ProtocolEngine(transport=transport)
            engine.bootstrap_peer("m")
            for key in ("aa", "ab", "ba"):
                engine.insert_data(key)
                await transport.drain()
            engine.discover("aa", via="zz")
            engine.insert_data("bb", via="zz")
            await transport.drain()
            (reply,) = engine.discovery_replies
            assert reply.found and "bb" in engine.peers["m"].nodes
            assert engine.pending_node_messages == {}
            await transport.close()

        asyncio.run(body())


# -- the complexity, by counting --------------------------------------------


class _CountingTable(dict):
    """A location table that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestNoOperationIteratesTheTable:
    def test_operations_scan_nothing_and_only_losing_the_lowest_rescans(self):
        """Fails against an ``entry`` that computes ``min(locator)``: that
        is one iteration per operation.  Timing-free on purpose."""
        peers = ["pa", "pd", "pg", "pj", "pm", "pq"]
        keys = [f"{a}{b}{c}" for a in "dps" for b in "gtz" for c in "emv"]

        async def body():
            cluster = await _loopback_cluster()
            for peer in peers:
                await cluster.join(peer)
            for key in keys:
                await cluster.register(key)
            engine = cluster.engine
            table = engine.locator = _CountingTable(engine.locator)

            for i in range(200):
                hit = await cluster.discover(keys[i % len(keys)])
                assert hit["found"]
            for i in range(50):
                assert (await cluster.register(f"fresh{i:02d}"))["host"] is not None
            for i in range(10):
                answer = await cluster.search("prefix", "dps"[i % 3])
                assert len(answer["keys"]) == 9
            assert table.iterations == 0

            # A departure moves labels, the lowest among them; it never
            # drops one, so nothing is ever rescanned.
            lowest = engine.lowest_label
            await cluster.crash(engine.locator[lowest])
            await cluster.leave(engine.locator[lowest])
            assert table.iterations == 0 and engine.lowest_label == lowest
            _holds(engine)
            await cluster.close()

        asyncio.run(body())

    def test_engine_operations_without_an_entry_scan_nothing(self):
        """The engine's own ``via=None`` default used to be
        ``next(iter(locator))``: one iteration per operation."""
        engine = _engine_first_installed_not_lowest()
        table = engine.locator = _CountingTable(engine.locator)
        for operation in (
            lambda: engine.discover("dgemm"),
            lambda: engine.insert_data("dgesv"),
            lambda: engine.search_query("prefix", "d"),
            lambda: engine.join_peer("pe"),
        ):
            operation()
            engine.run()
        assert table.iterations == 0
        (hit,), (scan,) = engine.discovery_replies, engine.query_replies
        assert hit.found and "dgesv" in scan.keys and engine.peers["pe"].joined
