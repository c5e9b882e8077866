"""The cluster layer's own contract (:mod:`repro.net.cluster`): every
operation ends at one quiescence wait and answers alike on both backends
— the shared ones as engine-group steps, each backend's data plane its
own way — and a batch's records are re-associated to its keys once.

Tier-1 drives a :class:`LocalCluster` on the loopback transport and one
of two in-process groups; the ``net``-marked twin spawns a 2-process ring.
"""

from __future__ import annotations

import asyncio
import collections
import itertools

import pytest

from repro.net.asyncio_transport import AsyncioTransport, LoopbackAsyncioTransport
from repro.net import procgroup
from repro.net.chaos import ChaosTransport
from repro.net.cluster import STEPS, ClusterError, LocalCluster, _associate
from repro.net.procgroup import MultiProcessCluster, group_of
from repro.net.transport import TransportError

pytestmark = pytest.mark.asyncio

PEERS = ["pa", "pd", "pg", "pj", "pm", "pq"]
REGISTERED = ["dgemm", "dgemv", "dtrsm", "pdgemm", "sgemm", "zherk"]
#: 18 keys in a scrambled order, with duplicates and one miss.
BATCH = (REGISTERED + ["no-such-key"] + REGISTERED[::-1] + REGISTERED[:5])[::-1]


def _count_calls(owner, name):
    """Wrap ``owner.name`` (an async callable) on the instance, as the
    serve benchmark's probe does; returns the one-element call tally."""
    original, tally = getattr(owner, name), [0]

    async def counted(*args, **kwargs):
        tally[0] += 1
        return await original(*args, **kwargs)

    setattr(owner, name, counted)
    return tally


def lossy_loopback():
    """A loopback transport that can lose discovery replies: returns
    ``(transport, lose)``; ``lose(n)`` drops the ``n``-th reply (from 0)
    to reach the engine's reply sink from now on, and nothing else."""
    fate = [iter(())]
    transport = ChaosTransport(
        LoopbackAsyncioTransport(),
        "drop:1.0",
        only=lambda src, dst: dst == "@client" and next(fate[0], False),
    )

    def lose(n):
        fate[0] = iter([False] * n + [True])

    return transport, lose


class _CountingLoopback(LoopbackAsyncioTransport):
    """A loopback transport that tallies what it delivers, by payload
    type name, in ``delivered``."""

    def __init__(self):
        super().__init__()
        self.delivered = collections.Counter()

    def register(self, endpoint, handler):
        def counted(env):
            self.delivered[type(env.payload).__name__] += 1
            handler(env)

        super().register(endpoint, counted)


async def _local_cluster(peers, transport=None):
    transport = transport or LoopbackAsyncioTransport()
    await transport.start()
    cluster = LocalCluster(transport)
    for pid in peers:
        await cluster.join(pid)
    return cluster


async def _batch_equals_singles(cluster):
    """``discover_many`` answers in request order with exactly the
    records per-key ``discover`` gives."""
    singles = {key: await cluster.discover(key) for key in set(BATCH)}
    rows = await cluster.discover_many(BATCH)
    assert [row["key"] for row in rows] == BATCH
    assert rows == [singles[key] for key in BATCH]
    assert [row["found"] for row in rows] == [key in REGISTERED for key in BATCH]


class TestLocalCluster:
    def test_a_batch_shares_one_drain(self):
        """``scan_batch`` depends on it: 18 discoveries, one wait."""

        async def body():
            cluster = await _local_cluster(PEERS)
            for key in REGISTERED:
                await cluster.register(key)
            await _batch_equals_singles(cluster)
            drains = _count_calls(cluster.transport, "drain")
            await cluster.discover_many(BATCH)
            assert drains[0] == 1
            await cluster.close()

        asyncio.run(body())

    def test_live_count_is_the_number_of_live_ids_while_a_join_is_in_flight(self):
        """A peer whose join is in flight is installed but not live, and
        ``live_count`` (which builds no list) leaves it out as ``live_ids``
        does; once the join settles both count it."""

        async def body():
            cluster = await _local_cluster(PEERS)
            engine = cluster.engine
            engine.join_peer("pz", 10, seed="pa")
            assert "pz" in engine.peers and not engine.peers["pz"].joined
            assert cluster.live_count() == len(cluster.live_ids()) == len(PEERS)
            await cluster.drain()
            assert cluster.live_count() == len(cluster.live_ids()) == len(PEERS) + 1
            await cluster.close()

        asyncio.run(body())

    def test_a_lost_reply_is_a_per_key_outcome_in_discovers_words(self):
        """A discovery reply dropped in flight used to end ``discover_many``
        in ``KeyError: 'dtrsm'``; it is the one lost key's outcome, worded
        as ``discover`` words it, beside every other key's record."""

        async def body():
            transport, lose = lossy_loopback()
            await transport.start()
            cluster = LocalCluster(transport)
            for pid in PEERS:
                await cluster.join(pid)
            for key in REGISTERED:
                await cluster.register(key)
            singles = {key: await cluster.discover(key) for key in REGISTERED}
            lose(2)
            rows = await cluster.discover_many(REGISTERED)
            (lost,) = [key for key, row in zip(REGISTERED, rows) if isinstance(row, ClusterError)]
            for key, row in zip(REGISTERED, rows):
                if key == lost:
                    assert str(row) == f"expected 1 reply for discovery of {lost!r}, got 0"
                else:
                    assert row == singles[key]
            # A key asked twice owes two replies: one lost fails both askers.
            lose(0)
            rows = await cluster.discover_many(["dgemm", "dgemm"])
            assert [str(row) for row in rows] == [
                "expected 2 replies for discovery of 'dgemm', got 1"
            ] * 2
            lose(0)
            with pytest.raises(ClusterError, match="expected 1 reply for discovery of 'zherk', got 0"):
                await cluster.discover("zherk")
            assert await cluster.discover("zherk") == singles["zherk"]
            assert transport.chaos_dropped == 3
            await cluster.close()

        asyncio.run(body())

    def test_a_failed_wait_does_not_poison_the_next_read(self):
        """When the quiescence wait of a read raises, the replies that did
        land are discarded with it; they used to stay in the engine's
        reply lists and be counted into the next read of the same key
        (``expected 1 reply for discovery of 'dgemm', got 2``)."""

        async def body():
            cluster = await _local_cluster(PEERS)
            for key in REGISTERED:
                await cluster.register(key)
            hit = await cluster.discover("dgemm")
            scan = await cluster.search("prefix", "d")

            def boom(env):
                raise RuntimeError("handler exploded")

            # A raising handler beside the ring: whatever drains next fails.
            cluster.transport.register("@boom", boom)
            cluster.transport.send("@test", "@boom", {"tick": 1})
            with pytest.raises(TransportError, match="during drain"):
                await cluster.discover("dgemm")
            assert await cluster.discover("dgemm") == hit
            cluster.transport.send("@test", "@boom", {"tick": 2})
            with pytest.raises(TransportError, match="during drain"):
                await cluster.search("prefix", "d")
            assert await cluster.search("prefix", "d") == scan
            assert await cluster.discover_many(REGISTERED) == [
                await cluster.discover(key) for key in REGISTERED
            ]
            await cluster.close()

        asyncio.run(body())

    def test_a_crash_is_the_departure(self):
        """The victim's ν reaches its successor by the paper's departure:
        the one ``leave`` step, which sends one ``LeaveTransfer`` and one
        ``UpdateSuccessor`` — what arrives must equal what left."""

        async def body():
            transport = _CountingLoopback()
            cluster = await _local_cluster(["pa", "pg", "pm"], transport)
            engine = cluster.engine
            data = {"pbab": {1, 2.5, "three"}, "pbac": {"pbac"}, "pc": {True}}
            for key, items in data.items():
                for datum in items:
                    await cluster.register(key, datum)
            victim = engine.peers["pg"]
            left = {
                label: (st.father, st.children, set(st.data))
                for label, st in victim.nodes.items()
            }
            # The fixture: a multi-datum node, and a structural node
            # ("pba": no data, two children), among at least three.
            assert len(left) >= 3 and left["pbab"][2] == data["pbab"]
            assert left["pba"] == ("p", ("pbab", "pbac"), set())

            steps, call = [], cluster.call

            def recorded(group, step, **body):
                steps.append(step)
                return call(group, step, **body)

            cluster.call = recorded
            before = collections.Counter(transport.delivered)
            await cluster.crash("pg")
            cluster.call = call
            assert steps == ["leave"]
            assert transport.delivered - before == {"LeaveTransfer": 1, "UpdateSuccessor": 1}

            assert cluster.live_ids() == ["pa", "pm"]
            heir = engine.peers["pm"]
            for label, copy in left.items():
                st = heir.nodes[label]
                assert (st.label, st.father, st.children, st.data) == (label, *copy)
                assert engine.locator[label] == "pm"
            engine.check_ring()
            engine.check_tree()
            engine.check_mapping()
            for key, items in data.items():
                hit = await cluster.discover(key)
                assert hit["found"] and hit["host"] == "pm"
                assert hit["data"] == sorted(items, key=repr)
            await cluster.close()

        asyncio.run(body())

    def test_the_last_peer_is_refused(self):
        async def body():
            cluster = await _local_cluster([])
            await _refuse_the_last_peer(cluster, lambda: dict(cluster.engine.locator))
            with pytest.raises(ClusterError, match="not joined"):
                await cluster.crash("pa")
            await cluster.close()

        asyncio.run(body())

    def test_a_crash_installs_every_node_through_the_engine(self):
        """The heir takes each of the victim's nodes through
        ``ProtocolEngine._install_node``, so the install hook — a worker
        group's location broadcast — fires once per label, naming the
        heir, and nothing else writes the location table."""

        async def body():
            cluster = await _local_cluster(["pa", "pg", "pm"])
            engine = cluster.engine
            for key in ("pbab", "pbac", "pc"):
                await cluster.register(key)
            labels = sorted(engine.peers["pg"].nodes)
            assert len(labels) >= 3
            installed = []
            engine.on_node_installed = lambda label, host: installed.append((label, host))
            await cluster.crash("pg")
            assert sorted(installed) == [(label, "pm") for label in labels]
            assert set(engine.locator) == {*engine.peers["pa"].nodes, *labels}
            assert {engine.locator[label] for label in labels} == {"pm"}
            await cluster.close()

        asyncio.run(body())

    def test_a_stranger_is_refused_before_any_step(self):
        async def body():
            cluster = await _local_cluster(["pa", "pg"])
            steps, call = [], cluster.call

            def recorded(group, step, **body):
                steps.append(step)
                return call(group, step, **body)

            cluster.call = recorded
            for remove in (cluster.leave, cluster.crash):
                with pytest.raises(ClusterError) as refused:
                    await remove("pz")
                assert str(refused.value) == "peer 'pz' not joined"
            cluster.call = call
            assert steps == [] and cluster.live_ids() == ["pa", "pg"]
            await cluster.close()

        asyncio.run(body())


class TestSteps:
    def test_the_steps_are_the_twelve_protocol_operations(self):
        """A control endpoint dispatches the engine's own operations and
        reads; no step edits a peer's ring pointers, nodes or location
        table from outside the protocol."""
        assert STEPS == {
            "bootstrap", "join", "leave", "insert", "discover", "search", "locate",
            "collect", "ring", "snapshot", "counters", "chaos",
        }


def _records(*keys):
    return [{"key": key, "n": n} for n, key in enumerate(keys)]


class TestReassociation:
    """:func:`repro.net.cluster._associate` on each of its three paths."""

    def test_records_in_issue_order_are_the_answer_as_they_are(self):
        records = _records("a", "b", "a")
        assert _associate(["a", "b", "a"], records) is records

    def test_a_complete_permuted_batch_is_put_in_issue_order(self):
        """Duplicates get one identical answer: the last record of their key."""
        answer = _associate(["a", "b", "a", "c"], _records("c", "a", "b", "a"))
        assert [row["key"] for row in answer] == ["a", "b", "a", "c"]
        assert answer[0] is answer[2]

    def test_a_miscount_fails_only_its_own_key(self):
        lost = _associate(["a", "b", "a", "c"], _records("c", "a", "b"))
        assert [row["key"] for row in (lost[1], lost[3])] == ["b", "c"]
        for row in (lost[0], lost[2]):
            assert str(row) == "expected 2 replies for discovery of 'a', got 1"
        extra = _associate(["a", "b"], _records("b", "a", "b"))
        assert extra[0]["key"] == "a"
        assert str(extra[1]) == "expected 1 reply for discovery of 'b', got 2"


async def _refuse_the_last_peer(cluster, ledger):
    """Down to one peer, ``leave`` and ``crash`` of it raise one
    :class:`ClusterError` before any step: the ring, the tree and
    ``ledger()`` are as they were, and every key is still served."""
    for pid in ("pa", "pg"):
        await cluster.join(pid)
    for key in REGISTERED:
        await cluster.register(key)
    await cluster.crash("pa")

    async def state():
        ring = await cluster.call(cluster._home("pg"), "ring", peer="pg")
        return await cluster.snapshot(), (ring["pred"], ring["succ"]), ledger()

    before = await state()
    assert before[0]["live"] == ["pg"] and before[1] == ("pg", "pg")
    for remove in (cluster.leave, cluster.crash):
        with pytest.raises(ClusterError) as refused:
            await remove("pg")
        assert str(refused.value) == "cannot remove 'pg': it is the ring's last peer"
        assert await state() == before
    for key in REGISTERED:
        hit = await cluster.discover(key)
        assert hit["found"] and hit["host"] == "pg"


@pytest.mark.net
class TestMultiProcessCluster:
    def test_a_batch_costs_one_quiescence_wait(self):
        """One ``drain()`` per batch, so a batch costs the ``counters()``
        polls of one wait, not of one wait per key (>= 36 for these 18)."""

        async def body():
            cluster = MultiProcessCluster(processes=2)
            await cluster.start()
            try:
                assert len({group_of(p, 2) for p in PEERS}) == 2
                for pid in PEERS:
                    await cluster.join(pid)
                for key in REGISTERED:
                    await cluster.register(key)
                await _batch_equals_singles(cluster)
                drains = _count_calls(cluster, "drain")
                polls = _count_calls(cluster, "counters")
                await cluster.discover_many(BATCH)
                assert drains[0] == 1
                # A wait is two equal quiet polls, plus one for each the
                # batch's traffic was still in flight at.
                assert 2 <= polls[0] < len(BATCH)
            finally:
                await cluster.close()

        asyncio.run(body())

    def test_the_last_peer_is_refused(self):
        """The two-process twin: the acknowledged-registration ledger and
        the membership are untouched by the refusal too."""

        async def body():
            cluster = MultiProcessCluster(processes=2)
            await cluster.start()
            try:
                await _refuse_the_last_peer(
                    cluster, lambda: (dict(cluster.registrations), dict(cluster.members))
                )
                assert sorted(cluster.registrations) == sorted(REGISTERED)
            finally:
                await cluster.close()

        asyncio.run(body())

    def test_a_failed_wait_does_not_poison_the_next_read(self):
        """The two-process twin: a worker handler that raises while a
        discovery is travelling fails that one ``discover`` — at
        quiescence, so its replies have landed and go with it — and every
        later one, from either group, is answered normally."""

        async def body():
            cluster = MultiProcessCluster(processes=2)
            await cluster.start()
            try:
                await _poisoned_wait(cluster, ClusterError, "worker transport error")
            finally:
                await cluster.close()

        asyncio.run(body())


class TestInProcessGroups:
    """The two-process tests above on two engine groups in this process
    (:class:`LocalCluster` over two socket transports)."""

    def test_the_last_peer_is_refused(self):
        async def body():
            cluster = LocalCluster(AsyncioTransport(), AsyncioTransport())
            await cluster.start()
            try:
                await _refuse_the_last_peer(
                    cluster, lambda: [dict(g.engine.locator) for g in cluster.groups]
                )
            finally:
                await cluster.close()

        asyncio.run(body())

    def test_a_failed_wait_does_not_poison_the_next_read(self):
        async def body():
            cluster = LocalCluster(AsyncioTransport(), AsyncioTransport())
            await cluster.start()
            try:
                await _poisoned_wait(cluster, TransportError, "during drain")
            finally:
                await cluster.close()

        asyncio.run(body())


async def _poisoned_wait(cluster, error, match):
    """A handler that raises while a discovery travels fails that one
    read with ``error``; every later read, from either group, is answered
    as before."""
    for pid in PEERS:
        await cluster.join(pid)
    for key in REGISTERED:
        await cluster.register(key)
    hit = await cluster.discover("dgemm")
    # An unhashable datum for an existing key raises in the
    # hosting peer's handler (or in the codec of the link towards
    # it) without touching the tree — issued as a bare step, so
    # the discovery's wait is the one that hears of it.
    await cluster.call(
        group_of(min(PEERS), 2), "insert", key="dgemm", datum={"rich": [1]}, via=None
    )
    with pytest.raises(error, match=match):
        await cluster.discover("dgemm")
    for _ in range(4):  # two from each group
        assert await cluster.discover("dgemm") == hit


class TestMultiProcessDrain:
    """``MultiProcessCluster.drain`` over canned counter polls (no worker
    is spawned: the wait reads nothing but ``counters()``)."""

    @staticmethod
    def _drain(monkeypatch, polls):
        monkeypatch.setattr(procgroup, "ERROR_SETTLE", 0.05)
        monkeypatch.setattr("repro.net.transport.DRAIN_TIMEOUT", 0.5)
        cluster = MultiProcessCluster(processes=2)
        polls = iter(polls)
        last = None

        async def counters():
            nonlocal last
            last = next(polls, last)
            return [dict(snap, errors=list(snap["errors"])) for snap in last]

        cluster.counters = counters
        return asyncio.run(cluster.drain())

    @staticmethod
    def _snap(frames_out=0, frames_in=0, errors=()):
        return {
            "sent": 4, "delivered": 4, "in_flight": 0,
            "frames_out": frames_out, "frames_in": frames_in, "errors": errors,
        }

    def test_an_error_that_unbalances_the_frame_sums_is_not_a_timeout(self, monkeypatch):
        """A frame one group counted out and nobody will count in (the
        receiving link read garbage): the sums never balance, and the
        error still comes back as the ``ClusterError`` it is, after the
        short settle bound rather than ``transport.DRAIN_TIMEOUT``."""
        lost = [self._snap(frames_out=1), self._snap(errors=("WireError('garbage')",))]
        after = [self._snap(frames_out=1), self._snap()]
        with pytest.raises(ClusterError, match="worker transport error.*garbage"):
            self._drain(monkeypatch, [lost, after])

    def test_an_error_waits_for_quiescence(self, monkeypatch):
        """A handler error does not cut the wait short while the ring is
        about to settle: it is raised at quiescence, with what the later
        polls handed over."""
        busy = [self._snap(frames_out=1, errors=("RuntimeError('boom')",)), self._snap()]
        landing = [self._snap(frames_out=1), self._snap(frames_in=1, errors=("RuntimeError('late')",))]
        quiet = [self._snap(frames_out=1), self._snap(frames_in=1)]
        with pytest.raises(ClusterError, match="2 worker transport error.*boom.*late"):
            self._drain(monkeypatch, [busy, landing, quiet])

    def test_never_quiet_without_an_error_times_out(self, monkeypatch):
        with pytest.raises(TransportError, match="drain timed out"):
            self._drain(monkeypatch, [[self._snap(frames_out=1), self._snap()]])

    def test_quiet_twice_returns_the_snapshots(self, monkeypatch):
        snaps = self._drain(monkeypatch, [[self._snap(), self._snap()]])
        assert [s["in_flight"] for s in snaps] == [0, 0]

    @pytest.mark.parametrize(
        "busy_polls, sleeps",
        [(0, 0), (2, 2)],
        ids=["quiet", "busy-then-quiet"],
    )
    def test_only_a_busy_poll_sleeps(self, monkeypatch, busy_polls, sleeps):
        """A quiet poll is confirmed by the very next one: the two-poll
        rule compares counter snapshots, never elapsed time, so only a
        busy cluster is given time before it is polled again."""
        busy = [self._snap(frames_out=1), self._snap()]
        quiet = [self._snap(frames_out=1), self._snap(frames_in=1)]
        polls, slept = [], []

        def script():
            for n in itertools.count():
                polls.append(n)
                yield busy if n < busy_polls else quiet

        async def sleep(delay):
            slept.append(delay)

        monkeypatch.setattr(asyncio, "sleep", sleep)
        self._drain(monkeypatch, script())
        assert len(polls) == busy_polls + 2
        assert len(slept) == sleeps
