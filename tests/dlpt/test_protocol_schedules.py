"""Overlapping operations under any message order: a seeded schedule explorer.

:class:`ShuffledTransport` is a :class:`SimTransport` that keeps every
``(src, dst)`` pair FIFO, as a socket does, and picks which pair delivers
next with a seeded RNG, so one seed is one interleaving of the messages in
flight.  Each row below builds a six-peer, ten-key engine, issues a batch of
operations without draining in between, and runs it to quiescence; after
every schedule the ring, the tree (which must be the PGCP tree of every key
inserted), the mapping rule, every key's datum, every read's single reply
and the absence of dead letters and waiting messages are all checked.

This is the proof the engine's write walks rest on: an insertion steps
through its own peer's nodes and installs a node in place, which reorders
its work against everything else in flight, and no row here may tell.

A leaver unregisters as soon as it has sent its nodes on, so whatever is
still in flight to it is lost: a ``Host`` forwarded by a predecessor whose
``succ`` still names it, a request its node was entered by, a
``PeerJoin`` climbing through it, or a neighbour's ``LeaveTransfer``.
Every row that issues a leave alongside what can reach the leaver fails on
some schedules that way (:data:`DEPARTURES`), and stays
``xfail(strict=True)`` until a leaver forwards what reaches it late.

``python -c 'import test_protocol_schedules as s; print(s.failing("2 leaves", range(2000)))'``
(from ``tests/dlpt``, with ``src`` on ``PYTHONPATH``) counts a row's failing
schedules over more seeds.
"""

from __future__ import annotations

import collections
import random

import pytest

from repro.core.pgcp import PGCPTree
from repro.dlpt.messages import Envelope
from repro.dlpt.protocol import ProtocolEngine
from repro.net.transport import SimTransport

#: Schedules per row in tier-1 (~2 s for all rows): enough that the rarest
#: departure row, "leave || 2 inserts", fails on some of them (2 of 400).
SEEDS = range(400)

PEERS = ("dbca", "bhfe", "gcdh", "ehab", "cafg", "hdbc")
KEYS = ("ab", "abc", "abd", "b", "bce", "cd", "cda", "dd", "eh", "gf")
#: Ids that join; none is in :data:`PEERS`.
JOINERS = ("afhb", "fbge", "dgae")


class ShuffledTransport(SimTransport):
    """Per-pair FIFO, any interleaving across pairs: the next delivery comes
    from a non-empty ``(src, dst)`` queue drawn by ``random.Random(seed)``.
    Messages to an endpoint gone by delivery time are kept in ``dead``.
    The engine sets no timers here, so the heap of :class:`SimTransport`
    stays empty."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.rng = random.Random(seed)
        self.queues: dict = {}
        self.dead: list = []

    def send(self, src, dst, payload) -> None:
        self.messages_sent += 1
        queue = self.queues.get((src, dst))
        if queue is None:
            queue = self.queues[(src, dst)] = collections.deque()
        queue.append(Envelope(src, dst, payload))

    def run_until_idle(self) -> None:
        while True:
            ready = [queue for queue in self.queues.values() if queue]
            if not ready:
                return
            env = self.rng.choice(ready).popleft()
            if not self.is_registered(env.dst):
                self.dead.append(env)
            self._deliver(env)


class Schedule:
    """One seed's run: the base engine, then the row's batch."""

    def __init__(self, seed: int) -> None:
        self.transport = ShuffledTransport(seed)
        self.rng = random.Random(seed)
        self.eng = eng = ProtocolEngine(transport=self.transport)
        eng.bootstrap_peer(PEERS[0])
        for pid in PEERS[1:]:
            eng.join_peer(pid)
            eng.run()
        for key in KEYS:
            eng.insert_data(key, via=self.entry())
            eng.run()
        self.keys = list(KEYS)
        self.reads: list = []

    def entry(self):
        """A uniformly drawn node of the tree, or ``None`` while it is empty."""
        labels = sorted(self.eng.locator)
        return self.rng.choice(labels) if labels else None

    # -- the operations a row issues, none of them drained ----------------

    def insert(self, *keys) -> None:
        for key in keys:
            self.eng.insert_data(key, via=self.entry())
            self.keys.append(key)

    def discover(self, n: int) -> None:
        for key in self.rng.sample(KEYS, n):
            self.eng.discover(key, via=self.entry())
            self.reads.append(key)

    def discover_batch(self, n: int) -> None:
        keys = self.rng.sample(KEYS, n)
        self.eng.discover_batch(keys, via=self.entry())
        self.reads.extend(keys)

    def join(self, n: int = 1) -> None:
        for pid in JOINERS[:n]:
            self.eng.join_peer(pid, via=self.entry())

    def leave(self, n: int = 1) -> None:
        joined = [pid for pid in self.eng.live_ids() if pid not in JOINERS]
        for pid in self.rng.sample(joined, n):
            self.eng.leave_peer(pid)

    # -- the verdict ---------------------------------------------------------

    def check(self) -> None:
        eng = self.eng
        eng.run()
        dead = [(type(env.payload).__name__, env.dst) for env in self.transport.dead]
        assert not dead, f"dead letters: {dead}"
        eng.check_ring()
        eng.check_tree()
        eng.check_mapping()
        ref = PGCPTree()
        for key in self.keys:
            ref.insert(key)
        assert eng.node_labels() == ref.labels()
        for key in self.keys:
            assert key in eng.locator, f"{key!r} is lost"
            node = eng.peers[eng.locator[key]].nodes[key]
            assert key in node.data, f"{key!r} lost its datum"
        assert eng.pending_node_messages == {}
        assert not any(peer.deferred for peer in eng.peers.values())
        replies = collections.Counter(r.key for r in eng.discovery_replies if r.found)
        assert len(eng.discovery_replies) == len(self.reads)
        assert replies == collections.Counter(self.reads)


#: Row name -> the batch it issues on the base engine.
ROWS = {
    "join || 1 insert": lambda s: (s.join(), s.insert("abe")),
    "join || 3 inserts": lambda s: (s.join(), s.insert("abe", "cb", "f")),
    "join || 4 discovers": lambda s: (s.join(), s.discover(4)),
    "2 joins || 2 inserts": lambda s: (s.join(2), s.insert("abe", "cb")),
    "4 discovers then leave": lambda s: (s.discover(4), s.leave()),
    "join || leave": lambda s: (s.join(), s.leave()),
    "2 leaves": lambda s: s.leave(2),
    "leave || 4 discovers": lambda s: (s.leave(), s.discover(4)),
    "4 inserts": lambda s: s.insert("abe", "cb", "f", "hh"),
    "4 inserts in one band": lambda s: s.insert("abca", "abcb", "abcc", "abcd"),
    "6 inserts that splice and split": lambda s: s.insert("a", "abcd", "bc", "cb", "ea", "d"),
    "leave || 2 inserts": lambda s: (s.leave(), s.insert("abe", "cb")),
    "2 inserts then leave": lambda s: (s.insert("abe", "cb"), s.leave()),
    "join || 4-key batch": lambda s: (s.join(), s.discover_batch(4)),
    "4-key batch then leave": lambda s: (s.discover_batch(4), s.leave()),
}

#: Rows in which a message reaches a peer that has left, on some schedules.
DEPARTURES = (
    "4 discovers then leave",
    "join || leave",
    "2 leaves",
    "leave || 2 inserts",
    "2 inserts then leave",
    # 69 of the 400 schedules: a DiscoveryBatch reaches the leaver late
    # ("4 discovers then leave": 151, a DiscoveryRequest).
    "4-key batch then leave",
)


def failing(row: str, seeds) -> list:
    """``(seed, error)`` for every schedule of ``row`` that fails a check."""
    bad = []
    for seed in seeds:
        s = Schedule(seed)
        ROWS[row](s)
        try:
            s.check()
        except AssertionError as exc:
            bad.append((seed, str(exc).splitlines()[0]))
    return bad


@pytest.mark.parametrize(
    "row",
    [
        pytest.param(
            row,
            marks=pytest.mark.xfail(
                strict=True,
                reason="a leaver unregisters with messages still in flight to it (ROADMAP item 21)",
            ),
        )
        if row in DEPARTURES
        else row
        for row in ROWS
    ],
)
def test_every_schedule_ends_consistent(row):
    bad = failing(row, SEEDS)
    assert not bad, f"{len(bad)}/{len(SEEDS)} schedules fail, first: {bad[:3]}"


def test_the_explorer_reorders_across_pairs_only():
    """Two seeds deliver one batch in different orders, and every pair's
    messages arrive in the order they were sent."""
    orders = []
    for seed in (1, 2):
        s = Schedule(seed)
        t = s.transport
        sent = collections.defaultdict(collections.deque)
        delivered = []
        send, deliver = t.send, t._deliver

        def record_send(src, dst, payload, send=send, sent=sent):
            sent[(src, dst)].append(payload)
            send(src, dst, payload)

        def record_delivery(env, deliver=deliver, sent=sent, delivered=delivered):
            assert sent[(env.src, env.dst)].popleft() is env.payload
            delivered.append(type(env.payload).__name__)
            deliver(env)

        t.send, t._deliver = record_send, record_delivery
        ROWS["2 joins || 2 inserts"](s)
        s.check()
        assert not any(sent.values())
        orders.append(delivered)
    assert orders[0] != orders[1]
