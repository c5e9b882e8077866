"""Seeded op streams and the correctness oracle of the ``serve`` benchmark.

Everything the server receives is generated here from ``--seed``: the
preloaded key set, the op stream of each workload, and the ids of the
peers that join and leave.  The server itself is never seeded.

Keys are ``"p"`` followed by 2–8 letters of ``a``–``h`` (3–9 characters):
the small alphabet makes prefixes shared, so the PGCP tree is deep, and
the constant ``p`` puts the keys inside the id range of the served ring
(``repro.net.serve.peer_ids`` names every peer ``p???``) — without it the
lexicographic mapping would host every tree node on the first peer.

An op is a tuple whose first item is its kind::

    ("discover", key)            ("register", key)
    ("discover_batch", [keys])   ("complete", prefix)
    ("range", lo, hi)            ("peer_join", id)      ("peer_leave", id)
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import os
import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ALPHABET = "abcdefgh"
KEY_PREFIX = "p"
N_PEERS = 128
N_PRELOAD = 3000
ZIPF_S = 1.1
#: Zipf-Mandelbrot offset.  Pure Zipf(1.1) sends 17% of all lookups to one
#: key, so the hop mean of a run is mostly the depth of that key: over ten
#: seeds ``hops_per_lookup`` spread by 7.5% (inter-quartile) and dragged
#: every timing metric with it.  With the head flattened the hottest key
#: gets 2% and the hottest 100 still get half of all lookups.
ZIPF_Q = 10
MISS_SHARE = 0.10

#: name -> why it exists, ops per second of ``--seconds``, ops per
#: segment, connections, callers per connection, ops traced by ``--trace 1``.
#: The per-second sizes make a run last about ``--seconds`` on the
#: 2-vCPU host class the baseline was taken on; the count is fixed by
#: the arguments, never by the clock, so count metrics repeat exactly.
WORKLOADS: Dict[str, dict] = {
    "lookup_serial": dict(
        why="1 caller, discover only: nothing queues, so latency is the bare per-op path "
        "(client, codec, socket, drain poll, ~4 engine hops)",
        ops_per_second=1000, segment_ops=400, connections=1, callers=1, trace_ops=4000,
    ),
    "lookup_fanin": dict(
        why="same discover stream from 2 connections x 4 callers: the broker inbox is never "
        "empty, so queueing, fairness and drain-then-reply set throughput",
        ops_per_second=1050, segment_ops=400, connections=2, callers=4, trace_ops=4000,
    ),
    "register_churn": dict(
        why="70% register of fresh keys, 22% read-your-writes discover, 8% peer join/leave: "
        "the write path (insertion, split, host search, node migration) and any cache invalidation",
        ops_per_second=680, segment_ops=250, connections=1, callers=1, trace_ops=4000,
    ),
    "scan_batch": dict(
        why="16-key discover_batch, prefix completion and range scans: large frames and scan-token "
        "walks, so per-byte codec cost dominates and per-RPC overhead is amortised",
        ops_per_second=210, segment_ops=200, connections=1, callers=1, trace_ops=1000,
    ),
}

def initial_peers() -> List[str]:
    """The ids ``python -m repro serve --peers 128`` admits at startup."""
    from repro.net.serve import peer_ids

    return peer_ids(N_PEERS)


class KeySpace:
    """Draws never-repeating keys from one seeded generator."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.seen: set = set()

    def fresh(self) -> str:
        rng = self.rng
        while True:
            key = KEY_PREFIX + "".join(
                rng.choice(ALPHABET) for _ in range(rng.randint(2, 8))
            )
            if key not in self.seen:
                self.seen.add(key)
                return key


class ZipfPicker:
    """Zipf-Mandelbrot popularity over a fixed key list: the key of rank
    ``r`` (list order, from 1) has weight ``1 / (r + q) ** s``."""

    def __init__(self, keys: Sequence[str], s: float = ZIPF_S, q: float = ZIPF_Q) -> None:
        self.keys = list(keys)
        self.cum = list(
            itertools.accumulate(1.0 / ((rank + q) ** s) for rank in range(1, len(keys) + 1))
        )

    def pick(self, rng: random.Random) -> str:
        return self.keys[bisect.bisect_left(self.cum, rng.random() * self.cum[-1])]


class Plan:
    """Everything one run sends: preload keys, then the op stream."""

    def __init__(self, workload: str, seed: int, n_ops: int, n_preload: int = N_PRELOAD) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        # One generator per run; the workload name is folded into the seed
        # so two workloads with one --seed do not share a key set.
        rng = random.Random(f"serve-bench/{workload}/{seed}")
        self.space = KeySpace(rng)
        self.preload = [self.space.fresh() for _ in range(n_preload)]
        # Keys to look up and not find.  The labels of the tree's internal
        # nodes (the common prefixes of lexicographic neighbours) are left
        # out: the engine answers ``found=True, data=[]`` for an unfilled
        # internal label, which the strict oracle would count as a failure.
        ordered = sorted(self.preload)
        internal = {os.path.commonprefix(pair) for pair in zip(ordered, ordered[1:])}
        self.misses = []
        while len(self.misses) < max(16, n_preload // 3):
            key = self.space.fresh()
            if key not in internal:
                self.misses.append(key)
        self.zipf = ZipfPicker(self.preload)
        self.peers = initial_peers()
        self.ops: List[tuple] = getattr(self, "_gen_" + workload)(rng, n_ops)

    # -- generators ----------------------------------------------------

    def _lookup_key(self, rng: random.Random) -> str:
        if rng.random() < MISS_SHARE:
            return rng.choice(self.misses)
        return self.zipf.pick(rng)

    def _gen_lookup_serial(self, rng: random.Random, n: int) -> List[tuple]:
        return [("discover", self._lookup_key(rng)) for _ in range(n)]

    _gen_lookup_fanin = _gen_lookup_serial

    def _gen_register_churn(self, rng: random.Random, n: int) -> List[tuple]:
        live = list(self.peers)
        taken = set(live)
        recent = list(self.preload[-500:])
        ops: List[tuple] = []
        for _ in range(n):
            r = rng.random()
            if r < 0.70:
                key = self.space.fresh()
                recent.append(key)
                if len(recent) > 500:
                    del recent[0]
                ops.append(("register", key))
            elif r < 0.92:
                ops.append(("discover", rng.choice(recent)))
            else:
                # Membership stays within 128 +- 8: at a limit the op is
                # forced towards the middle.
                join = r < 0.96
                if len(live) >= N_PEERS + 8:
                    join = False
                elif len(live) <= N_PEERS - 8:
                    join = True
                if join:
                    while True:
                        # Ids inside the key range, so a joiner takes over
                        # tree nodes (node migration is part of the cost).
                        pid = KEY_PREFIX + "".join(rng.choice("abcdefghij") for _ in range(4))
                        if pid not in taken:
                            break
                    taken.add(pid)
                    live.append(pid)
                    ops.append(("peer_join", pid))
                else:
                    pid = live.pop(rng.randrange(len(live)))
                    ops.append(("peer_leave", pid))
        return ops

    def _gen_scan_batch(self, rng: random.Random, n: int) -> List[tuple]:
        ops: List[tuple] = []
        for _ in range(n):
            r = rng.random()
            if r < 0.40:
                ops.append(("discover_batch", [self._lookup_key(rng) for _ in range(16)]))
            elif r < 0.70:
                ops.append(("complete", self.zipf.pick(rng)[:3]))
            else:
                k = self.zipf.pick(rng)
                ops.append(("range", k, k[:3] + "h" * 7))
        return ops

    # -- identity --------------------------------------------------------

    def sha256(self) -> str:
        """Hash of everything the server will receive, in order."""
        h = hashlib.sha256()
        for key in self.preload:
            h.update(key.encode() + b"\n")
        for op in self.ops:
            h.update(json.dumps(op, separators=(",", ":")).encode() + b"\n")
        return h.hexdigest()


def issue(client, op: tuple):
    """Send ``op`` through ``DLPTClient``'s public API; returns the future."""
    kind = op[0]
    if kind == "discover":
        return client.discover(op[1])
    if kind == "register":
        return client.register(op[1])
    if kind == "discover_batch":
        return client.discover_batch(op[1])
    if kind == "complete":
        return client.complete(op[1])
    if kind == "range":
        return client.range_search(op[1], op[2])
    if kind == "peer_join":
        return client.peer_join(op[1])
    if kind == "peer_leave":
        return client.peer_leave(op[1])
    raise ValueError(f"unknown op kind {kind!r}")


class Oracle:
    """What every reply must say: a plain set, a sorted list and bisect."""

    def __init__(self, keys: Iterable[str] = (), peers: Iterable[str] = ()) -> None:
        self.keys = set(keys)
        self.sorted = sorted(self.keys)
        self.peers = sorted(peers)

    # -- expected answers --------------------------------------------------

    def complete(self, prefix: str) -> List[str]:
        lo = bisect.bisect_left(self.sorted, prefix)
        hi = bisect.bisect_left(self.sorted, prefix + chr(0x10FFFF))
        return self.sorted[lo:hi]

    def range(self, lo: str, hi: str) -> List[str]:
        return self.sorted[bisect.bisect_left(self.sorted, lo): bisect.bisect_right(self.sorted, hi)]

    def successor(self, peer_id: str) -> str:
        return self.peers[bisect.bisect_left(self.peers, peer_id) % len(self.peers)]

    def _discover_mismatch(self, key: str, row: dict) -> Optional[str]:
        found = key in self.keys
        expect = [key] if found else []
        if row.get("key") != key or row.get("found") is not found or row.get("data") != expect:
            return f"discover {key!r}: expected found={found} data={expect}, got {row!r}"
        if not isinstance(row.get("hops"), int) or row["hops"] < 0:
            return f"discover {key!r}: bad hops in {row!r}"
        return None

    # -- verification ------------------------------------------------------

    def check(self, op: tuple, reply) -> Tuple[Optional[str], int, int]:
        """Verify ``reply`` to ``op`` and fold the op into the oracle.

        Returns ``(mismatch or None, lookups, hops)`` — the reply's
        contribution to ``hops_per_lookup``."""
        kind = op[0]
        if isinstance(reply, Exception):
            return f"{kind} {op[1]!r}: {type(reply).__name__}: {reply}", 0, 0
        if kind == "discover":
            return self._discover_mismatch(op[1], reply), 1, _hops(reply)
        if kind == "discover_batch":
            keys = op[1]
            if not isinstance(reply, list) or len(reply) != len(keys):
                return f"discover_batch: expected {len(keys)} rows, got {reply!r}", 0, 0
            for key, row in zip(keys, reply):
                bad = self._discover_mismatch(key, row)
                if bad:
                    return "discover_batch: " + bad, 0, 0
            return None, len(keys), sum(_hops(row) for row in reply)
        if kind in ("complete", "range"):
            expect = self.complete(op[1]) if kind == "complete" else self.range(op[1], op[2])
            if reply.get("keys") != expect:
                return (
                    f"{kind} {op[1:]!r}: expected {len(expect)} keys, got "
                    f"{len(reply.get('keys') or ())} ({str(reply)[:120]})"
                ), 0, 0
            return None, 1, _hops(reply)
        if kind == "register":
            key = op[1]
            bad = None
            if reply.get("key") != key or reply.get("host") not in self.peers:
                bad = f"register {key!r}: host not a live peer in {reply!r}"
            if key not in self.keys:
                self.keys.add(key)
                bisect.insort(self.sorted, key)
            return bad, 0, 0
        if kind == "peer_join":
            pid = op[1]
            bad = None
            if reply.get("peer") != pid or reply.get("successor") != self.successor(pid):
                bad = f"peer_join {pid!r}: expected successor {self.successor(pid)!r}, got {reply!r}"
            bisect.insort(self.peers, pid)
            return bad, 0, 0
        if kind == "peer_leave":
            pid = op[1]
            self.peers.remove(pid)
            bad = None
            if reply.get("peer") != pid or reply.get("peers") != len(self.peers):
                bad = f"peer_leave {pid!r}: expected {len(self.peers)} peers left, got {reply!r}"
            return bad, 0, 0
        raise ValueError(f"unknown op kind {kind!r}")

    def final_mismatch(self, info: dict) -> Optional[str]:
        """``info().keys`` must equal the oracle's key list at end of run."""
        keys = info.get("keys")
        if keys != self.sorted:
            return (
                f"info: server holds {len(keys or ())} keys, oracle {len(self.sorted)}; "
                f"first difference {_first_difference(keys or [], self.sorted)!r}"
            )
        if info.get("peers") != len(self.peers):
            return f"info: server reports {info.get('peers')} peers, oracle {len(self.peers)}"
        return None


def _hops(row: dict) -> int:
    hops = row.get("hops")
    return hops if isinstance(hops, int) else 0


def _first_difference(a: Sequence[str], b: Sequence[str]):
    for x, y in itertools.zip_longest(a, b):
        if x != y:
            return (x, y)
    return None
