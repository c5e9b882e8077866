#!/usr/bin/env python
"""Message-level walkthrough of Algorithms 1–3.

Everything the macro simulator does atomically happens here the hard way:
peers exchange PeerJoin / NewPredecessor / DataInsertion / SearchingHost /
Host / UpdateChild messages over a simulated network that delays each one
at random, and the tree, ring and mapping emerge from the protocol alone.

Run:  python examples/protocol_walkthrough.py
"""

from __future__ import annotations

import random

from repro.dlpt.protocol import ProtocolEngine
from repro.net.chaos import ChaosTransport
from repro.net.transport import SimTransport


def main() -> None:
    rng = random.Random(18)  # LIP report number suffix

    # Every message is held for a uniform delay in [0, 1.5) time units.
    eng = ProtocolEngine(
        transport=ChaosTransport(SimTransport(), "delay:1.0:max=1.5+seed=99")
    )

    # --- bootstrap + joins (Algorithms 1 & 2) ------------------------------
    eng.bootstrap_peer("mmmmmm", capacity=10)
    joiners = []
    while len(joiners) < 9:
        pid = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6))
        if pid not in eng.peers:
            joiners.append(pid)
    for pid in joiners:
        eng.join_peer(pid, capacity=rng.randint(5, 20))
        eng.run()
    eng.check_ring()
    ring_ids = sorted(p.id for p in eng.peers.values())
    print(f"ring formed: {len(ring_ids)} peers")
    print("  " + " -> ".join(ring_ids[:5]) + " -> ...")

    # --- data insertion (Algorithm 3) ------------------------------------
    keys = ["dgemm", "dgemv", "daxpy", "dgetrf", "sgemm",
            "S3L_fft", "S3L_sort", "Pdgesv", "Psgesv"]
    for k in keys:
        eng.insert_data(k, datum=f"server-for-{k}")
        eng.run()
    eng.check_tree()
    eng.check_mapping()
    print(f"\ntree built by messages alone: {len(eng.node_labels())} nodes "
          f"(keys {len(keys)}, structural "
          f"{len(eng.node_labels()) - len(keys)})")
    for label in sorted(eng.node_labels()):
        host = eng.locator[label]
        shown = label if label else "ε"
        print(f"  node {shown:<10} on peer {host}")

    # --- a peer joins THROUGH the tree -------------------------------------
    print("\njoining peer 'dzzzzz' routed via node 'dgemm' (Algorithm 1):")
    eng.join_peer("dzzzzz", capacity=12, via="dgemm")
    eng.run()
    eng.check_ring()
    eng.check_mapping()
    taken = sorted(eng.peers["dzzzzz"].nodes)
    print(f"  newcomer took over nodes: {taken}")

    # --- discovery ----------------------------------------------------------
    print("\ndiscovery requests (reply carries data + hop count):")
    for k in ("dgemm", "S3L_sort", "does-not-exist"):
        eng.discover(k)
    eng.run()
    for reply in eng.discovery_replies:
        print(f"  {reply.key:<16} found={reply.found!s:<5} hops={reply.hops} "
              f"data={list(reply.data)}")

    t = eng.transport
    print(f"\ntransport totals: {t.messages_sent} messages sent, "
          f"{t.messages_delivered} delivered, {t.messages_dropped} dropped, "
          f"{t.messages_dead_lettered} dead-lettered")
    waiting = sum(map(len, eng.pending_node_messages.values())) + sum(
        len(peer.deferred) for peer in eng.peers.values()
    )
    print(f"messages still waiting for their node or ring slot (not a "
          f"transport count): {waiting}")


if __name__ == "__main__":
    main()
