#!/usr/bin/env python
"""Quickstart: build a DLPT overlay, register services, discover them.

Reproduces the paper's Figure 1 trees along the way: the binary-identifier
example (1a) and the BLAS-routine example (1b) — "no hashing is required",
the tree is built directly over the service names.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import random

from repro import DiscoveryService, DLPTSystem, PGCPTree
from repro.workloads.keys import blas_routines, paper_figure1_binary_keys


def figure_1a() -> None:
    print("=" * 64)
    print("Figure 1(a): PGCP tree over binary identifiers")
    print("=" * 64)
    tree = PGCPTree()
    for key in paper_figure1_binary_keys():
        tree.insert(key)
    tree.check_invariants()
    # '*' marks filled nodes (registered keys); 'o' marks the structural
    # nodes (101 and ε in the paper's figure).
    print(tree.render())
    print()


def figure_1b() -> None:
    print("=" * 64)
    print("Figure 1(b): PGCP tree over BLAS routine names (no hashing)")
    print("=" * 64)
    tree = PGCPTree()
    for key in ("dgemm", "dgemv", "daxpy", "dtrsm", "sgemm", "saxpy"):
        tree.insert(key)
    tree.check_invariants()
    print(tree.render())
    print()


def live_overlay() -> None:
    print("=" * 64)
    print("A live overlay: 32 peers, the full BLAS, flexible discovery")
    print("=" * 64)
    rng = random.Random(2008)

    system = DLPTSystem()           # lexicographic mapping, heterogeneous peers
    system.build(rng, n_peers=32)   # bootstrap the ring
    service = DiscoveryService(system)

    for name in blas_routines():
        service.register(name)
    system.check_invariants()
    print(f"peers: {system.n_peers}, tree nodes: {system.n_nodes}, "
          f"services: {len(service)}")

    # Exact discovery — routed through the tree with capacity accounting.
    out = service.discover("dgemm", rng=rng)
    print(f"discover('dgemm'): satisfied={out.satisfied} "
          f"logical_hops={out.logical_hops} physical_hops={out.physical_hops}")

    # Automatic completion of a partial search string.
    print(f"complete('dgem') -> {service.complete('dgem')}")

    # Lexicographic range query.
    print(f"range_search('dtrmm','dtrsv') -> "
          f"{service.range_search('dtrmm', 'dtrsv')}")

    # Where did the tree land? Show the 5 busiest peers by node count.
    peers = sorted(system.ring.peers(), key=lambda p: -len(p.nodes))[:5]
    print("\nbusiest peers (id prefix, capacity, #nodes hosted):")
    for p in peers:
        print(f"  {p.id[:12]:<14} cap={p.capacity:>3} nodes={len(p.nodes)}")


if __name__ == "__main__":
    figure_1a()
    figure_1b()
    live_overlay()
