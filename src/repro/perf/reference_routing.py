"""Reference (seed) discovery path — the "before" of the request-side speedups.

Byte-for-byte behavioural copies of the repository's pre-fast-path request
serving: a per-request up-then-down tree walk (parent pointers upward, one
child probe plus a GCP recomputation per downward step) followed by a
per-label host lookup loop for physical-hop counting and capacity
accounting.  These functions are intentionally NOT used by the live
system; they exist so that

* :meth:`repro.perf.reference.SeedDLPTSystem.discover_batch` (the
  ``replay`` and ``sustained`` scenarios) and the ``request_flood`` /
  ``flash_crowd`` scenarios of :mod:`repro.perf.scenarios` can time the
  ``seed`` side of the implementation axis honestly, and
* ``tests/dlpt/test_discovery_equivalence.py`` can property-check that the
  indexed :class:`repro.dlpt.routing.DiscoveryRouter` fast path produces
  identical outcomes (satisfied/found/hops/drops) and identical peer-side
  accounting on any tree, workload and damage state.

Do not "optimise" this module; its slowness is its specification.
"""

from __future__ import annotations

from typing import Optional

from ..core.ids import common_prefix_len
from ..dlpt.routing import RequestOutcome, RoutePath


def seed_route_path(tree, entry_label: str, key: str) -> RoutePath:
    """The seed's up-then-down logical path computation (self-contained
    copy of the original ``repro.dlpt.routing.route_path``)."""
    node = tree.node(entry_label)
    if node is None:
        raise KeyError(f"entry node {entry_label!r} not in the tree")
    labels = [node.label]

    # -- upward phase -----------------------------------------------------
    while not key.startswith(node.label):
        parent = node.parent
        if parent is None:
            return RoutePath(labels=labels, found=False)
        node = parent
        labels.append(node.label)

    # -- downward phase ---------------------------------------------------
    while node.label != key:
        child = (
            node.children.get(key[len(node.label)])
            if len(key) > len(node.label)
            else None
        )
        if child is None:
            return RoutePath(labels=labels, found=False)
        cpl = common_prefix_len(child.label, key)
        if cpl < len(child.label):
            return RoutePath(labels=labels, found=False)
        node = child
        labels.append(node.label)

    return RoutePath(labels=labels, found=True)


def seed_discover(
    system,
    key: str,
    entry_label: Optional[str] = None,
    rng=None,
    accounting: str = "destination",
) -> RequestOutcome:
    """The seed's per-request discovery execution (self-contained copy of
    the original ``DLPTSystem.discover``): route walk, per-label host
    lookups, capacity accounting at the destination (or en route under
    ``transit``)."""
    if accounting not in ("destination", "transit"):
        raise ValueError(f"unknown accounting model {accounting!r}")
    if entry_label is None:
        if rng is None:
            raise ValueError("need rng when entry_label is not given")
        entry_label = system.random_entry_label(rng)
    path = seed_route_path(system.tree, entry_label, key)
    host_of = system.mapping.host_of

    physical_hops = 0
    prev_peer = None
    charge_transit = accounting == "transit"
    last = len(path.labels) - 1
    for i, label in enumerate(path.labels):
        peer = host_of(label)
        if prev_peer is not None and peer is not prev_peer:
            physical_hops += 1
        if charge_transit or i == last:
            if not peer.try_process(label):
                return RequestOutcome(
                    key=key,
                    satisfied=False,
                    found=False,
                    logical_hops=i,
                    physical_hops=physical_hops,
                    dropped_at=peer.id,
                )
        prev_peer = peer
    return RequestOutcome(
        key=key,
        satisfied=path.found,
        found=path.found,
        logical_hops=path.logical_hops,
        physical_hops=physical_hops,
    )
