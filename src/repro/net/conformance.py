"""Differential trace conformance: sim vs live sockets vs multi-process.

The risk of a second (or third) execution engine is silent divergence, so
the proof obligation is differential: replay the *same* recorded
``repro-trace/1`` workload (:mod:`repro.workloads.traces`) through the
protocol engine on the discrete-event transport, on a live asyncio
transport (:func:`replay_trace`), and on a ring spread over OS processes
exchanging protocol messages peer-to-peer
(:func:`replay_trace_multiprocess`), canonicalise the outcome streams,
and assert equality.  Every leg runs the *same* driver loop
(:func:`_replay`) against a :mod:`repro.net.cluster` backend; the two
public functions only construct the backend.

What makes the comparison sound:

* **Same inputs.**  Both replays share the trace and a driver RNG seeded
  from the trace header, so joining peers draw identical identifiers in
  identical order.  Entry nodes are taken from the trace (they are
  tree-structural) or chosen deterministically (lowest label).
* **Drain between operations.**  The driver awaits transport quiescence
  after every membership change, registration, fault and request.  Within
  one operation a live transport interleaves endpoint handlers however the
  scheduler likes; between operations both systems are at rest, and the
  PGCP tree is uniquely determined by the registered key set — so the
  at-rest states are comparable.
* **Latency-independent projection.**  A :class:`UnitOutcome` keeps only
  what the paper's protocols define: live-peer count, the sorted
  registered-key set, and per-request ``(key, satisfied, responsible
  host, logical hops)``.  Wall-clock, byte counts and cross-pair message
  interleavings are deliberately excluded.

Crashes (``["crash", index]`` trace events) pick the victim — the
``index % n``-th live peer in id order, exactly the trace's ring-position
draw — and apply the backend's one ``crash`` operation
(:meth:`repro.net.cluster.Cluster.crash`: fail-stop, ``r=1`` successor
adoption), identically on every transport and topology.
Partition events are out of scope for the message-level engine and raise
:class:`ConformanceError`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..dlpt.protocol import ProtocolEngine
from ..experiments.config import ExperimentConfig
from ..experiments.runner import record_single
from ..peers.churn import ChurnModel
from ..workloads.keys import grid_service_corpus
from ..workloads.traces import WorkloadTrace
from .cluster import LocalCluster
from .transport import Transport

#: Identifier space for driver-drawn peer ids (lowercase keeps them in the
#: same lexicographic order relation as any printable service key corpus).
_ID_DIGITS = "abcdefghijklmnopqrstuvwxyz"
_ID_LENGTH = 8


class ConformanceError(RuntimeError):
    """A trace event the conformance replay cannot express."""


@dataclass(frozen=True)
class UnitOutcome:
    """The canonical, latency-independent outcome of one trace unit."""

    unit: int
    n_peers: int
    n_nodes: int
    keys: Tuple[str, ...]
    requests: Tuple[Tuple[str, bool, Optional[str], int], ...]
    joins: int = 0
    leaves: int = 0
    crashes: int = 0
    #: Per set query: ``(kind, lo, hi, sorted result keys, logical hops)``.
    queries: Tuple[Tuple[str, str, str, Tuple[str, ...], int], ...] = ()


@dataclass
class ReplayReport:
    """Everything one replay produced: the stream plus transport totals."""

    outcomes: List[UnitOutcome] = field(default_factory=list)
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dead_lettered: int = 0


def record_conformance_trace(
    *,
    n_peers: int = 200,
    workload: str = "uniform",
    queries: Optional[str] = None,
    faults: Optional[str] = "crash_storm:0.01:start=4:end=8",
    n_keys: int = 240,
    growth_units: int = 4,
    total_units: int = 10,
    load_fraction: float = 0.01,
    churn: ChurnModel = ChurnModel(join_fraction=0.01, leave_fraction=0.01),
    seed: int = 20080617,
) -> WorkloadTrace:
    """Record a ``repro-trace/1`` workload sized for conformance replay.

    The macro experiment pipeline does the recording (so the trace format
    and semantics are exactly what every other consumer sees); the corpus
    is truncated to ``n_keys`` so the live-socket replay stays tractable.
    """
    config = ExperimentConfig(
        n_peers=n_peers,
        corpus=grid_service_corpus()[:n_keys],
        workload=workload,
        queries=queries,
        faults=faults,
        growth_units=growth_units,
        total_units=total_units,
        load_fraction=load_fraction,
        churn=churn,
        seed=seed,
    )
    _, trace = record_single(config, meta={"purpose": "net-conformance"})
    trace.meta["n_bootstrap"] = n_peers
    return trace


def _draw_peer_id(rng: random.Random, taken) -> str:
    while True:
        pid = "".join(rng.choice(_ID_DIGITS) for _ in range(_ID_LENGTH))
        if pid not in taken:
            return pid


async def _replay(
    trace: WorkloadTrace, backend, n_bootstrap: Optional[int], capacity: int
) -> ReplayReport:
    """The one driver loop every leg runs: ``backend`` is a started
    :class:`~repro.net.cluster.LocalCluster` (sim, loopback, live socket)
    or :class:`~repro.net.procgroup.MultiProcessCluster`; it is closed on
    the way out."""
    try:
        if n_bootstrap is None:
            n_bootstrap = int(trace.meta.get("n_bootstrap", 0))
        if n_bootstrap < 1:
            raise ConformanceError("n_bootstrap must be >= 1 (set trace.meta['n_bootstrap'])")
        rng = random.Random(trace.seed ^ 0x5EED)
        report = ReplayReport()

        # Bootstrap population: ids drawn from the driver rng, identically
        # on every backend.
        for _ in range(n_bootstrap):
            await backend.join(_draw_peer_id(rng, backend.live_ids()), capacity)

        for unit_index, unit in enumerate(trace.units):
            for cap in unit.joins:
                await backend.join(_draw_peer_id(rng, backend.live_ids()), cap)

            leaves = 0
            for index in unit.leaves:
                ids = backend.live_ids()
                if len(ids) <= 1:
                    continue
                await backend.leave(ids[index % len(ids)])
                leaves += 1

            crashes = 0
            for event in unit.faults:
                kind = event[0]
                if kind != "crash":
                    raise ConformanceError(
                        f"unit {unit_index}: fault kind {kind!r} is not replayable "
                        "at the message level (crash only)"
                    )
                ids = backend.live_ids()
                if len(ids) <= 1:
                    continue
                await backend.crash(ids[event[1] % len(ids)])
                crashes += 1

            for key in unit.registrations:
                await backend.register(key)

            request_outcomes = []
            for key, entry_label in unit.requests:
                reply = await backend.discover(key, via=entry_label)
                if reply is None:
                    request_outcomes.append((key, False, None, 0))
                else:
                    request_outcomes.append(
                        (key, reply["found"], reply["host"], reply["hops"])
                    )

            query_outcomes = []
            for event in unit.queries:
                kind = event[0]
                lo = event[1]
                hi = event[2] if kind == "range" else ""
                entry_label = event[-1]
                if kind == "exact":
                    # The engine's scan walk serves exact probes as the
                    # degenerate range [key, key].
                    reply = await backend.search("range", lo, lo, via=entry_label)
                else:
                    reply = await backend.search(kind, lo, hi, via=entry_label)
                if reply is None:
                    query_outcomes.append((kind, lo, hi, (), 0))
                else:
                    query_outcomes.append(
                        (kind, lo, hi, tuple(reply["keys"]), reply["hops"])
                    )

            snap = await backend.snapshot()
            registered = tuple(
                sorted(label for label, filled in snap["hosted"].items() if filled)
            )
            report.outcomes.append(
                UnitOutcome(
                    unit=unit_index,
                    n_peers=len(snap["live"]),
                    n_nodes=len(snap["hosted"]),
                    keys=registered,
                    requests=tuple(request_outcomes),
                    joins=len(unit.joins),
                    leaves=leaves,
                    crashes=crashes,
                    queries=tuple(query_outcomes),
                )
            )

        totals = await backend.counters()
        report.messages_sent = sum(c["sent"] for c in totals)
        report.messages_delivered = sum(c["delivered"] for c in totals)
        report.messages_dead_lettered = sum(c["dead_lettered"] for c in totals)
        return report
    finally:
        await backend.close()


async def replay_trace(
    trace: WorkloadTrace,
    transport: Transport,
    *,
    n_bootstrap: Optional[int] = None,
    capacity: int = 10,
) -> ReplayReport:
    """Replay a recorded workload through one engine on ``transport``;
    returns the canonical outcome stream.

    ``n_bootstrap`` is the initial platform size (the trace records only
    the workload-side events; the bootstrap population comes from the
    recording's configuration and is stored in ``trace.meta``).
    """
    await transport.start()
    backend = LocalCluster(ProtocolEngine(transport=transport))
    return await _replay(trace, backend, n_bootstrap, capacity)


async def replay_trace_multiprocess(
    trace: WorkloadTrace,
    *,
    processes: int = 2,
    n_bootstrap: Optional[int] = None,
    capacity: int = 10,
    chaos=None,
) -> ReplayReport:
    """Replay a recorded workload through a multi-process ring: the same
    driver loop as :func:`replay_trace`, against a
    :class:`~repro.net.procgroup.MultiProcessCluster` — engine groups in
    separate OS processes exchanging protocol messages over peer-to-peer
    sockets.

    ``chaos`` (a :mod:`repro.net.chaos` plan/spec) injects seeded faults
    into every worker transport during the replay — with an
    outcome-preserving plan (delay/reorder) the canonical stream must
    *still* equal the oracle's.  Message totals are the summed per-group
    transport counters (higher than single-engine replays by exactly the
    locator replication traffic, so only the conservation invariant — not
    the totals — is comparable across topologies).
    """
    from .procgroup import MultiProcessCluster

    backend = MultiProcessCluster(processes=processes, chaos=chaos)
    await backend.start()
    return await _replay(trace, backend, n_bootstrap, capacity)


def diff_streams(a: List[UnitOutcome], b: List[UnitOutcome]) -> List[str]:
    """Human-readable differences between two canonical streams (empty
    when conformant) — the assertion message of the harness."""
    problems = []
    if len(a) != len(b):
        problems.append(f"stream lengths differ: {len(a)} vs {len(b)}")
    for left, right in zip(a, b):
        if left == right:
            continue
        for fname in ("n_peers", "n_nodes", "keys", "joins", "leaves", "crashes"):
            lv, rv = getattr(left, fname), getattr(right, fname)
            if lv != rv:
                problems.append(f"unit {left.unit}: {fname} {lv!r} != {rv!r}")
        for k, (lr, rr) in enumerate(zip(left.requests, right.requests)):
            if lr != rr:
                problems.append(f"unit {left.unit} request {k}: {lr!r} != {rr!r}")
        if len(left.requests) != len(right.requests):
            problems.append(
                f"unit {left.unit}: request counts {len(left.requests)} "
                f"!= {len(right.requests)}"
            )
        for k, (lq, rq) in enumerate(zip(left.queries, right.queries)):
            if lq != rq:
                problems.append(f"unit {left.unit} query {k}: {lq!r} != {rq!r}")
        if len(left.queries) != len(right.queries):
            problems.append(
                f"unit {left.unit}: query counts {len(left.queries)} "
                f"!= {len(right.queries)}"
            )
    return problems
