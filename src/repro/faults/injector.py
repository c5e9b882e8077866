"""The fault injector: timed fault events applied to a live system.

One :class:`FaultInjector` accompanies one simulation run.  At construction
it sorts the deterministic one-shots of the fault plan (correlated crash
bursts, partition openings) by unit.  Each time unit the runner takes the
unit's fault records — from :meth:`FaultInjector.draw` on a live run, which
takes the one-shots that have come due and draws the rate-based storm
crashes, or from the replayed trace — and hands them to
:meth:`FaultInjector.begin_unit`, which applies them to the system
(fail-stop crashes via :func:`repro.dlpt.failures.crash_peer`, partitions by
exhausting the affected peers' capacity budget for the unit), runs the
repair policy, and accounts the availability/durability metrics into the
unit's :class:`~repro.experiments.metrics.UnitStats`.

Fault events are *workload-side* randomness: a record names its victims as
ring-position draws, like churn departures, and lands in the unit's
``repro-trace/1`` record with the rest of the workload.  A fault trace
replayed under a different balancer, mapping or replication policy
therefore drives identical faults into a different system.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Set, Tuple

from ..dlpt.failures import ReplicationManager, crash_peer, repair
from ..dlpt.system import DLPTSystem
from .schedules import CrashBurst, FaultPlan, PartitionStart


class _NoSchedule:
    """An empty schedule: the injector only re-applies trace events."""

    name = "replay"

    def timed_events(self) -> List[Tuple[int, object]]:
        return []

    def crash_rate(self, unit: int) -> float:
        return 0.0


#: Policy used when a fault-bearing trace is replayed under a config with
#: no fault axis of its own: the recorded events are applied, the tree is
#: repaired every unit from survivors, and nothing is replicated.
REPLAY_POLICY_PLAN = FaultPlan(schedule=_NoSchedule(), replication=0, repair_every=1)


def _stochastic_round(x: float, rng) -> int:
    """Round ``x`` to an integer with expectation exactly ``x`` (the churn
    models' convention, repeated here so fault rates compose identically)."""
    base = int(x)
    frac = x - base
    return base + (1 if frac > 0 and rng.random() < frac else 0)


class FaultInjector:
    """Applies one fault plan to one system, one time unit at a time.

    Parameters
    ----------
    plan:
        The fault axis: schedule + replication factor + repair cadence.
    system:
        The live :class:`~repro.dlpt.system.DLPTSystem` under test.
    rng:
        The dedicated ``"faults"`` RNG stream — fault draws never perturb
        the workload or churn streams, so a fault-free config simulates
        bit-identically to a build without this subsystem.
    """

    def __init__(self, plan: FaultPlan, system: DLPTSystem, rng) -> None:
        self.plan = plan
        self.system = system
        self.rng = rng
        self.replication: Optional[ReplicationManager] = (
            ReplicationManager(system, factor=plan.replication)
            if plan.replication > 0
            else None
        )
        #: The plan's pending one-shots in firing order: by unit, ties in
        #: the schedule's own order (the sort is stable).
        self._timed = deque(
            sorted(plan.schedule.timed_events(), key=lambda timed: timed[0])
        )
        #: Keys destroyed since the last repair pass.
        self._pending_lost: Set[str] = set()
        #: Units of damaging crashes awaiting repair (time-to-repair input).
        self._pending_crash_units: List[int] = []
        self._damaged = False
        #: Active partitions: ``(heal_unit, peer set)``.  Members are
        #: :class:`Peer` objects, not ring ids: MLT renames peers when it
        #: rebalances, and a partition must keep holding a renamed peer.
        self._partitions: List[Tuple[int, Set[object]]] = []

    # -- per-unit driving ---------------------------------------------------

    def begin_unit(self, unit: int, stats, records: List[list]) -> None:
        """Run the fault step of one time unit: apply the unit's fault
        records, repair if the cadence is due, and enforce active
        partitions."""
        for record in records:
            kind = record[0]
            if kind == "crash":
                self._apply_crash(int(record[1]), unit, stats)
            elif kind == "partition":
                self._apply_partition(
                    int(record[1]), int(record[2]), int(record[3]), unit
                )
            else:
                raise ValueError(f"unknown fault event record {record!r}")
        self.maybe_repair(unit, stats)
        self._enforce_partitions(unit, stats)

    def before_registrations(self, unit: int, stats) -> None:
        """Force a repair before the tree grows: registering into a crash-
        damaged forest is undefined (a surviving orphan could collide with
        the insertion path), so deferred repair yields to growth."""
        if self._damaged:
            self.maybe_repair(unit, stats, force=True)

    def on_registered(self, key: str) -> None:
        """A key was (re)registered through the runner: refresh its replicas."""
        if self.replication is not None:
            self.replication.replicate_key(key)

    def on_peer_departed(self, peer) -> None:
        """A peer left gracefully (churn): its replica store dies with it.
        ``peer`` is the departed :class:`Peer` object (an O(1) store drop;
        a bare ring id also works but pays a scan).  Partition membership
        needs no cleanup — departed peers fail the liveness check in
        :meth:`_enforce_partitions`."""
        if self.replication is not None:
            self.replication.on_peer_removed(peer)

    # -- event generation ---------------------------------------------------

    def draw(self, unit: int) -> List[list]:
        """This unit's concrete fault events as JSON-able trace records."""
        events = []
        while self._timed and self._timed[0][0] <= unit:
            events.append(self._timed.popleft()[1])
        records: List[list] = []
        n = len(self.system.ring)
        drawn = 0

        def crash_draws(count: int) -> None:
            nonlocal drawn
            for _ in range(count):
                if drawn >= n - 1:  # never empty the ring
                    return
                records.append(["crash", self.rng.randrange(max(n - drawn, 1))])
                drawn += 1

        for event in events:
            if isinstance(event, CrashBurst):
                crash_draws(max(1, round(event.fraction * n)))
            elif isinstance(event, PartitionStart):
                count = min(max(1, round(event.fraction * n)), n)
                records.append(
                    ["partition", self.rng.randrange(n), count, event.duration]
                )
        crash_draws(_stochastic_round(self.plan.schedule.crash_rate(unit) * n, self.rng))
        return records

    # -- event application --------------------------------------------------

    def _apply_crash(self, index: int, unit: int, stats) -> None:
        ring = self.system.ring
        if len(ring) <= 1:
            return  # the overlay is undefined without peers
        victim = ring.id_at(index % len(ring))
        victim_peer = ring.peer(victim)
        report = crash_peer(self.system, victim)
        if self.replication is not None:
            self.replication.on_peer_removed(victim_peer)
        stats.crashes += 1
        stats.keys_lost += len(report.lost_keys)
        self._pending_lost |= report.lost_keys
        if report.lost_nodes:
            self._damaged = True
            self._pending_crash_units.append(unit)

    def _apply_partition(self, start: int, count: int, duration: int, unit: int) -> None:
        ring = self.system.ring
        n = len(ring)
        peers = {ring.peer(ring.id_at((start + i) % n)) for i in range(min(count, n))}
        self._partitions.append((unit + duration, peers))

    # -- repair policy ------------------------------------------------------

    def maybe_repair(self, unit: int, stats, force: bool = False) -> None:
        """Repair the tree when damage is pending and the cadence is due
        (every ``repair_every`` units), or unconditionally when forced."""
        if not self._damaged:
            return
        if not force and (unit + 1) % self.plan.repair_every != 0:
            return
        report = repair(
            self.system, self.replication, lost_keys=frozenset(self._pending_lost)
        )
        stats.keys_recovered += report.recovered_from_replicas
        stats.keys_unrecoverable += len(report.unrecoverable_keys)
        stats.repair_cost += report.reinserted_keys
        for crash_unit in self._pending_crash_units:
            delay = unit - crash_unit
            stats.ttr_histogram[delay] = stats.ttr_histogram.get(delay, 0) + 1
        self._pending_lost.clear()
        self._pending_crash_units.clear()
        self._damaged = False

    # -- partitions ---------------------------------------------------------

    def _enforce_partitions(self, unit: int, stats) -> None:
        """Heal expired partitions and exhaust the capacity budget of every
        still-partitioned live peer, so every request charged to it this
        unit is dropped — unreachable, not destroyed."""
        self._partitions = [(heal, peers) for heal, peers in self._partitions if heal > unit]
        ring = self.system.ring
        saturated: Set[object] = set()
        for _, peers in self._partitions:
            for peer in peers:
                # Live = this very object still sits on the ring under its
                # (possibly rebalanced) current id; crashed and departed
                # peers fail the identity check.
                if peer not in saturated and peer.id in ring and ring.peer(peer.id) is peer:
                    saturated.add(peer)
                    peer.used = peer.capacity
        stats.partitioned += len(saturated)
