"""Declarative fault schedules (extension; the paper defers fault handling).

A fault schedule describes *when* faults strike, separately from how the
system responds (replication factor and repair cadence — the policy half of
a :class:`FaultPlan`).  Schedules expose two channels:

* :meth:`~FaultSchedule.timed_events` — deterministic one-shot events
  (a correlated crash burst at unit ``t``, a partition opening at ``t`` and
  healing ``duration`` units later).  The injector sorts these by unit
  once (stably: same-unit events fire in the schedule's order), and each
  unit takes the ones that have come due.
* :meth:`~FaultSchedule.crash_rate` — the per-peer, per-unit crash
  probability of rate-based schedules (crash storms); the injector turns
  it into an integral crash count by stochastic rounding, mirroring the
  churn models.

:class:`MixedFaults` splices schedules over ``[start, end)`` phases exactly
like :class:`repro.workloads.dynamics.MixedSchedule` splices workloads: both
are lists of one phase record, :class:`repro.workloads.dynamics.Phase`,
checked and looked up per unit by the same two functions, so scenario
timelines compose across both axes (a crash storm during a flash crowd, a
partition during the recovery window, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Protocol, Sequence, Tuple, runtime_checkable

from ..workloads.dynamics import Phase, phase_at, sort_and_check_phases, whole_units


@dataclass(frozen=True)
class CrashBurst:
    """One-shot event: crash ``fraction`` of the current population now."""

    fraction: float

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("crash fraction must be in (0, 1)")


@dataclass(frozen=True)
class PartitionStart:
    """One-shot event: a contiguous ring arc covering ``fraction`` of the
    peers becomes unreachable for ``duration`` units."""

    fraction: float
    duration: int

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("partition fraction must be in (0, 1)")
        if self.duration < 1:
            raise ValueError("partition duration must be >= 1")


@runtime_checkable
class FaultSchedule(Protocol):
    """What the injector needs from any fault schedule."""

    def timed_events(self) -> List[Tuple[int, object]]:
        """Deterministic ``(unit, event)`` one-shots, any order."""
        ...  # pragma: no cover - protocol

    def crash_rate(self, unit: int) -> float:
        """Per-peer crash probability during ``unit`` (0.0 = no storm)."""
        ...  # pragma: no cover - protocol


class CrashStorm:
    """Fail-stop churn: every unit in ``[start, end)`` each peer crashes
    with probability ``rate`` (expected ``rate * population`` crashes)."""

    def __init__(self, rate: float, start: int = 0, end: int | None = None) -> None:
        if not 0.0 < rate < 1.0:
            raise ValueError("crash rate must be in (0, 1)")
        start = whole_units(start, "start")
        end = None if end is None else whole_units(end, "end")
        if start < 0:
            raise ValueError("start must be >= 0")
        if end is not None and end <= start:
            raise ValueError("end must be > start")
        self.rate = rate
        self.start = start
        self.end = end
        self.name = f"crash_storm:{rate:g}"

    def timed_events(self) -> List[Tuple[int, object]]:
        return []

    def crash_rate(self, unit: int) -> float:
        if unit < self.start or (self.end is not None and unit >= self.end):
            return 0.0
        return self.rate


class CorrelatedCrash:
    """A single correlated failure: ``fraction`` of the peers crash
    simultaneously at unit ``at`` (rack loss, a buggy rollout)."""

    def __init__(self, fraction: float, at: int) -> None:
        at = whole_units(at, "crash unit")
        if at < 0:
            raise ValueError("crash unit must be >= 0")
        self._burst = CrashBurst(fraction)  # validates the fraction
        self.fraction = fraction
        self.at = at
        self.name = f"correlated:{fraction:g}@{at}"

    def timed_events(self) -> List[Tuple[int, object]]:
        return [(self.at, self._burst)]

    def crash_rate(self, unit: int) -> float:
        return 0.0


class PartitionSchedule:
    """A network partition: a contiguous arc of the ring (``fraction`` of
    the peers) is unreachable from unit ``at`` for ``duration`` units, then
    heals.  Partitioned peers keep their nodes and data — requests charged
    to them are dropped, not lost."""

    def __init__(self, duration: int, at: int = 0, fraction: float = 0.25) -> None:
        duration, at = whole_units(duration, "duration"), whole_units(at, "partition start")
        if at < 0:
            raise ValueError("partition start must be >= 0")
        self._start = PartitionStart(fraction, duration)  # validates both
        self.duration = duration
        self.at = at
        self.fraction = fraction
        self.name = f"partition:{duration}@{at}"

    def timed_events(self) -> List[Tuple[int, object]]:
        return [(self.at, self._start)]

    def crash_rate(self, unit: int) -> float:
        return 0.0


def _check_schedule(schedule: object) -> None:
    if not isinstance(schedule, FaultSchedule):
        raise TypeError(
            f"{schedule!r} does not implement FaultSchedule "
            "(needs timed_events() and crash_rate(unit))"
        )


class MixedFaults:
    """Splice fault schedules over phases — the fault-axis twin of
    :class:`repro.workloads.dynamics.MixedSchedule`, on the same
    :class:`~repro.workloads.dynamics.Phase` records.

    Sub-schedules see absolute unit indices; their one-shot events are kept
    only when they fall inside the phase window, and their crash rates apply
    only while the phase is active.  Units outside every phase are
    fault-free.  A phase's schedule sets its crash rate, so a phase takes
    no ``rate`` multiplier.
    """

    def __init__(self, phases: Sequence[Phase]) -> None:
        if not phases:
            raise ValueError("MixedFaults needs at least one phase")
        self.phases = sort_and_check_phases(phases)
        for phase in self.phases:
            _check_schedule(phase.schedule)
            if phase.rate != 1.0:
                raise ValueError("a fault phase takes no rate")
        self.name = "mixed-faults[" + ",".join(
            getattr(p.schedule, "name", type(p.schedule).__name__) for p in self.phases
        ) + "]"

    def timed_events(self) -> List[Tuple[int, object]]:
        return [
            (unit, event)
            for phase in self.phases
            for unit, event in phase.schedule.timed_events()
            if phase_at(self.phases, unit) is phase
        ]

    def crash_rate(self, unit: int) -> float:
        phase = phase_at(self.phases, unit)
        return 0.0 if phase is None else phase.schedule.crash_rate(unit)


@dataclass(frozen=True)
class FaultPlan:
    """A full fault axis: when faults strike + how the system responds.

    ``replication`` is the successor-replication factor ``r`` (0 disables
    replication: crashes lose data for good); ``repair_every`` is the
    repair cadence in units — 1 repairs in the same unit as the damage,
    larger values batch repairs and make time-to-repair a real
    distribution.  The runner forces a repair before any registration batch
    touches a damaged tree, so deferred repair never corrupts growth.
    """

    schedule: FaultSchedule
    replication: int = 1
    repair_every: int = 1

    def __post_init__(self) -> None:
        if self.replication < 0:
            raise ValueError("replication factor must be >= 0")
        if self.repair_every < 1:
            raise ValueError("repair_every must be >= 1")
        _check_schedule(self.schedule)
