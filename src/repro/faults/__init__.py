"""Fault injection: declarative fault schedules, policies, and the injector.

The paper's protocol handles *graceful* departure only and its conclusion
defers fault handling to future tuning on a real grid.  This package
promotes failures to a first-class experiment axis on top of the crash /
replication / repair primitives of :mod:`repro.dlpt.failures`:

* :mod:`repro.faults.schedules` — declarative fault schedules (crash
  storms, correlated crash bursts, network partitions, phase-spliced
  mixes) emitting timed one-shot events and per-unit crash rates; a
  :class:`MixedFaults` timeline is a list of the workloads' one phase
  record, :class:`repro.workloads.Phase`;
* :mod:`repro.faults.spec` — compact spec strings/dicts
  (``"crash_storm:0.02:r=2"``) with parse-time validation and the
  canonical ``faults_signature`` the sweep store hashes;
* :mod:`repro.faults.injector` — the :class:`FaultInjector` the
  experiment runner drives once per time unit: it applies crash and
  partition events, runs the repair policy, and accounts availability /
  durability metrics.
"""

from .injector import FaultInjector, REPLAY_POLICY_PLAN
from .schedules import (
    CorrelatedCrash,
    CrashBurst,
    CrashStorm,
    FaultPlan,
    FaultSchedule,
    MixedFaults,
    PartitionSchedule,
    PartitionStart,
)
from .spec import FAULT_KINDS, FaultSpecError, faults_signature

__all__ = [
    "CorrelatedCrash",
    "CrashBurst",
    "CrashStorm",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSchedule",
    "FaultSpecError",
    "MixedFaults",
    "PartitionSchedule",
    "PartitionStart",
    "REPLAY_POLICY_PLAN",
    "faults_signature",
]
