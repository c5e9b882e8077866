"""Fault specs: build any fault plan from a string or dict.

``ExperimentConfig(faults=...)`` and the ``python -m repro run --faults``
CLI flag accept a compact spec instead of constructed objects, mirroring
the workload specs of :mod:`repro.workloads.spec`; the kinds are one table
of the shared grammar (:class:`repro.util.specs.Grammar`):

* ``"crash_storm:0.02"`` — each peer crashes with probability 2% per unit;
  optional ``start=``/``end=`` bound the storm window;
* ``"correlated:0.3@40"`` — 30% of the peers crash simultaneously at
  unit 40;
* ``"partition:8@40"`` / ``"partition:8@40:fraction=0.25"`` — a contiguous
  ring arc is unreachable for 8 units starting at unit 40;
* the top level of a spec also takes the policy options ``r=N``
  (successor-replication factor, 0 disables) and ``repair_every=N``
  (repair cadence in units);
* a dict names the same fields (``{"kind": "correlated", "fraction": 0.3,
  "at": 40}``) and composes phases, like mixed workloads: ``{"kind":
  "mixed", "phases": [{"start": 10, "end": 30, "faults":
  "crash_storm:0.05"}, {"start": 30, "end": 40, "faults":
  "partition:5@32"}], "r": 2}`` — a phase takes no policy options;
* an already-built :class:`~repro.faults.schedules.FaultPlan` or bare
  schedule passes through (the latter wrapped with the default policy).

Every failure raises :class:`FaultSpecError` naming the offending spec —
validation happens when the config is parsed, not mid-simulation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..util.specs import Grammar, Kind, SpecError, register_spec_kind
from .schedules import (
    CorrelatedCrash,
    CrashStorm,
    FaultPhase,
    FaultPlan,
    FaultSchedule,
    MixedFaults,
    PartitionSchedule,
)

#: The policy options a spec takes at its top level only, and the
#: :class:`FaultPlan` fields they set.
_POLICY = {"r": "replication", "repair_every": "repair_every"}


class FaultSpecError(SpecError):
    """A fault spec that cannot be parsed or validated."""


def _mixed(phases: Sequence[dict] = ()) -> MixedFaults:
    """The ``mixed`` kind: phases of nested fault specs."""
    if not phases:
        raise ValueError("mixed fault spec needs non-empty 'phases'")
    built: List[FaultPhase] = []
    for raw in phases:
        try:
            built.append(FaultPhase(int(raw["start"]), int(raw["end"]), _schedule(raw["faults"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad mixed fault phase {raw!r}: {exc}") from exc
    return MixedFaults(built)


_KINDS = Grammar("fault spec", FaultSpecError, {
    "crash_storm": Kind(CrashStorm, "rate", 1),
    "correlated": Kind(CorrelatedCrash, "fraction@at", 2),
    "partition": Kind(PartitionSchedule, "duration@at", 1),
    "mixed": Kind(_mixed),
}, shared=tuple(_POLICY))

#: Fault spec kinds (string and dict forms).
FAULT_KINDS = tuple(_KINDS.kinds)


def _schedule(spec: object) -> FaultSchedule:
    """A phase's schedule: a built one, or a spec without policy options."""
    return spec if isinstance(spec, FaultSchedule) else _KINDS.parse(spec)


def _parse_plan(spec: object) -> Optional[FaultPlan]:
    """Build and validate a :class:`FaultPlan` from any spec form (the
    ``"faults"`` kind of :func:`repro.util.specs.parse_spec`).

    ``None`` passes through (no faults); a ready plan is returned as-is; a
    bare schedule is wrapped with the default policy (``r=1``,
    ``repair_every=1``).  Raises :class:`FaultSpecError` with the offending
    spec on any problem.
    """
    if spec is None or isinstance(spec, FaultPlan):
        return spec
    if isinstance(spec, FaultSchedule):
        return FaultPlan(spec)
    kind, fields = _KINDS.fields(spec)
    policy = {field: fields.pop(opt) for opt, field in _POLICY.items() if opt in fields}
    schedule = _KINDS.build(kind, fields, spec)
    try:
        return FaultPlan(schedule, **{k: int(v) for k, v in policy.items()})
    except (TypeError, ValueError) as exc:
        raise _KINDS.error(spec, str(exc)) from exc


def _schedule_signature(schedule: FaultSchedule) -> Dict[str, Any]:
    if isinstance(schedule, CrashStorm):
        return {
            "kind": "crash_storm",
            "rate": schedule.rate,
            "start": schedule.start,
            "end": schedule.end,
        }
    if isinstance(schedule, CorrelatedCrash):
        return {"kind": "correlated", "fraction": schedule.fraction, "at": schedule.at}
    if isinstance(schedule, PartitionSchedule):
        return {
            "kind": "partition",
            "duration": schedule.duration,
            "at": schedule.at,
            "fraction": schedule.fraction,
        }
    if isinstance(schedule, MixedFaults):
        return {
            "kind": "mixed",
            "phases": [
                {
                    "start": p.start,
                    "end": p.end,
                    "schedule": _schedule_signature(p.schedule),
                }
                for p in schedule.phases
            ],
        }
    return {
        "kind": "opaque",
        "type": type(schedule).__name__,
        "name": getattr(schedule, "name", type(schedule).__name__),
    }


def faults_signature(plan: Optional[FaultPlan]) -> Optional[Dict[str, Any]]:
    """Canonical, JSON-serialisable structure of a fault plan (``None`` for
    fault-free configs).

    The fault component of the sweep store's cell hash: two plans that
    inject the same faults under the same policy produce equal signatures;
    any semantic change — a rate, a window, the replication factor —
    changes it.  Like :func:`repro.workloads.spec.workload_signature`,
    unknown schedule classes degrade to their display name.
    """
    if plan is None:
        return None
    return {
        "schedule": _schedule_signature(plan.schedule),
        "replication": plan.replication,
        "repair_every": plan.repair_every,
    }


register_spec_kind("faults", _parse_plan, faults_signature)
