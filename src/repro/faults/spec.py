"""Fault specs: build any fault plan from a string or dict.

``ExperimentConfig(faults=...)`` and the ``python -m repro run --faults``
CLI flag accept a compact spec instead of constructed objects, mirroring
the workload specs of :mod:`repro.workloads.spec`:

* ``"crash_storm:0.02"`` — each peer crashes with probability 2% per unit;
  optional ``start=``/``end=`` bound the storm window;
* ``"correlated:0.3@40"`` — 30% of the peers crash simultaneously at
  unit 40;
* ``"partition:8@40"`` / ``"partition:8@40:fraction=0.25"`` — a contiguous
  ring arc is unreachable for 8 units starting at unit 40;
* every kind accepts the policy options ``r=N`` (successor-replication
  factor, 0 disables) and ``repair_every=N`` (repair cadence in units);
* a dict composes phases, like mixed workloads: ``{"kind": "mixed",
  "phases": [{"start": 10, "end": 30, "faults": "crash_storm:0.05"},
  {"start": 30, "end": 40, "faults": "partition:5@32"}], "r": 2}`` —
  policy options live at the top level only;
* an already-built :class:`~repro.faults.schedules.FaultPlan` or bare
  schedule passes through (the latter wrapped with the default policy).

Every failure raises :class:`FaultSpecError` naming the offending spec —
validation happens when the config is parsed, not mid-simulation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..util.specs import SpecError, register_spec_kind, spec_helpers, split_spec
from .schedules import (
    CorrelatedCrash,
    CrashStorm,
    FaultPhase,
    FaultPlan,
    FaultSchedule,
    MixedFaults,
    PartitionSchedule,
)

#: Fault spec kinds (string and dict forms).
FAULT_KINDS = ("crash_storm", "correlated", "partition", "mixed")

#: Options that configure the response policy rather than the schedule.
_POLICY_OPTIONS = ("r", "repair_every")


class FaultSpecError(SpecError):
    """A fault spec that cannot be parsed or validated."""


_number, _options, _apply = spec_helpers("fault spec", FaultSpecError)


def _split_policy(
    options: Dict[str, float], spec: object, allow_policy: bool
) -> Tuple[Dict[str, Any], Dict[str, int]]:
    """Separate schedule options from policy options (``r``,
    ``repair_every``); policy options are only legal at the top level."""
    schedule_opts = {k: v for k, v in options.items() if k not in _POLICY_OPTIONS}
    policy = {k: int(v) for k, v in options.items() if k in _POLICY_OPTIONS}
    if policy and not allow_policy:
        raise FaultSpecError(
            f"fault spec {spec!r}: policy options {sorted(policy)} are only "
            "allowed at the top level, not inside mixed phases"
        )
    return schedule_opts, policy


def _at_value(token: str, spec: str) -> Tuple[float, Optional[int]]:
    """Parse a ``VALUE[@UNIT]`` positional token."""
    value_text, sep, at_text = token.partition("@")
    value = _number(value_text, spec)
    if not sep:
        return value, None
    at = _number(at_text, spec)
    if at != int(at):
        raise FaultSpecError(f"fault spec {spec!r}: unit {at_text!r} must be an integer")
    return value, int(at)


def _parse_string(spec: str, allow_policy: bool) -> Tuple[FaultSchedule, Dict[str, int]]:
    kind, rest = split_spec(spec)
    if kind == "crash_storm":
        if not rest:
            raise FaultSpecError(f"fault spec {spec!r}: crash_storm needs a rate")
        rate = _number(rest[0], spec)
        opts, policy = _split_policy(_options(rest[1:], spec), spec, allow_policy)
        kwargs: Dict[str, Any] = {"rate": rate}
        for key in ("start", "end"):
            if key in opts:
                kwargs[key] = int(opts.pop(key))
        if opts:
            raise FaultSpecError(
                f"fault spec {spec!r}: unknown option(s) {sorted(opts)}"
            )
        return _apply(CrashStorm, kwargs, spec), policy
    if kind == "correlated":
        if not rest:
            raise FaultSpecError(
                f"fault spec {spec!r}: correlated needs fraction@unit"
            )
        fraction, at = _at_value(rest[0], spec)
        if at is None:
            raise FaultSpecError(
                f"fault spec {spec!r}: correlated needs a unit, e.g. correlated:0.3@40"
            )
        opts, policy = _split_policy(_options(rest[1:], spec), spec, allow_policy)
        if opts:
            raise FaultSpecError(
                f"fault spec {spec!r}: unknown option(s) {sorted(opts)}"
            )
        return _apply(CorrelatedCrash, {"fraction": fraction, "at": at}, spec), policy
    if kind == "partition":
        if not rest:
            raise FaultSpecError(
                f"fault spec {spec!r}: partition needs a duration, e.g. partition:8@40"
            )
        duration, at = _at_value(rest[0], spec)
        if duration != int(duration):
            raise FaultSpecError(
                f"fault spec {spec!r}: duration must be an integer number of units"
            )
        opts, policy = _split_policy(_options(rest[1:], spec), spec, allow_policy)
        kwargs = {"duration": int(duration), "at": at if at is not None else 0}
        if "fraction" in opts:
            kwargs["fraction"] = opts.pop("fraction")
        if opts:
            raise FaultSpecError(
                f"fault spec {spec!r}: unknown option(s) {sorted(opts)}"
            )
        return _apply(PartitionSchedule, kwargs, spec), policy
    raise FaultSpecError(
        f"unknown fault kind {kind!r} in spec {spec!r} "
        f"(known kinds: {', '.join(FAULT_KINDS)})"
    )


def _parse_dict(spec: Dict[str, Any], allow_policy: bool) -> Tuple[FaultSchedule, Dict[str, int]]:
    kind = spec.get("kind")
    if kind == "mixed":
        raw_phases = spec.get("phases")
        if not raw_phases:
            raise FaultSpecError(f"mixed fault spec needs non-empty 'phases': {spec!r}")
        phases: List[FaultPhase] = []
        for raw in raw_phases:
            try:
                schedule, _ = _parse_schedule(raw["faults"], allow_policy=False)
                phases.append(
                    FaultPhase(start=int(raw["start"]), end=int(raw["end"]), schedule=schedule)
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise FaultSpecError(f"bad mixed fault phase {raw!r}: {exc}") from exc
        policy = {
            k: int(spec[k]) for k in _POLICY_OPTIONS if k in spec
        }
        if policy and not allow_policy:
            raise FaultSpecError(
                f"fault spec {spec!r}: policy options {sorted(policy)} are only "
                "allowed at the top level, not inside mixed phases"
            )
        return _apply(MixedFaults, {"phases": phases}, spec), policy
    if kind in FAULT_KINDS:
        # Generic form: {"kind": "crash_storm", "rate": 0.05, "r": 2}.
        factories = {
            "crash_storm": CrashStorm,
            "correlated": CorrelatedCrash,
            "partition": PartitionSchedule,
        }
        kwargs = {k: v for k, v in spec.items() if k != "kind"}
        policy = {k: int(kwargs.pop(k)) for k in _POLICY_OPTIONS if k in kwargs}
        if policy and not allow_policy:
            raise FaultSpecError(
                f"fault spec {spec!r}: policy options {sorted(policy)} are only "
                "allowed at the top level, not inside mixed phases"
            )
        return _apply(factories[kind], kwargs, spec), policy
    raise FaultSpecError(
        f"unknown fault kind {kind!r} in spec {spec!r} "
        f"(known kinds: {', '.join(FAULT_KINDS)})"
    )


def _parse_schedule(spec: object, allow_policy: bool) -> Tuple[FaultSchedule, Dict[str, int]]:
    if isinstance(spec, str):
        return _parse_string(spec, allow_policy)
    if isinstance(spec, dict):
        return _parse_dict(spec, allow_policy)
    if isinstance(spec, FaultSchedule):
        return spec, {}
    raise FaultSpecError(
        f"{spec!r} is not a fault spec (string, dict, FaultSchedule or FaultPlan)"
    )


def _parse_plan(spec: object) -> Optional[FaultPlan]:
    """Build and validate a :class:`FaultPlan` from any spec form (the
    ``"faults"`` kind of :func:`repro.util.specs.parse_spec`).

    ``None`` passes through (no faults); a ready plan is returned as-is; a
    bare schedule is wrapped with the default policy (``r=1``,
    ``repair_every=1``).  Raises :class:`FaultSpecError` with the offending
    spec on any problem.
    """
    if spec is None:
        return None
    if isinstance(spec, FaultPlan):
        return spec
    schedule, policy = _parse_schedule(spec, allow_policy=True)
    kwargs: Dict[str, int] = {}
    if "r" in policy:
        kwargs["replication"] = policy["r"]
    if "repair_every" in policy:
        kwargs["repair_every"] = policy["repair_every"]
    return _apply(FaultPlan, {"schedule": schedule, **kwargs}, spec)


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
