"""Workload specs: build any schedule from a string or dict.

``ExperimentConfig(workload=...)`` and the ``python -m repro run --workload``
CLI flag accept a compact spec instead of constructed objects, so every
scenario is reachable from a shell or a config file:

* ``"uniform"`` — uniform over the available keys;
* ``"zipf"`` / ``"zipf:1.2"`` — Zipf popularity, optional exponent;
* ``"hotspot:S3L"`` / ``"hotspot:S3L:0.8"`` — prefix hot spot, optional
  intensity;
* ``"figure8"`` / ``"figure8:0.8"`` — the paper's Figure 8 timeline;
* ``"flash_crowd:S3L:onset=40:peak=0.95:half_life=8:rate_surge=2"`` —
  a relaxing burst (:class:`repro.workloads.dynamics.FlashCrowd`);
* ``"diurnal:period=24:amplitude=0.5"`` — sinusoidal rate modulation;
* ``"adversarial:S3L"`` / ``"adversarial:S3L:s=1.5"`` — prefix stacking;
* a dict composes: ``{"kind": "mixed", "phases": [{"start": 0, "end": 40,
  "workload": "uniform"}, {"start": 40, "end": 80, "workload":
  "flash_crowd:S3L", "rate": 1.5}]}`` — and ``{"kind": "diurnal",
  "inner": <spec>, ...}`` nests any inner spec;
* an already-built generator or schedule object passes through (validated
  against the runtime-checkable protocols).

Every failure raises :class:`WorkloadSpecError` naming the offending spec —
validation happens when the config is parsed, not mid-simulation.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..util.specs import SpecError, register_spec_kind, spec_helpers, split_spec
from .dynamics import (
    AdversarialPrefixStacking,
    DiurnalSchedule,
    FlashCrowd,
    MixedSchedule,
    SchedulePhase,
    SteadySchedule,
    as_schedule,
)
from .requests import (
    HotSpotRequests,
    PhasedSchedule,
    UniformRequests,
    WorkloadSchedule,
    ZipfRequests,
    figure8_schedule,
    generator_name,
)

#: Workload spec kinds (string and dict forms).
WORKLOAD_KINDS = (
    "uniform", "zipf", "hotspot", "figure8",
    "flash_crowd", "diurnal", "adversarial", "mixed",
)


class WorkloadSpecError(SpecError):
    """A workload spec that cannot be parsed or validated."""


_number, _options, _apply = spec_helpers("workload spec", WorkloadSpecError)


def _parse_string(spec: str) -> object:
    kind, rest = split_spec(spec)
    if kind == "uniform":
        return UniformRequests()
    if kind == "zipf":
        s = _number(rest[0], spec) if rest else 1.0
        return _apply(ZipfRequests, {"s": s}, spec)
    if kind == "hotspot":
        if not rest:
            raise WorkloadSpecError(f"workload spec {spec!r}: hotspot needs a prefix")
        kwargs: Dict[str, Any] = {"prefix": rest[0]}
        if len(rest) > 1:
            kwargs["intensity"] = _number(rest[1], spec)
        return _apply(HotSpotRequests, kwargs, spec)
    if kind == "figure8":
        intensity = _number(rest[0], spec) if rest else 0.8
        return _apply(figure8_schedule, {"intensity": intensity}, spec)
    if kind == "flash_crowd":
        if not rest:
            raise WorkloadSpecError(f"workload spec {spec!r}: flash_crowd needs a prefix")
        kwargs = {"prefix": rest[0], **_options(rest[1:], spec)}
        return _apply(FlashCrowd, kwargs, spec)
    if kind == "diurnal":
        return _apply(DiurnalSchedule, dict(_options(rest, spec)), spec)
    if kind == "adversarial":
        if not rest:
            raise WorkloadSpecError(f"workload spec {spec!r}: adversarial needs a prefix")
        kwargs = {"prefix": rest[0], **_options(rest[1:], spec)}
        return _apply(AdversarialPrefixStacking, kwargs, spec)
    raise WorkloadSpecError(
        f"unknown workload kind {kind!r} in spec {spec!r} "
        f"(known kinds: {', '.join(WORKLOAD_KINDS)})"
    )


def _parse_dict(spec: Dict[str, Any]) -> object:
    kind = spec.get("kind")
    if kind == "mixed":
        raw_phases = spec.get("phases")
        if not raw_phases:
            raise WorkloadSpecError(f"mixed workload spec needs non-empty 'phases': {spec!r}")
        phases: List[SchedulePhase] = []
        for raw in raw_phases:
            try:
                phases.append(
                    SchedulePhase(
                        start=int(raw["start"]),
                        end=int(raw["end"]),
                        source=_parse_schedule(raw["workload"]),
                        rate=float(raw.get("rate", 1.0)),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise WorkloadSpecError(f"bad mixed phase {raw!r}: {exc}") from exc
        fallback = (
            _parse_schedule(spec["fallback"]) if "fallback" in spec else None
        )
        return _apply(MixedSchedule, {"phases": phases, "fallback": fallback}, str(spec))
    if kind == "diurnal":
        kwargs = {k: v for k, v in spec.items() if k not in ("kind", "inner")}
        if "inner" in spec:
            kwargs["inner"] = _parse_schedule(spec["inner"])
        return _apply(DiurnalSchedule, kwargs, str(spec))
    if kind in WORKLOAD_KINDS:
        # Generic form: {"kind": "flash_crowd", "prefix": "S3L", "onset": 40}
        factories = {
            "uniform": UniformRequests,
            "zipf": ZipfRequests,
            "hotspot": HotSpotRequests,
            "figure8": figure8_schedule,
            "flash_crowd": FlashCrowd,
            "adversarial": AdversarialPrefixStacking,
        }
        kwargs = {k: v for k, v in spec.items() if k != "kind"}
        return _apply(factories[kind], kwargs, str(spec))
    raise WorkloadSpecError(
        f"unknown workload kind {kind!r} in spec {spec!r} "
        f"(known kinds: {', '.join(WORKLOAD_KINDS)})"
    )


def _parse_schedule(spec: object) -> WorkloadSchedule:
    """Build and validate a :class:`WorkloadSchedule` from any spec form
    (the ``"workload"`` kind of :func:`repro.util.specs.parse_spec`).

    Accepts a spec string, a composing dict, a ready schedule, or a bare
    generator (wrapped into a steady schedule).  Raises
    :class:`WorkloadSpecError` with the offending spec on any problem.
    """
    if spec is None:
        built: object = UniformRequests()
    elif isinstance(spec, str):
        built = _parse_string(spec)
    elif isinstance(spec, dict):
        built = _parse_dict(spec)
    else:
        built = spec
    try:
        return as_schedule(built)
    except TypeError as exc:
        raise WorkloadSpecError(str(exc)) from exc


def workload_signature(obj: object) -> object:
    """Canonical, JSON-serialisable structure of a workload or schedule.

    Two workloads that draw the same request sequences produce equal
    signatures regardless of how they were built (spec string, dict, or
    constructed objects); any semantic parameter change — a prefix, an
    exponent, a phase boundary — changes the signature.  This is the
    workload component of the sweep result store's cell hash
    (:mod:`repro.sweeps`), so the structure must stay stable: extend it for
    new workload classes, never reorder or rename existing fields.

    Unknown generator types degrade to ``{"kind": "opaque", ...}`` keyed on
    their display name — correct only as far as the name encodes the
    parameters, which is why custom generators used in cached sweeps should
    carry a distinctive ``name``.
    """
    if isinstance(obj, UniformRequests):
        return {"kind": "uniform"}
    if isinstance(obj, ZipfRequests):
        # A custom seed_rng pins the hot-key ranking permutation, so it is
        # semantic: use the pristine-state fingerprint captured at
        # construction (live getstate() mutates with every draw, which
        # would shift a cell's hash mid-run) rather than collapsing
        # differently-seeded generators into one identity.
        return {"kind": "zipf", "s": obj.s, "seed_state": obj._seed_fingerprint}
    if isinstance(obj, HotSpotRequests):
        return {"kind": "hotspot", "prefix": obj.prefix, "intensity": obj.intensity}
    if isinstance(obj, AdversarialPrefixStacking):
        return {"kind": "adversarial", "prefix": obj.prefix, "s": obj.s}
    if isinstance(obj, SteadySchedule):
        return {"kind": "steady", "generator": workload_signature(obj.generator)}
    if isinstance(obj, PhasedSchedule):
        return {
            "kind": "phased",
            "phases": [
                {
                    "start": p.start,
                    "end": p.end,
                    "generator": workload_signature(p.generator),
                }
                for p in obj.phases
            ],
        }
    if isinstance(obj, FlashCrowd):
        return {
            "kind": "flash_crowd",
            "prefix": obj.prefix,
            "onset": obj.onset,
            "peak": obj.peak,
            "half_life": obj.half_life,
            "rate_surge": obj.rate_surge,
            "zipf_s": obj._zipf.s,
            "base": workload_signature(obj.base),
        }
    if isinstance(obj, DiurnalSchedule):
        return {
            "kind": "diurnal",
            "period": obj.period,
            "amplitude": obj.amplitude,
            "peak_unit": obj.peak_unit,
            "inner": workload_signature(obj.inner),
        }
    if isinstance(obj, MixedSchedule):
        # Sign the as_schedule-normalised sources (what the runtime draws
        # from), not the raw ones: a phase built from a bare generator and
        # one built from its SteadySchedule wrapping behave identically
        # and must share a signature.
        return {
            "kind": "mixed",
            "phases": [
                {
                    "start": p.start,
                    "end": p.end,
                    "rate": p.rate,
                    "source": workload_signature(schedule),
                }
                for p, schedule in zip(obj.phases, obj._schedules)
            ],
            "fallback": workload_signature(obj._fallback),
        }
    return {
        "kind": "opaque",
        "type": type(obj).__name__,
        "name": generator_name(obj),
    }


register_spec_kind("workload", _parse_schedule, workload_signature)
