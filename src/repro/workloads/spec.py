"""Workload specs: build any schedule from a string or dict.

``ExperimentConfig(workload=...)`` and the ``python -m repro run --workload``
CLI flag accept a compact spec instead of constructed objects, so every
scenario is reachable from a shell or a config file.  The kinds are one
table of the shared grammar (:class:`repro.util.specs.Grammar`):

* ``"uniform"`` — uniform over the available keys;
* ``"zipf"`` / ``"zipf:1.2"`` — Zipf popularity, optional exponent;
* ``"hotspot:S3L"`` / ``"hotspot:S3L:0.8"`` — prefix hot spot, optional
  intensity;
* ``"figure8"`` / ``"figure8:0.8"`` — the paper's Figure 8 timeline;
* ``"flash_crowd:S3L:onset=40:peak=0.95:half_life=8:rate_surge=2"`` —
  a relaxing burst (:class:`repro.workloads.dynamics.FlashCrowd`);
* ``"diurnal:period=24:amplitude=0.5"`` — sinusoidal rate modulation;
* ``"adversarial:S3L"`` / ``"adversarial:S3L:s=1.5"`` — prefix stacking;
* a dict names the same fields (``{"kind": "zipf", "s": 1.2}``) and
  composes: ``{"kind": "mixed", "phases": [{"start": 0, "end": 40,
  "workload": "uniform"}, {"start": 40, "end": 80, "workload":
  "flash_crowd:S3L", "rate": 1.5}]}`` — and ``{"kind": "diurnal",
  "inner": <spec>, ...}`` nests any inner spec;
* an already-built generator or schedule object passes through (validated
  against the runtime-checkable protocols).

Every failure raises :class:`WorkloadSpecError` naming the offending spec —
validation happens when the config is parsed, not mid-simulation.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from ..util.specs import Grammar, Kind, SpecError, register_spec_kind
from .dynamics import (
    AdversarialPrefixStacking,
    DiurnalSchedule,
    FlashCrowd,
    MixedSchedule,
    Phase,
    PhasedSchedule,
    SteadySchedule,
    as_schedule,
    figure8_schedule,
)
from .requests import (
    HotSpotRequests,
    UniformRequests,
    WorkloadSchedule,
    ZipfRequests,
    generator_name,
)


class WorkloadSpecError(SpecError):
    """A workload spec that cannot be parsed or validated."""


def read_phases(phases: Sequence[dict], field: str, parse: Callable[[object], object],
                label: str) -> List[Phase]:
    """The ``phases`` list of a ``mixed`` spec as :class:`Phase` records —
    the one reader of both ``mixed`` kinds (workloads here, faults in
    :mod:`repro.faults.spec`).  Each entry names ``start``, ``end``, an
    optional ``rate`` and its nested spec under ``field``, which ``parse``
    builds; a bad entry is refused as a ``bad {label}``."""
    if not phases:
        raise ValueError("a mixed spec needs non-empty 'phases'")
    built: List[Phase] = []
    for raw in phases:
        try:
            built.append(Phase(int(raw["start"]), int(raw["end"]), parse(raw[field]),
                               float(raw.get("rate", 1.0))))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad {label} {raw!r}: {exc}") from exc
    return built


def _mixed(phases: Sequence[dict] = (), fallback: object = None) -> MixedSchedule:
    """The ``mixed`` kind: phases of nested workload specs."""
    return MixedSchedule(read_phases(phases, "workload", _parse_schedule, "mixed phase"),
                         _parse_schedule(fallback))


_KINDS = Grammar("workload spec", WorkloadSpecError, {
    "uniform": Kind(UniformRequests),
    "zipf": Kind(ZipfRequests, "s"),
    "hotspot": Kind(HotSpotRequests, "prefix:intensity", 1, ("prefix",)),
    "figure8": Kind(figure8_schedule, "intensity"),
    "flash_crowd": Kind(FlashCrowd, "prefix", 1, ("prefix",)),
    "diurnal": Kind(DiurnalSchedule, text=("inner",)),
    "adversarial": Kind(AdversarialPrefixStacking, "prefix", 1, ("prefix",)),
    "mixed": Kind(_mixed),
})

#: Workload spec kinds (string and dict forms).
WORKLOAD_KINDS = tuple(_KINDS.kinds)


def _parse_schedule(spec: object) -> WorkloadSchedule:
    """Build and validate a :class:`WorkloadSchedule` from any spec form
    (the ``"workload"`` kind of :func:`repro.util.specs.parse_spec`).

    Accepts a spec string, a dict, a ready schedule, or a bare generator
    (wrapped into a steady schedule); ``None`` is uniform.  Raises
    :class:`WorkloadSpecError` with the offending spec on any problem.
    """
    if spec is None:
        built: object = UniformRequests()
    elif isinstance(spec, (str, dict)):
        kind, fields = _KINDS.fields(spec)
        if kind == "diurnal" and fields.get("inner") is not None:
            fields["inner"] = _parse_schedule(fields["inner"])
        built = _KINDS.build(kind, fields, spec)
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
        # Its phases wrap bare generators; sign those, as stored cells do.
        return {
            "kind": "phased",
            "phases": [
                {
                    "start": p.start,
                    "end": p.end,
                    "generator": workload_signature(p.schedule.generator),
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
        # The phases hold as_schedule-normalised sources (what the runtime
        # draws from): a phase built from a bare generator and one built
        # from its SteadySchedule wrapping behave identically and share a
        # signature.
        return {
            "kind": "mixed",
            "phases": [
                {
                    "start": p.start,
                    "end": p.end,
                    "rate": p.rate,
                    "source": workload_signature(p.schedule),
                }
                for p in obj.phases
            ],
            "fallback": workload_signature(obj._fallback),
        }
    return {
        "kind": "opaque",
        "type": type(obj).__name__,
        "name": generator_name(obj),
    }


register_spec_kind("workload", _parse_schedule, workload_signature)
