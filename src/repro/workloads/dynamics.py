"""Time-varying workload dynamics beyond the paper's two regimes.

Section 4 exercises uniform traffic and prefix-local hot spots.  Production
discovery traffic is richer, and each class here opens one axis:

* :class:`FlashCrowd` — a sudden Zipf-concentrated burst on one service
  family that *relaxes back* (half-life decay), with an accompanying surge
  in raw request volume.  The transient MLT must chase.
* :class:`DiurnalSchedule` — sinusoidal modulation of the request *rate*
  around any inner workload: the day/night cycle every deployed registry
  sees.
* :class:`AdversarialPrefixStacking` — every request funnels into a single
  subtree and, within it, Zipf-stacks onto the lexicographically deepest
  run of keys.  Under the lexicographic mapping one short arc of the ring
  absorbs all traffic — the worst case for MLT's pairwise splits and for
  k-choices placement.
* :class:`MixedSchedule` — splices any generators or schedules over phases
  (with per-phase rate multipliers), so arbitrary scenario timelines
  compose from the primitives above.  The paper's own phased workload,
  :class:`PhasedSchedule` (:func:`figure8_schedule`), is one of them.

A timeline is a list of :class:`Phase` records — ``[start, end)``, what
runs there, a rate — checked by :func:`sort_and_check_phases` and looked
up per unit by :func:`phase_at`; the fault axis's
:class:`repro.faults.schedules.MixedFaults` uses the same three.

All schedules implement :class:`repro.workloads.requests.WorkloadSchedule`:
``sample(unit, rng, keys)``, ``generator_at(unit)``, ``rate_multiplier(unit)``
and ``phase_windows(total_units)`` (the per-phase metrics breakdown axis).
Nested schedules always receive the *absolute* unit index.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .keys import keys_with_prefix
from .requests import (
    HotSpotRequests,
    RequestGenerator,
    UniformRequests,
    WorkloadSchedule,
    generator_name,
)


# ---------------------------------------------------------------------------
# adapters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _AtUnit:
    """A schedule frozen at one time unit — a plain :class:`RequestGenerator`."""

    schedule: WorkloadSchedule
    unit: int

    @property
    def name(self) -> str:
        return f"{generator_name(self.schedule)}@{self.unit}"

    def sample(self, rng, available_keys: Sequence[str]) -> str:
        return self.schedule.sample(self.unit, rng, available_keys)


class SteadySchedule:
    """One generator, constant rate, forever — the schedule view of a plain
    generator (what ``as_schedule`` wraps non-time-varying sources in)."""

    def __init__(self, generator: RequestGenerator) -> None:
        if not isinstance(generator, RequestGenerator):
            raise TypeError(
                f"{generator!r} does not implement RequestGenerator "
                "(needs a sample(rng, available_keys) method)"
            )
        self.generator = generator
        self.name = generator_name(generator)

    def sample(self, unit: int, rng, available_keys: Sequence[str]) -> str:
        return self.generator.sample(rng, available_keys)

    def generator_at(self, unit: int) -> RequestGenerator:
        return self.generator

    def rate_multiplier(self, unit: int) -> float:
        return 1.0

    def phase_windows(self, total_units: int) -> List[Tuple[str, int, int]]:
        return [(self.name, 0, total_units)]


def as_schedule(source: object) -> WorkloadSchedule:
    """Normalise a generator or schedule into a :class:`WorkloadSchedule`.

    Raises :class:`TypeError` with the offending object when ``source``
    implements neither protocol — the config layer surfaces this at parse
    time rather than mid-simulation.
    """
    if isinstance(source, WorkloadSchedule):
        return source
    if isinstance(source, RequestGenerator):
        return SteadySchedule(source)
    raise TypeError(
        f"{source!r} is neither a WorkloadSchedule (sample(unit, rng, keys)) "
        "nor a RequestGenerator (sample(rng, keys))"
    )


# ---------------------------------------------------------------------------
# Zipf over a key subset (shared by FlashCrowd and AdversarialPrefixStacking)
# ---------------------------------------------------------------------------


class _PrefixZipf:
    """Zipf(s) over the keys under ``prefix``, ranked lexicographically.

    No ranking shuffle, unlike :class:`ZipfRequests`: rank 1 is the
    lexicographically first hot key, so mass piles onto one contiguous run
    of the namespace — contiguous on the ring under the lexicographic
    mapping, which is the point of both workloads built on this.
    """

    def __init__(self, prefix: str, s: float) -> None:
        if s <= 0:
            raise ValueError("Zipf exponent must be positive")
        self.prefix = prefix
        self.s = s
        self._fingerprint: Optional[tuple[int, str]] = None
        self._hot: list[str] = []
        self._cdf: list[float] = []

    def hot_keys(self, available_keys: Sequence[str]) -> list[str]:
        fingerprint = (len(available_keys), available_keys[0] if available_keys else "")
        if self._fingerprint != fingerprint:
            # The runner's available list is in registration (shuffled)
            # order; sort so rank 1 really is the lexicographically first
            # hot key and the mass lands on one contiguous namespace run.
            self._hot = sorted(keys_with_prefix(available_keys, self.prefix))
            weights = [1.0 / (i + 1) ** self.s for i in range(len(self._hot))]
            total = sum(weights)
            self._cdf = list(itertools.accumulate(w / total for w in weights))
            self._fingerprint = fingerprint
        return self._hot

    def sample(self, rng, available_keys: Sequence[str]) -> Optional[str]:
        """A hot draw, or ``None`` when no key matches the prefix yet."""
        hot = self.hot_keys(available_keys)
        if not hot:
            return None
        rank = min(bisect.bisect_left(self._cdf, rng.random()), len(hot) - 1)
        return hot[rank]


# ---------------------------------------------------------------------------
# flash crowd
# ---------------------------------------------------------------------------


class FlashCrowd:
    """A sudden burst on one service family that relaxes back.

    At ``onset`` the probability that a request targets the ``prefix``
    subtree jumps to ``peak`` and then halves every ``half_life`` units;
    hot draws are Zipf(``zipf_s``)-concentrated so a handful of keys carry
    most of the crowd.  The raw request volume surges by ``rate_surge``×
    at the peak and relaxes on the same half-life (flash crowds bring new
    traffic, not just redirected traffic).  Before ``onset`` — and for the
    non-crowd share afterwards — requests come from ``base``.
    """

    def __init__(
        self,
        prefix: str,
        onset: int = 40,
        peak: float = 0.95,
        half_life: float = 8.0,
        rate_surge: float = 2.0,
        zipf_s: float = 1.1,
        base: Optional[RequestGenerator] = None,
    ) -> None:
        if not 0.0 < peak <= 1.0:
            raise ValueError("peak must be in (0, 1]")
        if onset < 0:
            raise ValueError("onset must be >= 0")
        if half_life <= 0:
            raise ValueError("half_life must be positive")
        if rate_surge < 1.0:
            raise ValueError("rate_surge must be >= 1 (a crowd adds traffic)")
        if base is not None and not isinstance(base, RequestGenerator):
            raise TypeError(f"base {base!r} does not implement RequestGenerator")
        self.prefix = prefix
        self.onset = onset
        self.peak = peak
        self.half_life = half_life
        self.rate_surge = rate_surge
        self.base = base if base is not None else UniformRequests()
        self._zipf = _PrefixZipf(prefix, zipf_s)
        self.name = f"flash:{prefix}@{onset}"
        self._intensity_at: Tuple[int, float] = (-1, 0.0)

    def intensity(self, unit: int) -> float:
        """P(request joins the crowd) at ``unit``: 0 before onset, then
        ``peak`` halving every ``half_life`` units.  Memoised per unit —
        every request of a unit shares one decay exponentiation."""
        cached_unit, value = self._intensity_at
        if unit == cached_unit:
            return value
        if unit < self.onset:
            value = 0.0
        else:
            value = self.peak * 0.5 ** ((unit - self.onset) / self.half_life)
        self._intensity_at = (unit, value)
        return value

    def rate_multiplier(self, unit: int) -> float:
        return 1.0 + (self.rate_surge - 1.0) * (self.intensity(unit) / self.peak)

    def sample(self, unit: int, rng, available_keys: Sequence[str]) -> str:
        if rng.random() < self.intensity(unit):
            hot = self._zipf.sample(rng, available_keys)
            if hot is not None:
                return hot
        return self.base.sample(rng, available_keys)

    def generator_at(self, unit: int) -> RequestGenerator:
        return _AtUnit(self, unit)

    def phase_windows(self, total_units: int) -> List[Tuple[str, int, int]]:
        # The burst window ends when intensity decays below ~3% of peak
        # (5 half-lives) — after that the workload is base traffic again.
        # Window bounds must be ints (they slice the per-unit series) even
        # when a spec parsed onset as a float.
        onset = math.ceil(self.onset)
        relax_end = onset + math.ceil(5 * self.half_life)
        windows: List[Tuple[str, int, int]] = []
        if onset > 0:
            windows.append(("pre-crowd", 0, min(onset, total_units)))
        if onset < total_units:
            windows.append((self.name, onset, min(relax_end, total_units)))
        if relax_end < total_units:
            windows.append(("relaxed", relax_end, total_units))
        return windows


# ---------------------------------------------------------------------------
# diurnal modulation
# ---------------------------------------------------------------------------


class DiurnalSchedule:
    """Sinusoidal request-rate modulation around any inner workload.

    ``rate_multiplier`` swings between ``1 - amplitude`` and
    ``1 + amplitude`` with the given ``period`` (units per full cycle);
    ``peak_unit`` places the first daily maximum.  What is requested is
    delegated to ``inner`` (a generator or another schedule) — only how
    *much* changes.
    """

    def __init__(
        self,
        inner: Optional[object] = None,
        period: float = 24.0,
        amplitude: float = 0.5,
        peak_unit: float = 0.0,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        self.inner = as_schedule(inner if inner is not None else UniformRequests())
        self.period = period
        self.amplitude = amplitude
        self.peak_unit = peak_unit
        self.name = f"diurnal:{period:g}x{amplitude:g}({generator_name(self.inner)})"

    def rate_multiplier(self, unit: int) -> float:
        angle = 2.0 * math.pi * (unit - self.peak_unit) / self.period
        return (1.0 + self.amplitude * math.cos(angle)) * self.inner.rate_multiplier(unit)

    def sample(self, unit: int, rng, available_keys: Sequence[str]) -> str:
        return self.inner.sample(unit, rng, available_keys)

    def generator_at(self, unit: int) -> RequestGenerator:
        return self.inner.generator_at(unit)

    def phase_windows(self, total_units: int) -> List[Tuple[str, int, int]]:
        """Alternating half-period windows: above-average rate ("day") and
        below-average ("night"), anchored at ``peak_unit``."""
        half = self.period / 2.0
        windows: List[Tuple[str, int, int]] = []
        start = self.peak_unit - half / 2.0
        k = 0  # parity: even = the half-period containing a rate peak
        while start > 0:
            start -= half
            k += 1
        while start < total_units:
            end = start + half
            lo = max(0, math.ceil(start))
            hi = min(total_units, math.ceil(end))
            if lo < hi:
                windows.append(("diurnal:day" if k % 2 == 0 else "diurnal:night", lo, hi))
            start = end
            k += 1
        return windows


# ---------------------------------------------------------------------------
# adversarial prefix stacking
# ---------------------------------------------------------------------------


class AdversarialPrefixStacking:
    """Worst-case traffic: every request funnels into one subtree.

    All draws land under ``prefix`` and are Zipf(``s``)-ranked in
    lexicographic order, so the hottest keys are *adjacent* in the
    identifier space — under the lexicographic mapping they live on one
    short arc of the ring, and MLT can only shuffle load between the
    two peers of each adjacent pair while k-choices has no cold candidate
    to offer.  Until the tree holds a matching key, draws fall back to
    the lexicographically closest available key (still maximally skewed).
    """

    def __init__(self, prefix: str, s: float = 1.2) -> None:
        if s <= 0:
            raise ValueError("Zipf exponent must be positive")
        self.prefix = prefix
        self.s = s
        self._zipf = _PrefixZipf(prefix, s)
        self._order_fingerprint: Optional[tuple[int, str]] = None
        self._ordered_keys: list[str] = []
        self.name = f"adversarial:{prefix}"

    def sample(self, rng, available_keys: Sequence[str]) -> str:
        hot = self._zipf.sample(rng, available_keys)
        if hot is not None:
            return hot
        # No key under the prefix yet: stack on the insertion point instead
        # of diluting the attack with uniform traffic.  The runner hands us
        # keys in registration order; bisect needs them sorted, so cache a
        # sorted copy per key-population fingerprint.
        fingerprint = (len(available_keys), available_keys[0] if available_keys else "")
        if self._order_fingerprint != fingerprint:
            self._ordered_keys = sorted(available_keys)
            self._order_fingerprint = fingerprint
        ordered = self._ordered_keys
        idx = min(bisect.bisect_left(ordered, self.prefix), len(ordered) - 1)
        return ordered[idx]


# ---------------------------------------------------------------------------
# phase timelines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Phase:
    """A half-open window ``[start, end)`` driven by ``schedule`` with a
    per-phase ``rate`` multiplier — one record for every timeline: a
    request generator or schedule in :class:`MixedSchedule`, a fault
    schedule in :class:`repro.faults.schedules.MixedFaults`."""

    start: int
    end: int
    schedule: object
    rate: float = 1.0

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"bad phase window [{self.start}, {self.end})")
        if self.rate <= 0:
            raise ValueError("phase rate must be positive")


def sort_and_check_phases(phases: Sequence[Phase]) -> List[Phase]:
    """``phases`` ordered by start; overlapping windows are refused."""
    ordered = sorted(phases, key=lambda p: p.start)
    for a, b in zip(ordered, ordered[1:]):
        if a.end > b.start:
            raise ValueError(f"overlapping phases at unit {b.start}")
    return ordered


def phase_at(phases: Sequence[Phase], unit: int) -> Optional[Phase]:
    """The phase whose window holds ``unit``, or ``None`` between phases."""
    for phase in phases:
        if phase.start <= unit < phase.end:
            return phase
    return None


class MixedSchedule:
    """Splice arbitrary workloads over phases — the scenario composer.

    Each phase holds a generator *or* a schedule (normalised through
    :func:`as_schedule`); nested schedules see the absolute unit index.
    Units outside every phase fall back to ``fallback`` (uniform by
    default).  The effective rate multiplier is the phase's ``rate``
    times the nested schedule's own multiplier.
    """

    def __init__(
        self,
        phases: Sequence[Phase],
        fallback: Optional[object] = None,
    ) -> None:
        self.phases = [
            Phase(p.start, p.end, as_schedule(p.schedule), p.rate)
            for p in sort_and_check_phases(phases)
        ]
        self._fallback = as_schedule(fallback if fallback is not None else UniformRequests())
        self.name = "mixed[" + ",".join(generator_name(p.schedule) for p in self.phases) + "]"

    def _segment_at(self, unit: int) -> Tuple[WorkloadSchedule, float]:
        phase = phase_at(self.phases, unit)
        return (self._fallback, 1.0) if phase is None else (phase.schedule, phase.rate)

    def sample(self, unit: int, rng, available_keys: Sequence[str]) -> str:
        schedule, _ = self._segment_at(unit)
        return schedule.sample(unit, rng, available_keys)

    def generator_at(self, unit: int) -> RequestGenerator:
        schedule, _ = self._segment_at(unit)
        return schedule.generator_at(unit)

    def rate_multiplier(self, unit: int) -> float:
        schedule, rate = self._segment_at(unit)
        return rate * schedule.rate_multiplier(unit)

    def phase_windows(self, total_units: int) -> List[Tuple[str, int, int]]:
        """The phases' windows clipped to ``[0, total_units)``, each gap
        between them a window of the fallback's."""
        fallback = generator_name(self._fallback)
        windows: List[Tuple[str, int, int]] = []
        cursor = 0
        for phase in self.phases:
            if phase.start >= total_units:
                break
            if phase.start > cursor:
                windows.append((fallback, cursor, phase.start))
            cursor = min(phase.end, total_units)
            windows.append((generator_name(phase.schedule), phase.start, cursor))
        if cursor < total_units:
            windows.append((fallback, cursor, total_units))
        return windows


class PhasedSchedule(MixedSchedule):
    """The paper's phased workload: request generators over phases at the
    nominal rate, uniform requests between them (Figure 8).

    A :class:`MixedSchedule` but for its ``phased[…]`` name and its
    ``phased`` signature, which address the cells earlier revisions
    stored (the default config's among them).
    """

    def __init__(self, phases: Sequence[Phase]) -> None:
        super().__init__(phases)
        if any(p.rate != 1.0 or not isinstance(p.schedule, SteadySchedule) for p in self.phases):
            raise ValueError("a phased schedule runs request generators at rate 1")
        self.name = "phased[" + ",".join(generator_name(p.schedule) for p in self.phases) + "]"


def figure8_schedule(intensity: float = 0.8) -> PhasedSchedule:
    """The exact Figure 8 timeline: uniform for units 0–40, an S3L hot spot
    for 40–80, a ScaLAPACK ("P") hot spot for 80–120, uniform afterwards."""
    return PhasedSchedule(
        [
            Phase(0, 40, UniformRequests()),
            Phase(40, 80, HotSpotRequests("S3L", intensity=intensity)),
            Phase(80, 120, HotSpotRequests("P", intensity=intensity)),
            Phase(120, 10_000, UniformRequests()),
        ]
    )
