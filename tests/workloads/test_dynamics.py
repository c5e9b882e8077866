"""Time-varying workload dynamics: flash crowds, diurnal cycles,
adversarial prefix stacking, and phase-spliced composition."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.workloads.dynamics import (
    AdversarialPrefixStacking,
    DiurnalSchedule,
    FlashCrowd,
    MixedSchedule,
    Phase,
    SteadySchedule,
    as_schedule,
)
from repro.workloads.requests import (
    RequestGenerator,
    UniformRequests,
    WorkloadSchedule,
    ZipfRequests,
)

KEYS = ["Pdgesv", "S3L_fft", "S3L_mat_mult", "S3L_sort", "daxpy", "dgemm", "sgemm"]


class TestProtocols:
    def test_generators_satisfy_protocol(self):
        assert isinstance(UniformRequests(), RequestGenerator)
        assert isinstance(AdversarialPrefixStacking("S3L"), RequestGenerator)

    def test_schedules_satisfy_schedule_protocol(self):
        for schedule in (
            SteadySchedule(UniformRequests()),
            FlashCrowd("S3L"),
            DiurnalSchedule(),
            MixedSchedule([Phase(0, 10, UniformRequests())]),
        ):
            assert isinstance(schedule, WorkloadSchedule)

    def test_generator_is_not_a_schedule(self):
        assert not isinstance(UniformRequests(), WorkloadSchedule)

    def test_as_schedule_wraps_and_passes_through(self):
        steady = as_schedule(ZipfRequests(1.1))
        assert isinstance(steady, SteadySchedule)
        crowd = FlashCrowd("S3L")
        assert as_schedule(crowd) is crowd

    def test_as_schedule_rejects_non_workloads(self):
        with pytest.raises(TypeError, match="neither"):
            as_schedule(object())
        with pytest.raises(TypeError):
            SteadySchedule(42)


class TestFlashCrowd:
    def test_quiet_before_onset(self):
        crowd = FlashCrowd("S3L", onset=50)
        assert crowd.intensity(0) == 0.0
        assert crowd.rate_multiplier(0) == 1.0

    def test_burst_then_relaxation(self):
        crowd = FlashCrowd("S3L", onset=10, peak=0.9, half_life=5, rate_surge=3.0)
        assert crowd.intensity(10) == pytest.approx(0.9)
        assert crowd.intensity(15) == pytest.approx(0.45)
        assert crowd.rate_multiplier(10) == pytest.approx(3.0)
        assert crowd.rate_multiplier(10_000) == pytest.approx(1.0, abs=1e-6)

    def test_burst_concentrates_on_prefix(self):
        rng = random.Random(3)
        crowd = FlashCrowd("S3L", onset=0, peak=0.95, half_life=1e9)
        counts = Counter(crowd.sample(0, rng, KEYS) for _ in range(4000))
        hot = sum(counts[k] for k in KEYS if k.startswith("S3L"))
        assert hot / 4000 > 0.9

    def test_pre_onset_draws_from_base(self):
        rng = random.Random(4)
        crowd = FlashCrowd("S3L", onset=100)
        counts = Counter(crowd.sample(0, rng, KEYS) for _ in range(3500))
        for key in KEYS:  # uniform-ish: every key shows up
            assert counts[key] > 300

    def test_phase_windows_cover_run(self):
        crowd = FlashCrowd("S3L", onset=20, half_life=4)
        windows = crowd.phase_windows(100)
        assert windows[0] == ("pre-crowd", 0, 20)
        assert windows[1][1] == 20
        assert windows[-1][2] == 100
        for (_, _, e), (_, s, _) in zip(windows, windows[1:]):
            assert e == s  # contiguous

    def test_validation(self):
        with pytest.raises(ValueError):
            FlashCrowd("S3L", peak=0.0)
        with pytest.raises(ValueError):
            FlashCrowd("S3L", half_life=0)
        with pytest.raises(ValueError):
            FlashCrowd("S3L", rate_surge=0.5)
        with pytest.raises(ValueError):
            FlashCrowd("S3L", onset=-1)


class TestDiurnal:
    def test_rate_swings_around_one(self):
        sched = DiurnalSchedule(period=24, amplitude=0.5)
        assert sched.rate_multiplier(0) == pytest.approx(1.5)   # peak at 0
        assert sched.rate_multiplier(12) == pytest.approx(0.5)  # trough
        assert sched.rate_multiplier(24) == pytest.approx(1.5)  # next peak

    def test_mean_rate_is_nominal(self):
        sched = DiurnalSchedule(period=20, amplitude=0.8)
        mean = sum(sched.rate_multiplier(u) for u in range(20)) / 20
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_delegates_sampling_to_inner(self):
        rng = random.Random(5)
        sched = DiurnalSchedule(inner=AdversarialPrefixStacking("S3L"))
        assert sched.sample(0, rng, KEYS).startswith("S3L")

    def test_rate_composes_with_inner_schedule(self):
        crowd = FlashCrowd("S3L", onset=0, half_life=1e9, rate_surge=2.0)
        sched = DiurnalSchedule(inner=crowd, period=24, amplitude=0.5)
        assert sched.rate_multiplier(0) == pytest.approx(1.5 * 2.0)

    def test_phase_windows_alternate(self):
        windows = DiurnalSchedule(period=10, amplitude=0.3).phase_windows(30)
        names = [w[0] for w in windows]
        assert set(names) <= {"diurnal:day", "diurnal:night"}
        assert all(a != b for a, b in zip(names, names[1:]))
        assert windows[-1][2] == 30

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalSchedule(period=0)
        with pytest.raises(ValueError):
            DiurnalSchedule(amplitude=1.0)


class TestAdversarial:
    def test_all_requests_funnel_into_subtree(self):
        rng = random.Random(6)
        gen = AdversarialPrefixStacking("S3L")
        for _ in range(500):
            assert gen.sample(rng, KEYS).startswith("S3L")

    def test_zipf_stacking_prefers_first_keys(self):
        rng = random.Random(7)
        gen = AdversarialPrefixStacking("S3L", s=1.5)
        counts = Counter(gen.sample(rng, KEYS) for _ in range(6000))
        hot = sorted(k for k in KEYS if k.startswith("S3L"))
        assert counts[hot[0]] > counts[hot[1]] > counts[hot[2]]

    def test_falls_back_to_insertion_point(self):
        rng = random.Random(8)
        gen = AdversarialPrefixStacking("zzz")
        assert gen.sample(rng, KEYS) == KEYS[-1]  # stacked on one key
        gen2 = AdversarialPrefixStacking("A")
        assert gen2.sample(rng, KEYS) == KEYS[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            AdversarialPrefixStacking("S3L", s=0)


class TestMixedSchedule:
    def _mixed(self):
        return MixedSchedule(
            [
                Phase(0, 10, AdversarialPrefixStacking("S3L")),
                Phase(10, 20, FlashCrowd("d", onset=10, half_life=2), rate=2.0),
            ]
        )

    def test_splices_generators_and_schedules(self):
        rng = random.Random(9)
        mixed = self._mixed()
        assert mixed.sample(5, rng, KEYS).startswith("S3L")
        # nested schedules see the absolute unit: unit 10 is the onset.
        assert mixed.rate_multiplier(10) == pytest.approx(2.0 * 2.0)

    def test_fallback_outside_phases(self):
        rng = random.Random(10)
        mixed = self._mixed()
        assert mixed.rate_multiplier(50) == 1.0
        counts = Counter(mixed.sample(50, rng, KEYS) for _ in range(3500))
        assert all(counts[k] > 300 for k in KEYS)

    def test_phase_windows_name_sources(self):
        windows = self._mixed().phase_windows(30)
        assert windows[0] == ("adversarial:S3L", 0, 10)
        assert windows[1][1:] == (10, 20)
        assert windows[2] == ("uniform", 20, 30)

    def test_rejects_overlap_and_bad_rate(self):
        with pytest.raises(ValueError, match="overlap"):
            MixedSchedule(
                [
                    Phase(0, 10, UniformRequests()),
                    Phase(5, 15, UniformRequests()),
                ]
            )
        with pytest.raises(ValueError):
            Phase(0, 10, UniformRequests(), rate=0.0)
        with pytest.raises(ValueError):
            Phase(5, 5, UniformRequests())
