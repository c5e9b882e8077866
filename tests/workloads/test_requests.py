"""Request generators: uniform, hot spots, Zipf, phased schedules."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.workloads.dynamics import Phase, PhasedSchedule, figure8_schedule
from repro.workloads.requests import HotSpotRequests, UniformRequests, ZipfRequests

KEYS = ["Pdgesv", "S3L_fft", "S3L_sort", "daxpy", "dgemm", "sgemm"]


class TestUniform:
    def test_samples_from_available(self, rng):
        gen = UniformRequests()
        for _ in range(50):
            assert gen.sample(rng, KEYS) in KEYS

    def test_roughly_uniform(self):
        rng = random.Random(1)
        gen = UniformRequests()
        counts = Counter(gen.sample(rng, KEYS) for _ in range(6000))
        for k in KEYS:
            assert 800 <= counts[k] <= 1200


class TestHotSpot:
    def test_concentrates_on_prefix(self):
        rng = random.Random(2)
        gen = HotSpotRequests("S3L", intensity=0.8)
        counts = Counter(gen.sample(rng, KEYS) for _ in range(5000))
        hot = counts["S3L_fft"] + counts["S3L_sort"]
        assert hot > 0.7 * 5000

    def test_falls_back_when_prefix_absent(self, rng):
        gen = HotSpotRequests("QQQ", intensity=0.9)
        assert gen.sample(rng, KEYS) in KEYS

    def test_intensity_bounds(self):
        with pytest.raises(ValueError):
            HotSpotRequests("S3L", intensity=0.0)

    def test_cache_tracks_population_change(self, rng):
        gen = HotSpotRequests("S3L", intensity=1.0)
        gen.sample(rng, ["S3L_a", "x"])
        out = gen.sample(rng, ["S3L_b", "y"])  # new population
        assert out == "S3L_b"


class TestZipf:
    def test_skewed_distribution(self):
        rng = random.Random(3)
        gen = ZipfRequests(s=1.2, seed_rng=random.Random(1))
        counts = Counter(gen.sample(rng, KEYS) for _ in range(6000))
        top = counts.most_common(1)[0][1]
        assert top > 6000 / len(KEYS) * 1.8  # much hotter than uniform

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            ZipfRequests(s=0)

    def test_stable_ranking_across_units(self):
        seed_rng = random.Random(5)
        gen = ZipfRequests(s=2.0, seed_rng=seed_rng)
        rng = random.Random(6)
        first = Counter(gen.sample(rng, KEYS) for _ in range(3000)).most_common(1)[0][0]
        second = Counter(gen.sample(rng, KEYS) for _ in range(3000)).most_common(1)[0][0]
        assert first == second

    def test_weights_cached_across_corpus_growth(self):
        """Regression: a growing corpus (every growth unit) must extend the
        cached rank weights, not re-raise every rank to a float power."""
        gen = ZipfRequests(s=1.1, seed_rng=random.Random(2))
        rng = random.Random(3)
        sizes = list(range(10, 200, 10))
        for n in sizes:
            corpus = [f"k{i:04d}" for i in range(n)]
            for _ in range(5):
                gen.sample(rng, corpus)
        # One evaluation per rank ever seen — not one per rank per resize.
        assert gen.weight_evals == max(sizes)

    def test_growth_draws_identical_to_uncached(self):
        """The cache must not change a single draw: replay the exact
        sample stream against a from-scratch (pre-cache) implementation
        that honours the same no-op on an unchanged corpus size."""
        import bisect as bisect_mod
        import itertools

        sizes = [7, 19, 19, 40, 64]
        gen = ZipfRequests(s=1.3, seed_rng=random.Random(11))
        rng = random.Random(12)
        got = []
        for n in sizes:
            corpus = [f"k{i:04d}" for i in range(n)]
            got.extend(gen.sample(rng, corpus) for _ in range(6))

        order_rng = random.Random(11)
        ref_rng = random.Random(12)
        want = []
        prev_n = None
        cdf: list[float] = []
        perm: list[int] = []
        for n in sizes:
            corpus = [f"k{i:04d}" for i in range(n)]
            if n != prev_n:
                weights = [1.0 / (i + 1) ** 1.3 for i in range(n)]
                total = sum(weights)
                cdf = list(itertools.accumulate(w / total for w in weights))
                perm = list(range(n))
                order_rng.shuffle(perm)
                prev_n = n
            for _ in range(6):
                rank = min(bisect_mod.bisect_left(cdf, ref_rng.random()), n - 1)
                want.append(corpus[perm[rank]])
        assert got == want


class TestPhasedSchedule:
    def test_phase_windows(self):
        sched = PhasedSchedule(
            [Phase(0, 5, UniformRequests()), Phase(5, 10, HotSpotRequests("S3L"))]
        )
        assert isinstance(sched.generator_at(0), UniformRequests)
        assert isinstance(sched.generator_at(5), HotSpotRequests)
        assert isinstance(sched.generator_at(99), UniformRequests)  # fallback

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            PhasedSchedule([Phase(0, 6, UniformRequests()), Phase(5, 9, UniformRequests())])

    def test_bad_window(self):
        with pytest.raises(ValueError):
            Phase(5, 5, UniformRequests())

    def test_phases_run_generators_at_the_nominal_rate(self):
        """Its signature names neither a rate nor a schedule, so a phase
        with either would hash like one without."""
        with pytest.raises(ValueError, match="rate 1"):
            PhasedSchedule([Phase(0, 5, UniformRequests(), rate=2.0)])
        with pytest.raises(ValueError, match="generators"):
            PhasedSchedule([Phase(0, 5, figure8_schedule())])

    def test_figure8_timeline(self):
        sched = figure8_schedule()
        assert isinstance(sched.generator_at(20), UniformRequests)
        g40 = sched.generator_at(40)
        assert isinstance(g40, HotSpotRequests) and g40.prefix == "S3L"
        g80 = sched.generator_at(80)
        assert isinstance(g80, HotSpotRequests) and g80.prefix == "P"
        assert isinstance(sched.generator_at(130), UniformRequests)

    def test_sample_delegates_by_unit(self):
        rng = random.Random(7)
        sched = figure8_schedule(intensity=1.0)
        key = sched.sample(50, rng, KEYS)  # S3L phase
        assert key.startswith("S3L")
