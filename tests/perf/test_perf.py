"""Perf subsystem: timing statistics, scenario registry, bench schema."""

from __future__ import annotations

import json

import pytest

from repro.perf.bench import (
    DEFAULT_OUT,
    IMPLS,
    SCHEMA,
    host_metadata,
    profile_scenario,
    run_scenario,
    run_suite,
    write_bench,
)
from repro.perf.scenarios import SCENARIOS, SUITES, clustered_corpus, family_prefix
from repro.perf.timing import TimingStats, measure

#: Sized so the admission controller both ramps and backs off.
_TINY_SUSTAINED = {
    "n_peers": 12, "n_keys": 60, "families": 4, "capacity": 8, "rounds": 6,
    "start_rate": 40, "min_rate": 10, "max_rate": 80, "ramp": 10,
    "drop_tolerance": 0.02,
}

#: Tiny parameters so tier-1 exercises every scenario end-to-end in ~100ms.
TINY = {
    "build": {"n_peers": 12, "n_keys": 60, "families": 4, "seed": 1},
    "growth": {"n_peers": 12, "n_keys": 60, "families": 4, "seed": 2},
    "churn_storm": {"n_peers": 30, "n_keys": 120, "families": 4, "storm": 5, "seed": 3},
    "crash_storm": {"n_peers": 30, "n_keys": 120, "families": 4, "crashes": 5, "seed": 8},
    "request_flood": {
        "n_peers": 12, "n_keys": 60, "families": 4, "n_requests": 40, "seed": 4,
    },
    "flash_crowd": {
        "n_peers": 12, "n_keys": 60, "families": 4,
        "units": 6, "req_per_unit": 8, "seed": 5,
    },
    "sustained": {**_TINY_SUSTAINED, "hot_fraction": 0.0, "seed": 9},
    "sustained_hot": {**_TINY_SUSTAINED, "hot_fraction": 0.6, "seed": 10},
    "replay": {"n_peers": 10, "units": 6, "load": 0.3, "seed": 6},
    "sweep_cached": {"n_peers": 10, "units": 5, "runs": 1, "loads": [0.2], "seed": 7},
}


class TestTiming:
    def test_measure_runs_fresh_state_per_repetition(self):
        prepared = []

        def prepare():
            prepared.append(object())
            return prepared[-1]

        executed = []
        stats = measure(prepare, executed.append, repeat=3, warmup=2)
        assert len(prepared) == 5  # 2 warmup + 3 timed
        assert executed == prepared  # each repetition got its own state
        assert stats.runs == 3 and stats.warmup == 2

    def test_stats_summary(self):
        stats = TimingStats.from_samples([3.0, 1.0, 2.0], warmup=1)
        assert stats.median_s == 2.0
        assert stats.min_s == 1.0 and stats.max_s == 3.0
        assert stats.mean_s == pytest.approx(2.0)
        d = stats.as_dict()
        assert d["samples"] == [3.0, 1.0, 2.0]

    def test_measure_validates_arguments(self):
        with pytest.raises(ValueError):
            measure(lambda: None, lambda s: None, repeat=0)
        with pytest.raises(ValueError):
            measure(lambda: None, lambda s: None, warmup=-1)


class TestScenarios:
    def test_registry_matches_suites(self):
        for suite, params in SUITES.items():
            assert set(params) == set(SCENARIOS), suite

    def test_clustered_corpus_shape(self):
        corpus = clustered_corpus(__import__("random").Random(0), 40, 4)
        assert len(corpus) == len(set(corpus)) == 40
        prefixes = {k[:3] for k in corpus}
        assert prefixes == {family_prefix(f) for f in range(4)}

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("impl", IMPLS)
    def test_scenario_runs_tiny(self, name, impl):
        scenario = SCENARIOS[name]
        state = scenario.prepare(TINY[name], impl)
        scenario.execute(state)

    def test_seed_and_optimised_storms_migrate_identically(self):
        """The two implementations must do the same logical work — the
        bench compares implementation speed, not workload size."""
        migrations = {}
        scenario = SCENARIOS["churn_storm"]
        for impl in IMPLS:
            state = scenario.prepare(TINY["churn_storm"], impl)
            scenario.execute(state)
            system = state["system"]
            system.check_invariants()
            migrations[impl] = system.mapping.migrations
        assert migrations["seed"] == migrations["optimised"]

    def test_unknown_impl_rejected(self):
        with pytest.raises(ValueError):
            SCENARIOS["build"].prepare(TINY["build"], "hand-tuned-assembly")

    @pytest.mark.parametrize(
        "name", ["request_flood", "flash_crowd", "replay", "sustained", "sustained_hot"]
    )
    def test_request_scenarios_do_identical_work(self, name):
        """Seed (frozen walk) and optimised (indexed batch) must serve the
        same requests to the same effect — the bench times implementation
        speed, not workload divergence."""
        scenario = SCENARIOS[name]
        results = {
            impl: scenario.execute(scenario.prepare(TINY[name], impl))
            for impl in IMPLS
        }
        assert results["seed"] == results["optimised"]

    @pytest.mark.parametrize("name, totals", [
        ("sustained", (97_247, 95_145, 2_102)),
        ("sustained_hot", (35_500, 29_219, 6_281)),
    ])
    def test_sustained_scale_trajectories_keep_their_totals(self, name, totals):
        """The admission trajectories of the scale suite, as requests,
        satisfied and dropped — the totals the sustained-rate numbers are
        quoted against (requests / ``median_s``)."""
        scenario = SCENARIOS[name]
        state = scenario.prepare(SUITES["scale"][name], "optimised")
        requests = sum(len(batch) for batch in state["rounds"])
        assert (requests, *scenario.execute(state)) == totals


class TestBench:
    def test_run_scenario_block_schema(self):
        block = run_scenario("churn_storm", TINY["churn_storm"], repeat=1, warmup=0)
        assert set(block["impls"]) == set(IMPLS)
        for impl in IMPLS:
            assert block["impls"][impl]["median_s"] >= 0
        assert block["speedup_median"] > 0
        assert block["params"] == TINY["churn_storm"]

    def test_write_bench_stable_layout(self, tmp_path):
        doc = {
            "schema": SCHEMA,
            "suite": "micro",
            "repeat": 1,
            "warmup": 0,
            "scenarios": {},
        }
        path = write_bench(tmp_path / "BENCH_test.json", doc)
        loaded = json.loads(path.read_text())
        assert loaded == doc
        # sort_keys guarantees byte-stable output for identical content.
        assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_run_suite_rejects_unknown(self):
        with pytest.raises(ValueError):
            run_suite("galactic")
        with pytest.raises(ValueError):
            run_suite("micro", scenarios=["no_such_scenario"])

    def test_default_out_covers_suites(self):
        assert set(DEFAULT_OUT) == set(SUITES)

    def test_host_metadata_recorded(self):
        meta = host_metadata()
        assert meta["python"] and meta["platform"]
        assert isinstance(meta["cpu_count"], int) and meta["cpu_count"] >= 1
        doc = run_suite("micro", repeat=1, warmup=0, scenarios=["request_flood"])
        # The micro params are not TINY here, so keep it to the cheapest
        # scenario; what matters is the document layout.  The suite run
        # appends its peak RSS next to the static host fingerprint.
        rss = doc["host"].pop("peak_rss_bytes")
        assert rss is None or (isinstance(rss, int) and rss > 0)
        assert doc["host"] == meta

    def test_profile_scenario_reports_hotspots(self):
        report = profile_scenario(
            "request_flood", TINY["request_flood"], impl="optimised", top=5
        )
        assert "cumtime" in report and "tottime" in report
        assert "discover_batch" in report or "function calls" in report


@pytest.mark.bench
class TestBenchSuites:
    """Tier-2: the real micro suite (seconds, excluded from tier-1 by the
    default ``-m "not bench"`` marker filter in pytest.ini)."""

    def test_micro_suite_end_to_end(self, tmp_path):
        doc = run_suite("micro", repeat=1, warmup=0)
        assert doc["schema"] == SCHEMA
        assert set(doc["scenarios"]) == set(SCENARIOS)
        for name, block in doc["scenarios"].items():
            assert block["speedup_median"] > 0, name
        write_bench(tmp_path / "BENCH_micro.json", doc)
