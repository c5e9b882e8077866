"""Orchestrator semantics: resume, sharding, work stealing, cached runner."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_many
from repro.sweeps import (
    ResultStore,
    SweepCell,
    cached_series_runner,
    plan_from_cells,
    run_sweep,
)
from repro.workloads.keys import blas_routines

TINY = dict(
    n_peers=10, corpus=blas_routines()[:40], growth_units=2,
    total_units=5, load_fraction=0.2,
)


def tiny_plan(n_cells=4, n_runs=2):
    cells = [
        SweepCell(config=ExperimentConfig(**TINY, seed=s), n_runs=n_runs, label=f"s{s}")
        for s in range(n_cells)
    ]
    return plan_from_cells("tiny", cells)


@pytest.fixture
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "store")


class TestRunSweep:
    def test_cold_sweep_computes_everything(self, store):
        plan = tiny_plan()
        report = run_sweep(plan, store)
        assert len(report.computed) == len(plan)
        assert len(report.cached) == 0
        assert sorted(store.keys()) == sorted(plan.keys())

    def test_warm_sweep_computes_nothing(self, store):
        plan = tiny_plan()
        run_sweep(plan, store)
        report = run_sweep(plan, store)
        assert len(report.computed) == 0
        assert len(report.cached) == len(plan)

    def test_interrupted_sweep_resumes_exactly_the_missing_cells(self, store):
        plan = tiny_plan(n_cells=5)
        done = plan.cells[:2]  # "the sweep died after two cells"
        for cell in done:
            series = run_many(cell.config, cell.n_runs, label=cell.label)
            store.put(cell.key(), series, cell.signature(), elapsed_s=0.1)
        report = run_sweep(plan, store)
        computed = {o.key for o in report.computed}
        assert computed == set(plan.keys()) - {c.key() for c in done}
        assert {o.key for o in report.cached} == {c.key() for c in done}

    def test_force_recomputes_cached_cells(self, store):
        plan = tiny_plan()
        run_sweep(plan, store)
        report = run_sweep(plan, store, force=True)
        assert len(report.computed) == len(plan)

    def test_sharded_sweep_steals_missing_foreign_cells(self, store):
        plan = tiny_plan(n_cells=6)
        own, foreign = plan.shard_split(0, 2)
        report = run_sweep(plan, store, shard=(0, 2))
        # Alone on the "cluster", shard 0 computes its slice and then
        # steals everything shard 1 never produced.
        assert {o.key for o in report.outcomes if o.source == "own"} == {
            c.key() for c in own
        }
        assert {o.key for o in report.stolen} == {c.key() for c in foreign}
        assert sorted(store.keys()) == sorted(plan.keys())

    def test_sharded_sweep_skips_foreign_cells_already_published(self, store):
        plan = tiny_plan(n_cells=6)
        run_sweep(plan, store, shard=(1, 2))  # "the other machine" finishes all
        report = run_sweep(plan, store, shard=(0, 2))
        assert len(report.computed) == 0

    def test_shards_partition_identically_across_calls(self, store):
        plan = tiny_plan(n_cells=8)
        first = [c.key() for c in plan.shard_split(0, 3)[0]]
        second = [c.key() for c in plan.shard_split(0, 3)[0]]
        assert first == second


class TestCachedRunner:
    def test_runner_matches_direct_execution(self, store):
        cell = tiny_plan(n_cells=1).cells[0]
        runner = cached_series_runner(store)
        via_runner = runner([(cell.config, cell.label)], cell.n_runs)[cell.label]
        direct = run_many(cell.config, cell.n_runs, label=cell.label)
        for a, b in zip(via_runner.runs, direct.runs):
            assert a.satisfied_pct == b.satisfied_pct

    def test_runner_hits_after_sweep(self, store):
        plan = tiny_plan()
        run_sweep(plan, store)
        actions = []
        runner = cached_series_runner(
            store, on_cell=lambda cell, key, action: actions.append(action)
        )
        for cell in plan.cells:
            runner([(cell.config, cell.label)], cell.n_runs)
        assert actions == ["cached"] * len(plan)

    def test_runner_serves_requested_label_on_hit(self, store):
        cell = tiny_plan(n_cells=1).cells[0]
        runner = cached_series_runner(store)
        runner([(cell.config, "first-label")], cell.n_runs)
        again = runner([(cell.config, "second-label")], cell.n_runs)["second-label"]
        assert again.label == "second-label"

    def test_batch_computes_only_its_misses_and_keeps_request_order(self, store):
        plan = tiny_plan(n_cells=3)
        warm = plan.cells[1]
        run_sweep(plan_from_cells("warm", [warm]), store)
        seen = []
        runner = cached_series_runner(
            store, on_cell=lambda cell, key, action: seen.append((cell.label, action))
        )
        out = runner([(c.config, c.label) for c in plan.cells], 2)
        assert list(out) == ["s0", "s1", "s2"]
        assert seen == [("s0", "computed"), ("s1", "cached"), ("s2", "computed")]
        assert sorted(store.keys()) == sorted(plan.keys())
        for cell in plan.cells:
            assert out[cell.label].runs == run_many(cell.config, 2).runs

    def test_runner_refuses_duplicate_labels_before_any_run(self, store):
        a, b = tiny_plan(n_cells=2).cells
        runner = cached_series_runner(store)
        with pytest.raises(ValueError, match="duplicate series label 'same'"):
            runner([(a.config, "same"), (b.config, "same")], 1)
        assert len(store) == 0
