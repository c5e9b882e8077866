"""Result-store correctness: byte-identical hits, corruption detection."""

from __future__ import annotations

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import series_from_dict, series_to_dict
from repro.experiments.runner import run_many
from repro.sweeps import ResultStore, ResultStoreError, SweepCell
from repro.workloads.keys import blas_routines

TINY = dict(
    n_peers=10, corpus=blas_routines()[:40], growth_units=2,
    total_units=5, load_fraction=0.2,
)


@pytest.fixture
def cell() -> SweepCell:
    return SweepCell(config=ExperimentConfig(**TINY), n_runs=3, label="NoLB")


@pytest.fixture
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "store")


class TestRoundTrip:
    def test_miss_returns_none(self, store, cell):
        assert store.get(cell.key()) is None
        assert cell.key() not in store

    def test_hit_is_byte_identical(self, store, cell):
        fresh = run_many(cell.config, cell.n_runs, label=cell.label)
        store.put(cell.key(), fresh, cell.signature(), elapsed_s=1.0)
        cached = store.get(cell.key())
        fresh_bytes = json.dumps(series_to_dict(fresh), sort_keys=True)
        cached_bytes = json.dumps(series_to_dict(cached), sort_keys=True)
        assert fresh_bytes == cached_bytes

    def test_serde_preserves_hop_histograms_exactly(self, cell):
        fresh = run_many(cell.config, cell.n_runs, label=cell.label)
        reloaded = series_from_dict(series_to_dict(fresh))
        for a, b in zip(fresh.runs, reloaded.runs):
            assert [u.hop_histogram for u in a.units] == [u.hop_histogram for u in b.units]
            assert a.series("load_imbalance") == b.series("load_imbalance")
            assert a.series("p95_hops") == b.series("p95_hops")

    def test_store_round_trips_fault_and_query_histograms(self, store):
        config = ExperimentConfig(
            **TINY, faults="crash_storm:0.2:r=1:repair_every=2", queries="mixed:n=3"
        )
        cell = SweepCell(config=config, n_runs=2, label="faulty")
        fresh = run_many(cell.config, cell.n_runs, label=cell.label)
        units = [u for run in fresh.runs for u in run.units]
        assert any(u.ttr_histogram for u in units)
        assert any(u.query_hop_histogram for u in units)
        store.put(cell.key(), fresh, cell.signature(), elapsed_s=0.1)
        assert store.get(cell.key()) == fresh

    def test_len_and_keys(self, store, cell):
        fresh = run_many(cell.config, cell.n_runs, label=cell.label)
        store.put(cell.key(), fresh, cell.signature(), elapsed_s=0.1)
        assert len(store) == 1
        assert list(store.keys()) == [cell.key()]


class TestIntegrity:
    def test_put_rejects_mismatched_key(self, store, cell):
        fresh = run_many(cell.config, cell.n_runs, label=cell.label)
        with pytest.raises(ResultStoreError):
            store.put("0" * 64, fresh, cell.signature(), elapsed_s=0.1)

    def test_get_rejects_edited_cell(self, store, cell):
        fresh = run_many(cell.config, cell.n_runs, label=cell.label)
        path = store.put(cell.key(), fresh, cell.signature(), elapsed_s=0.1)
        doc = json.loads(path.read_text())
        doc["signature"]["n_runs"] = 999  # no longer hashes to the address
        path.write_text(json.dumps(doc))
        with pytest.raises(ResultStoreError):
            store.get(cell.key())

    def test_get_rejects_unknown_schema(self, store, cell):
        fresh = run_many(cell.config, cell.n_runs, label=cell.label)
        path = store.put(cell.key(), fresh, cell.signature(), elapsed_s=0.1)
        doc = json.loads(path.read_text())
        doc["schema"] = "repro-result/999"
        path.write_text(json.dumps(doc))
        with pytest.raises(ResultStoreError):
            store.get(cell.key())

    def test_no_temp_files_left_behind(self, store, cell):
        fresh = run_many(cell.config, cell.n_runs, label=cell.label)
        store.put(cell.key(), fresh, cell.signature(), elapsed_s=0.1)
        leftovers = [p for p in store.root.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []
