"""Sharded sweep execution with resume and cross-shard work stealing.

The orchestrator walks a :class:`~repro.sweeps.plan.SweepPlan` against a
shared :class:`~repro.sweeps.store.ResultStore`:

* **Resume** — a cell already in the store is skipped (``--force``
  recomputes this shard's own cells), so an interrupted sweep restarted
  with the same plan completes exactly the missing cells.
* **Sharding** — ``shard=(i, n)`` restricts primary work to the cells
  whose hash lands in shard ``i`` (``SweepCell.shard_of``), letting ``n``
  machines split one sweep with no coordinator beyond a shared store
  directory (NFS mount, synced volume).
* **Work stealing** — after finishing its own slice, a shard sweeps the
  *other* shards' cells and computes any still missing, re-checking the
  store immediately before each steal so a cell another machine just
  published is not recomputed.  A straggler shard can therefore never
  hold the sweep hostage; the SCOOP-style rule "idle workers take from
  whoever is behind" falls out of the store's atomic publishes.

Execution fans *across* cells, not just within them: both passes proceed
in waves of ``workers`` cells, and every ``(cell, run_index)`` task of a
wave goes to one shared process pool
(:func:`repro.experiments.runner.run_many_configs`, sized by
``workers``/``REPRO_WORKERS``) — a 1-run-per-cell smoke sweep still
saturates the machine, while publishes land at wave granularity so an
interrupted sweep loses at most one wave and concurrent shards see each
other's progress.  Results are identical to sequential execution because
every run derives its RNG streams from ``(seed, run_index)``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..experiments.metrics import ExperimentSeries
from ..experiments.parallel import default_workers
from ..experiments.runner import SeriesRunner, run_many_configs, unique_labels
from .plan import SweepCell, SweepPlan
from .store import ResultStore


@dataclass(frozen=True)
class CellOutcome:
    """What happened to one cell during a sweep pass."""

    key: str
    label: str
    action: str  # "computed" | "cached"
    source: str  # "own" | "stolen"
    elapsed_s: float


@dataclass
class SweepReport:
    """The orchestrator's account of one sweep invocation."""

    plan_name: str
    shard: int
    n_shards: int
    outcomes: List[CellOutcome] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def computed(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.action == "computed"]

    @property
    def cached(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.action == "cached"]

    @property
    def stolen(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.source == "stolen" and o.action == "computed"]

    def summary(self) -> str:
        return (
            f"[sweep] {self.plan_name} shard {self.shard}/{self.n_shards}: "
            f"{len(self.computed)} computed ({len(self.stolen)} stolen), "
            f"{len(self.cached)} cache hits, {self.elapsed_s:.1f}s"
        )


def _compute_batch(
    cells: List[SweepCell],
    store: ResultStore,
    workers: Optional[int],
) -> List[Tuple[ExperimentSeries, float]]:
    """Compute a batch of cells by fanning every ``(cell, run_index)`` task
    over one shared pool, then publish each cell — the one path by which a
    computed series reaches the store.  Returns ``(series, elapsed_s)`` per
    cell, where ``elapsed_s`` is the batch wall time apportioned by run
    count (individual timings are not observable inside a shared pool)."""
    if not cells:
        return []
    tasks = [(cell.config, i) for cell in cells for i in range(cell.n_runs)]
    start = time.perf_counter()
    runs = run_many_configs(tasks, workers=workers)
    elapsed = time.perf_counter() - start
    computed: List[Tuple[ExperimentSeries, float]] = []
    cursor = 0
    for cell in cells:
        series = ExperimentSeries(
            label=cell.label, runs=runs[cursor : cursor + cell.n_runs]
        )
        cursor += cell.n_runs
        share = elapsed * cell.n_runs / len(tasks)
        store.put(cell.key(), series, cell.signature(), share)
        computed.append((series, share))
    return computed


def run_sweep(
    plan: SweepPlan,
    store: ResultStore,
    shard: Tuple[int, int] = (0, 1),
    workers: Optional[int] = None,
    force: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> SweepReport:
    """Execute ``plan`` against ``store``; see the module docstring for the
    resume / shard / steal semantics.  ``force`` recomputes this shard's
    own cells (never stolen ones — a forced n-machine sweep would
    otherwise do every cell n times over)."""
    shard_index, n_shards = shard
    own, foreign = plan.shard_split(shard_index, n_shards)
    emit = log or (lambda message: None)
    report = SweepReport(plan_name=plan.name, shard=shard_index, n_shards=n_shards)
    start = time.perf_counter()

    # Both passes run in waves of ~workers cells: large enough that every
    # (cell, run) task of a wave saturates the shared pool, small enough
    # that publishes land incrementally — an interrupted sweep loses at
    # most one wave (resume), and other shards see progress as it happens
    # instead of only when a slice completes (work stealing).
    wave_size = max(1, workers if workers is not None else default_workers())

    # Own cells first, then the steal pass.  Each shard walks the foreign
    # list in its own deterministic shuffled order — concurrently launched
    # shards then start stealing from *different* cells instead of
    # colliding head-on and duplicating the slowest shard's whole in-flight
    # slice.  The store is re-checked at each wave boundary (the owning
    # shard may publish cells while this one computes); ``force`` skips
    # that check for own cells only.
    random.Random(shard_index).shuffle(foreign)
    for cells, source, recompute in ((own, "own", force), (foreign, "stolen", False)):
        for lo in range(0, len(cells), wave_size):
            to_compute: List[SweepCell] = []
            for cell in cells[lo:lo + wave_size]:
                if not recompute and cell.key() in store:
                    report.outcomes.append(
                        CellOutcome(cell.key(), cell.label, "cached", source, 0.0)
                    )
                else:
                    emit(f"[sweep] computing {cell.label} ({cell.key()[:12]}…, "
                         f"{cell.n_runs} runs)")
                    to_compute.append(cell)
            for cell, (_, share) in zip(to_compute, _compute_batch(to_compute, store, workers)):
                report.outcomes.append(
                    CellOutcome(cell.key(), cell.label, "computed", source, share)
                )

    report.elapsed_s = time.perf_counter() - start
    emit(report.summary())
    return report


def cached_series_runner(
    store: ResultStore,
    workers: Optional[int] = None,
    force: bool = False,
    on_cell: Optional[Callable[[SweepCell, str, str], None]] = None,
) -> SeriesRunner:
    """A :data:`~repro.experiments.runner.SeriesRunner` backed by the store.

    Figure/table harnesses called with this runner transparently reuse
    every cell a sweep already computed and publish whatever they compute
    fresh — so assembly after a sharded sweep is all cache hits, and
    assembly *without* a prior sweep still works, just cold: a batch's
    misses are computed together on one pool and published like a sweep
    wave (:func:`_compute_batch`).  ``on_cell`` observes every request
    (cell, key, "cached"/"computed") — the hook the manifest uses to
    record an artifact's inputs.
    """

    def run_series(labeled_configs, n_runs: int) -> Dict[str, ExperimentSeries]:
        unique_labels(labeled_configs)
        cells = [
            SweepCell(config=config, n_runs=n_runs, label=label)
            for config, label in labeled_configs
        ]
        found = {
            cell.label: None if force else store.get(cell.key()) for cell in cells
        }
        # The batch's misses go to the pool together, like a sweep wave.
        misses = [cell for cell in cells if found[cell.label] is None]
        for cell, (series, _) in zip(misses, _compute_batch(misses, store, workers)):
            found[cell.label] = series
        for cell in cells:
            # Labels are presentation, excluded from the key; serve the
            # caller's label, not whichever consumer stored the cell first.
            found[cell.label].label = cell.label
            if on_cell is not None:
                on_cell(cell, cell.key(), "computed" if cell in misses else "cached")
        return found

    return run_series
