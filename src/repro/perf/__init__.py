"""Performance benchmarking subsystem (``python -m repro bench``).

The ROADMAP's north star is a platform that runs "as fast as the hardware
allows" at 10⁵-peer / 10⁶-key scale; this package is the instrument that
keeps that claim honest across PRs:

* :mod:`repro.perf.timing` — statistical wall-clock measurement (warmup
  pass plus median-of-k repetitions, fresh state per repetition);
* :mod:`repro.perf.reference` — the frozen seed reference as one class,
  :class:`~repro.perf.reference.SeedDLPTSystem` (per-label mapping,
  per-peer/per-key construction loops, per-request serving loop): the
  "before" side of every speedup number and the oracle of the migration-
  and construction-equivalence property tests;
* :mod:`repro.perf.reference_routing` — the seed's per-request discovery
  walk that class serves with, and the oracle of the
  discovery-equivalence property test;
* :mod:`repro.perf.scenarios` — the scenario registry (``build``,
  ``growth``, ``churn_storm``, ``crash_storm``, ``request_flood``,
  ``flash_crowd``, ``sustained``, ``sustained_hot``, ``replay``,
  ``sweep_cached``) with ``micro`` (CI-fast) and ``scale`` (10⁴-peer)
  parameter suites;
* :mod:`repro.perf.bench` — the runner and JSON writer emitting
  ``BENCH_micro.json`` / ``BENCH_scale.json`` in the stable
  ``repro-bench/1`` schema that ``benchmarks/check_regression.py`` and
  future PRs diff against.

Usage::

    python -m repro bench --suite micro          # CI regression numbers
    python -m repro bench --suite scale          # headline 10⁴-peer numbers
    python benchmarks/check_regression.py        # fail on >25% regression
"""

from .bench import run_suite, write_bench
from .scenarios import SCENARIOS, SUITES
from .timing import TimingStats, measure

__all__ = [
    "SCENARIOS",
    "SUITES",
    "TimingStats",
    "measure",
    "run_suite",
    "write_bench",
]
