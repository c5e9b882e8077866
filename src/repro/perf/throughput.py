"""Sustained-throughput benchmark suite (``python -m repro bench --suite throughput``).

The timed suites report batch *medians*; ROADMAP item 2 asks for the
serving path reframed as **sustained requests per second**.  This driver
offers rounds of discovery requests against a fixed platform — one round
per time unit, so per-peer capacity budgets reset between rounds exactly
as in the experiment runner — under a simple AIMD admission controller:

* while the drop fraction of a round stays within ``drop_tolerance``, the
  offered rate ramps additively (``+ramp`` requests/round, up to
  ``max_rate``);
* when per-peer capacity backpressure pushes drops above the tolerance,
  the rate backs off multiplicatively (halved, floored at ``min_rate``).

The controller's decisions depend only on request outcomes, which are
implementation-independent (property-tested), so the seed and optimised
sides face an identical admitted workload and the ``throughput_gain``
ratio isolates pure serving cost.  Each implementation block reports
``req_per_s`` (total offered requests over summed serve time) plus
nearest-rank p50/p95/p99 tails of the per-round serve latency, in the
``repro-bench/1`` schema alongside the usual host metadata and peak RSS.

``benchmarks/check_regression.py --throughput-smoke`` runs a shortened
version (few rounds) in CI and gates the gain floor.
"""

from __future__ import annotations

import math
import random
from time import perf_counter
from typing import Any, Dict, Optional, Sequence

from .scenarios import _build_system, family_prefix

#: Scenario parameter sets.  ``capacity`` is per-peer requests/round, so the
#: platform absorbs ``n_peers * capacity`` requests/round and the AIMD
#: equilibrium sits where the hottest hosts saturate; ``hot_family``
#: concentrates draws on family 0 so backpressure binds far below the
#: aggregate capacity (the admission controller, not the platform, sets
#: the admitted rate).
THROUGHPUT_SCENARIOS: Dict[str, Dict[str, Any]] = {
    "steady_state": {
        "description": "uniform key draws at an AIMD-admitted sustained rate",
        "n_peers": 400, "n_keys": 3000, "families": 8, "capacity": 25,
        "rounds": 60, "start_rate": 4000, "min_rate": 500, "max_rate": 12_000,
        "ramp": 500, "drop_tolerance": 0.02, "hot_fraction": 0.0, "seed": 31,
    },
    "hot_family": {
        "description": "60% of draws hit one service family; backpressure "
                       "clamps admission at the hot hosts' capacity",
        "n_peers": 400, "n_keys": 3000, "families": 8, "capacity": 25,
        "rounds": 60, "start_rate": 4000, "min_rate": 500, "max_rate": 12_000,
        "ramp": 500, "drop_tolerance": 0.02, "hot_fraction": 0.6, "seed": 32,
    },
}


def _nearest_rank(sorted_samples: list, q: float) -> float:
    """Nearest-rank percentile of a pre-sorted, non-empty sample list."""
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[rank - 1]


def _run_impl(params: Dict[str, Any], impl: str, rounds: int) -> Dict[str, Any]:
    rng = random.Random(params["seed"])
    system, corpus = _build_system(params, impl, rng)
    hot = [k for k in corpus if k.startswith(family_prefix(0))]
    hot_fraction = params["hot_fraction"]

    rate = float(params["start_rate"])
    min_rate, max_rate = params["min_rate"], params["max_rate"]
    ramp, tolerance = params["ramp"], params["drop_tolerance"]
    n_corpus, n_hot = len(corpus), len(hot)
    latencies: list[float] = []
    total = satisfied_total = dropped_total = throttled = 0
    elapsed = 0.0
    for _ in range(rounds):
        n = int(rate)
        # Key draws, then entry draws — the outcome sequence (and hence
        # the controller trajectory) is identical across implementations,
        # so both sides serve the same admitted workload.
        if hot_fraction:
            keys = [
                hot[rng.randrange(n_hot)]
                if rng.random() < hot_fraction
                else corpus[rng.randrange(n_corpus)]
                for _ in range(n)
            ]
        else:
            keys = [corpus[rng.randrange(n_corpus)] for _ in range(n)]
        pairs = list(zip(keys, system.random_entry_labels(rng, n)))
        t0 = perf_counter()
        batch = system.discover_batch(pairs)
        dt = perf_counter() - t0
        system.end_time_unit()  # round == time unit: capacity budgets reset
        latencies.append(dt)
        elapsed += dt
        total += n
        satisfied_total += batch.satisfied
        dropped_total += batch.dropped
        if batch.dropped > tolerance * n:
            rate = max(min_rate, rate * 0.5)  # multiplicative backoff
            throttled += 1
        else:
            rate = min(max_rate, rate + ramp)  # additive ramp
    ordered = sorted(latencies)
    return {
        "rounds": rounds,
        "total_requests": total,
        "satisfied": satisfied_total,
        "dropped": dropped_total,
        "elapsed_s": elapsed,
        "req_per_s": total / elapsed if elapsed > 0 else float("inf"),
        # Per-round serve latency tails (a round is one admitted burst);
        # median doubles as ``median_s`` to keep the repro-bench/1 impl
        # block convention.
        "median_s": _nearest_rank(ordered, 0.50),
        "latency_p50_ms": _nearest_rank(ordered, 0.50) * 1000.0,
        "latency_p95_ms": _nearest_rank(ordered, 0.95) * 1000.0,
        "latency_p99_ms": _nearest_rank(ordered, 0.99) * 1000.0,
        "admitted_rate_final": rate,
        "throttled_rounds": throttled,
    }


def run_throughput_scenario(
    name: str,
    params: Dict[str, Any],
    impls: Sequence[str] = ("seed", "optimised"),
    rounds: Optional[int] = None,
) -> Dict[str, Any]:
    """Drive one throughput scenario under each implementation; returns its
    JSON block.  ``rounds`` overrides the scenario's round count (the CI
    smoke runs a short version)."""
    n_rounds = rounds if rounds is not None else params["rounds"]
    if n_rounds < 1:
        raise ValueError("rounds must be >= 1")
    impl_stats = {impl: _run_impl(params, impl, n_rounds) for impl in impls}
    block: Dict[str, Any] = {
        "description": params["description"],
        "params": {**params, "rounds": n_rounds},
        "impls": impl_stats,
    }
    if "seed" in impl_stats and "optimised" in impl_stats:
        seed_rate = impl_stats["seed"]["req_per_s"]
        block["throughput_gain"] = (
            impl_stats["optimised"]["req_per_s"] / seed_rate
            if seed_rate > 0
            else float("inf")
        )
    return block


def run_throughput_suite(
    scenarios: Optional[Sequence[str]] = None,
    impls: Sequence[str] = ("seed", "optimised"),
    rounds: Optional[int] = None,
    verbose: bool = False,
) -> Dict[str, Any]:
    """Run the throughput scenarios and assemble a ``repro-bench/1``
    document (suite name ``"throughput"``)."""
    from .bench import SCHEMA, host_metadata, peak_rss_bytes

    names = list(scenarios) if scenarios else list(THROUGHPUT_SCENARIOS)
    unknown = [n for n in names if n not in THROUGHPUT_SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenarios {unknown!r} for suite 'throughput'")
    doc: Dict[str, Any] = {
        "schema": SCHEMA,
        "suite": "throughput",
        "host": host_metadata(),
        "scenarios": {},
    }
    for name in names:
        if verbose:
            print(f"[bench] throughput/{name} ...", flush=True)
        block = run_throughput_scenario(name, THROUGHPUT_SCENARIOS[name], impls, rounds)
        doc["scenarios"][name] = block
        if verbose:
            for impl in impls:
                stats = block["impls"][impl]
                print(
                    f"[bench]   {impl:>9}: {stats['req_per_s']:,.0f} req/s  "
                    f"p95 {stats['latency_p95_ms']:.2f}ms  "
                    f"p99 {stats['latency_p99_ms']:.2f}ms"
                )
            if "throughput_gain" in block:
                print(f"[bench]   gain: {block['throughput_gain']:.1f}x")
    doc["host"]["peak_rss_bytes"] = peak_rss_bytes()
    return doc
