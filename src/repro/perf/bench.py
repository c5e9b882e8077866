"""Benchmark runner and ``BENCH_*.json`` writer (``python -m repro bench``).

Runs the scenario registry of :mod:`repro.perf.scenarios` under both the
seed (per-label) and optimised (interval-batched) mapping implementations
and emits a JSON document in the stable ``repro-bench/1`` schema::

    {
      "schema": "repro-bench/1",
      "suite": "micro",
      "repeat": 5,
      "warmup": 1,
      "scenarios": {
        "churn_storm": {
          "description": "...",
          "params": {...},
          "impls": {
            "seed":      {"runs": ..., "median_s": ..., ...},
            "optimised": {"runs": ..., "median_s": ..., ...}
          },
          "speedup_median": 12.3
        },
        ...
      }
    }

Future PRs diff their fresh numbers against the committed baselines
(``BENCH_micro.json`` / ``BENCH_scale.json`` at the repo root) via
``benchmarks/check_regression.py``; the schema string is bumped on any
breaking layout change so the checker can refuse to compare apples to
oranges.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import os
import pathlib
import platform
import pstats
import sys
from typing import Any, Dict, Optional, Sequence

from .scenarios import SCENARIOS, SUITES
from .timing import TimingStats, time_once

SCHEMA = "repro-bench/1"


def host_metadata() -> Dict[str, Any]:
    """Machine fingerprint recorded in every bench document, so baseline
    diffs across machines are interpretable (absolute medians are only
    comparable on matching hosts; the speedup ratio travels)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def peak_rss_bytes() -> Optional[int]:
    """Peak resident-set size of this process in bytes, or ``None`` when
    the platform does not expose it.  Recorded after each suite run so
    bench documents carry a memory footprint next to the host metadata
    (ROADMAP item 3's memory-as-a-gated-metric prerequisite).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; stdlib only,
    so the number is process-lifetime peak (setup included), comparable
    across runs of the same suite on the same host.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak <= 0:  # pragma: no cover - platform reports nothing
        return None
    return peak if sys.platform == "darwin" else peak * 1024

#: Both sides of every speedup number, in report order.
IMPLS = ("seed", "optimised")

#: Default output file per suite; resolved against the repository root by
#: :func:`default_out_path` so `check_regression.py` and the bench always
#: agree on where baselines live regardless of the invocation directory.
DEFAULT_OUT = {
    "micro": "BENCH_micro.json",
    "scale": "BENCH_scale.json",
}


def default_out_path(suite: str) -> pathlib.Path:
    """``BENCH_<suite>.json`` anchored at the repository root when this
    package runs from a source checkout (the normal case); falls back to
    the current directory for an installed package."""
    for ancestor in pathlib.Path(__file__).resolve().parents:
        if (ancestor / "ROADMAP.md").exists() and (ancestor / "src").is_dir():
            return ancestor / DEFAULT_OUT[suite]
    return pathlib.Path(DEFAULT_OUT[suite])


def run_scenario(
    name: str,
    params: Dict[str, Any],
    repeat: int,
    warmup: int,
    impls: Sequence[str] = IMPLS,
) -> Dict[str, Any]:
    """Time one scenario under each implementation; returns its JSON block.

    Repetitions are *interleaved* across implementations (seed rep 0,
    optimised rep 0, seed rep 1, …) so slow process-lifetime drift —
    allocator growth, CPU frequency — biases every implementation equally
    instead of penalising whichever runs last.
    """
    scenario = SCENARIOS[name]
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    preparers = {impl: (lambda impl=impl: scenario.prepare(params, impl)) for impl in impls}
    for impl in impls:
        for _ in range(warmup):
            scenario.execute(preparers[impl]())
    samples: Dict[str, list[float]] = {impl: [] for impl in impls}
    for _ in range(repeat):
        for impl in impls:
            samples[impl].append(time_once(preparers[impl], scenario.execute))
    impl_stats: Dict[str, Any] = {
        impl: TimingStats.from_samples(samples[impl], warmup).as_dict()
        for impl in impls
    }
    block: Dict[str, Any] = {
        "description": scenario.description,
        "params": dict(params),
        "impls": impl_stats,
    }
    if "seed" in impl_stats and "optimised" in impl_stats:
        opt = impl_stats["optimised"]["median_s"]
        block["speedup_median"] = (
            impl_stats["seed"]["median_s"] / opt if opt > 0 else float("inf")
        )
    return block


def run_suite(
    suite: str,
    repeat: int = 5,
    warmup: int = 1,
    scenarios: Optional[Sequence[str]] = None,
    impls: Sequence[str] = IMPLS,
    verbose: bool = False,
) -> Dict[str, Any]:
    """Run every scenario of ``suite`` and assemble the bench document."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r} (have {sorted(SUITES)})")
    suite_params = SUITES[suite]
    names = list(scenarios) if scenarios else list(suite_params)
    unknown = [n for n in names if n not in suite_params]
    if unknown:
        raise ValueError(f"unknown scenarios {unknown!r} for suite {suite!r}")
    doc: Dict[str, Any] = {
        "schema": SCHEMA,
        "suite": suite,
        "repeat": repeat,
        "warmup": warmup,
        "host": host_metadata(),
        "scenarios": {},
    }
    for name in names:
        if verbose:
            print(f"[bench] {suite}/{name} ...", flush=True)
        block = run_scenario(name, suite_params[name], repeat, warmup, impls)
        doc["scenarios"][name] = block
        if verbose:
            for impl in impls:
                print(f"[bench]   {impl:>9}: median {block['impls'][impl]['median_s']:.4f}s")
            if "speedup_median" in block:
                print(f"[bench]   speedup: {block['speedup_median']:.1f}x")
    doc["host"]["peak_rss_bytes"] = peak_rss_bytes()
    return doc


def profile_scenario(
    name: str,
    params: Dict[str, Any],
    impl: str = "optimised",
    top: int = 12,
    sort: str = "tottime",
) -> str:
    """cProfile one scenario execution and return its top-``top`` report.

    State construction stays untimed (``prepare`` runs outside the
    profiler), mirroring how the timed suite measures — the report shows
    where the *measured* phase spends its time, which is where the next
    perf PR should start.
    """
    scenario = SCENARIOS[name]
    state = scenario.prepare(params, impl)
    profiler = cProfile.Profile()
    profiler.enable()
    scenario.execute(state)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(sort).print_stats(top)
    return buffer.getvalue()


def profile_suite(
    suite: str,
    scenarios: Optional[Sequence[str]] = None,
    impls: Sequence[str] = ("optimised",),
    top: int = 12,
) -> None:
    """``--profile-hotspots``: print per-scenario cProfile hotspot reports
    instead of timing medians — the data a perf PR starts from."""
    suite_params = SUITES[suite]
    names = list(scenarios) if scenarios else list(suite_params)
    unknown = [n for n in names if n not in suite_params]
    if unknown:
        raise ValueError(f"unknown scenarios {unknown!r} for suite {suite!r}")
    for name in names:
        for impl in impls:
            print(f"\n[bench] hotspots of {suite}/{name} ({impl}, top {top} by tottime)")
            print(profile_scenario(name, suite_params[name], impl, top=top))


def write_bench(path: str | pathlib.Path, doc: Dict[str, Any]) -> pathlib.Path:
    """Write a bench document with a stable, diff-friendly layout."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Run the performance benchmark suites and write BENCH_*.json.",
    )
    parser.add_argument("--suite", choices=sorted(SUITES) + ["all"],
                        default="micro",
                        help="parameter suite to run (default micro)")
    parser.add_argument("--scenario", action="append", default=None,
                        help="restrict to named scenario(s); repeatable")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed repetitions per scenario (default 5)")
    parser.add_argument("--warmup", type=int, default=1,
                        help="discarded warmup repetitions (default 1)")
    parser.add_argument("--out", default=None,
                        help="output path (default BENCH_<suite>.json)")
    parser.add_argument("--impl", action="append", choices=IMPLS, default=None,
                        help="restrict to one implementation; repeatable")
    parser.add_argument("--profile-hotspots", action="store_true",
                        help="cProfile each scenario once (optimised impl unless "
                        "--impl narrows it) and print the top functions instead "
                        "of timing; no BENCH file is written")
    parser.add_argument("--top", type=int, default=12,
                        help="rows per hotspot report (default 12; "
                        "only with --profile-hotspots)")
    args = parser.parse_args(argv)

    if args.out and args.suite == "all":
        parser.error("--out is ambiguous with --suite all; run one suite at a time")
    suites = sorted(SUITES) if args.suite == "all" else [args.suite]
    impls = tuple(args.impl) if args.impl else IMPLS
    if args.profile_hotspots:
        profile_impls = tuple(args.impl) if args.impl else ("optimised",)
        for suite in suites:
            try:
                profile_suite(suite, scenarios=args.scenario,
                              impls=profile_impls, top=args.top)
            except ValueError as exc:
                parser.error(str(exc))
        return 0
    for suite in suites:
        try:
            doc = run_suite(
                suite,
                repeat=args.repeat,
                warmup=args.warmup,
                scenarios=args.scenario,
                impls=impls,
                verbose=True,
            )
        except ValueError as exc:
            parser.error(str(exc))  # clean usage error, exit 2
        out = args.out or default_out_path(suite)
        path = write_bench(out, doc)
        print(f"[bench] wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    sys.exit(main())
