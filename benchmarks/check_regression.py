#!/usr/bin/env python
"""Performance-regression gate: fresh BENCH_micro.json vs the committed one.

Runs the ``micro`` benchmark suite, re-timing *both* the frozen seed
reference and the optimised code in this process, and compares each
scenario's seed/optimised speedup against the committed baseline's
``speedup_median``.  The machine's absolute speed — and run-to-run load
drift, which moves both implementations together — cancels out, so the
verdict is hardware-independent.  A scenario in ``SPEEDUP_FLOORS`` is
held to its floor instead of drift.  Exits 1 when a speedup shrinks by
more than ``--threshold`` (default 25%) or falls below its floor, on a
schema mismatch, or when a scenario is missing from the fresh run or —
unless it has a floor — from the baseline; exits 2 when there is no
baseline.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py
    PYTHONPATH=src python benchmarks/check_regression.py --threshold 0.10

Intended as the CI tier-2 perf gate; pair it with ``-m bench`` pytest runs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.perf.bench import SCHEMA, run_suite  # noqa: E402

#: Absolute speedup floors, replacing the relative drift check for the
#: scenarios listed.  ``sweep_cached``'s "speedup" is the
#: warm-store/cold-store ratio (see ``repro.perf.scenarios``): its warm
#: side is milliseconds of JSON reads, so the ratio jitters by factors run
#: to run and a ±25% drift comparison would cry wolf — the contract worth
#: gating is absolute: warm re-runs must stay at least 10× faster than
#: recomputation.  The request-path scenarios carry the discovery
#: router's fast-path contract: a flood of requests must stay ≥3× faster
#: than the frozen per-request reference walk, and the schedule-driven /
#: replayed / sustained-rate end-to-end paths ≥2× (they amortise churn,
#: balancing, sampling and per-round capacity resets that both
#: implementations share).  The construction scenarios carry the bulk
#: fast-path contract (sorted-cursor ``insert_batch`` + deferred mapping
#: placement): platform bootstrap and corpus registration must stay ≥1.5×
#: faster than the frozen per-peer/per-key loops, and crash repair — which
#: routes its re-registrations through the same batch path — must never
#: fall back below the seed (≥1.0×).
SPEEDUP_FLOORS = {
    "sweep_cached": 10.0,
    "request_flood": 3.0,
    "flash_crowd": 2.0,
    "replay": 2.0,
    "sustained": 2.0,
    "sustained_hot": 2.0,
    "build": 1.5,
    "growth": 1.5,
    "crash_storm": 1.0,
}

REGENERATE = "regenerate the baseline with `python -m repro bench --suite micro`"


def compare(baseline: dict, fresh: dict, threshold: float) -> list[str]:
    """Return a list of human-readable regression failures (empty = pass).

    Every scenario of either document is judged: a floored one by its
    floor alone, so it is gated whether or not the baseline has it; any
    other by drift against the baseline, which must therefore have it."""
    if baseline.get("schema") != SCHEMA:
        return [f"baseline schema {baseline.get('schema')!r} != {SCHEMA!r}; {REGENERATE}"]
    base_scenarios = baseline.get("scenarios", {})
    failures: list[str] = []
    for name in sorted(set(base_scenarios) | set(fresh["scenarios"])):
        fresh_block = fresh["scenarios"].get(name)
        if fresh_block is None:
            failures.append(f"{name}: missing from fresh run")
            continue
        # Higher is better; regression = seed/optimised speedup shrank.
        now = fresh_block["speedup_median"]
        floor = SPEEDUP_FLOORS.get(name)
        if floor is not None:
            # Gate on the absolute contract, not on drift against the
            # (jittery) committed number.
            verdict = "OK" if now >= floor else "BELOW FLOOR"
            print(f"[perf] {name:>14}: speedup {now:8.2f}x  (floor {floor:g}x)  {verdict}")
            if verdict != "OK":
                failures.append(
                    f"{name}: fresh speedup {now:.2f}x is below the "
                    f"hard floor of {floor:g}x"
                )
            continue
        base_block = base_scenarios.get(name)
        if base_block is None:
            failures.append(f"{name}: missing from the baseline; {REGENERATE}")
            continue
        base = base_block.get("speedup_median")
        if base is None:
            failures.append(
                f"{name}: baseline lacks 'speedup_median' (generated with "
                f"--impl?); {REGENERATE} (both implementations)"
            )
            continue
        ratio = base / now if now > 0 else float("inf")
        detail = f"baseline speedup {base:6.2f}x  now {now:6.2f}x"
        verdict = "OK" if ratio <= 1.0 + threshold else "REGRESSION"
        print(f"[perf] {name:>14}: {detail}  {verdict}")
        if verdict != "OK":
            failures.append(
                f"{name}: {detail.strip()} "
                f"({(ratio - 1) * 100:+.0f}%, threshold +{threshold * 100:.0f}%)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=str(REPO_ROOT / "BENCH_micro.json"),
        help="committed baseline to compare against (default: repo root)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="maximum allowed speedup regression as a fraction (default 0.25)",
    )
    parser.add_argument(
        "--repeat", type=int, default=5,
        help="timed repetitions per scenario for the fresh run (default 5)",
    )
    args = parser.parse_args(argv)

    baseline_path = pathlib.Path(args.baseline)
    if not baseline_path.exists():
        print(f"[perf] no baseline at {baseline_path}; nothing to compare", file=sys.stderr)
        return 2
    baseline = json.loads(baseline_path.read_text())

    print("[perf] running fresh micro suite (seed + optimised) ...")
    fresh = run_suite("micro", repeat=args.repeat, warmup=1)

    failures = compare(baseline, fresh, args.threshold)
    if failures:
        print("\n[perf] FAIL:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("[perf] all scenarios within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
