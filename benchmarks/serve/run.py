#!/usr/bin/env python3
"""The ``serve`` benchmark: the live DLPT path, end to end and by layer.

    python3 benchmarks/serve/run.py --workload lookup_serial --seed 1 \\
        --seconds 16 --trace 0

launches ``python -m repro serve --peers 128`` as a separate process,
drives it through ``repro.net.client.DLPTClient`` over the UNIX socket,
checks every reply against an in-harness oracle, prints every metric by
name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` runs the
traced in-process replay instead and reports the per-layer ledger.
``--repeat K`` is the noise self-check.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import sys
from typing import NoReturn

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))


def _fail(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _bootstrap() -> None:
    """Build the program (byte-compile ``src/repro``), make it importable
    and run from the checkout root (the scratch paths are relative:
    UNIX-socket paths are length-limited).

    The byte-compile is not cosmetic.  Whether the server finds ``.pyc``
    files changes its start-up allocation pattern, and with it whether
    CPython's small-object allocator ends up releasing and re-mapping an
    arena on every request (README, "The .pyc effect": +35% server CPU).
    Compiling up front puts every launch of every run, in any
    environment, in the state a deployed server is in."""
    src = os.path.join(REPO_ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        _fail(f"no program to measure: {src}/repro is missing")
    import compileall

    if not compileall.compile_dir(os.path.join(src, "repro"), quiet=2):
        _fail("byte-compiling src/repro failed")
    sys.path.insert(0, src)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    os.chdir(REPO_ROOT)


def _print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6f} {units[name]}")


def _result_line(attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    })


def run_once(args) -> int:
    import serve_harness as harness

    if args.trace:
        import serve_trace

        doc = asyncio.run(serve_trace.run_traced(
            args.workload, args.seed, smoke=args.smoke, trace_out=args.trace_out))
        units = {name: unit for name, (unit, _) in serve_trace.PER_LAYER.items()}
    else:
        doc = asyncio.run(harness.run_end_to_end(
            args.workload, args.seed, args.seconds, smoke=args.smoke))
        units = {name: spec[0] for name, spec in harness.END_TO_END.items()}
        print(f"# {doc['segments']} segments x {doc['segment_ops']} ops; "
              f"p95 has {doc['p95_samples_beyond']} samples beyond it per segment, "
              f"p99 {doc['p99_samples_beyond']} (diagnostic only); "
              f"{doc['cpu_blocks']} cpu blocks")
        for name, value in doc["diagnostics"].items():
            print(f"# {name:30s} {value:14.6f}")
    print(f"# attempted {doc['attempted']} failed {doc['failed']}")
    for failure in doc["failures"]:
        print(f"# FAILED: {failure}")
    _print_metrics(doc["metrics"], units)
    print(_result_line(doc["attempted"], doc["failed"], doc["metrics"], units))
    return 0 if doc["failed"] == 0 else 1


def run_repeat(args) -> int:
    """Noise self-check: K end-to-end runs per workload on K seeds."""
    import serve_calib as calib
    import serve_harness as harness
    from serve_workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    status = 0
    for workload in names:
        docs = []
        for k in range(args.repeat):
            doc = asyncio.run(harness.run_end_to_end(
                workload, args.seed + k, args.seconds, smoke=args.smoke,
                out=lambda *_: None))
            docs.append(doc)
            print(f"# {workload} seed {doc['seed']}: attempted {doc['attempted']} "
                  f"failed {doc['failed']} " + " ".join(
                      f"{n}={v:.4f}" for n, v in doc["metrics"].items())
                  + f" raw.ops_per_s={doc['diagnostics']['raw.ops_per_s']:.1f}"
                  + f" raw.lat_p50_ms={doc['diagnostics']['raw.lat_p50_ms']:.4f}",
                  flush=True)
            if doc["failed"]:
                status = 1
        print(f"{workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
        print(f"  {'metric':20s} {'min':>12s} {'median':>12s} {'max':>12s} {'iqr%':>7s} {'bound%':>7s}")
        rows = [(n, [d["metrics"][n] for d in docs], harness.END_TO_END[n][2] * 100)
                for n in harness.END_TO_END]
        rows += [(n, [d["diagnostics"][n] for d in docs], float("nan"))
                 for n in ("lat_p95_ms", "raw.ops_per_s", "raw.lat_p50_ms", "raw.lat_p95_ms",
                           "raw.setup_s", "server.minflt_per_op")]
        for name, values, bound in rows:
            print(f"  {name:20s} {min(values):12.4f} {statistics.median(values):12.4f} "
                  f"{max(values):12.4f} {calib.spread_pct(values):7.2f} {bound:7.1f}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="run length; sizes the (fixed-count) op stream")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced in-process replay, per-layer metrics")
    parser.add_argument("--trace-out", default=None,
                        help="span ledger JSONL path (default: under .bench_tmp/)")
    parser.add_argument("--repeat", type=int, default=0, metavar="K",
                        help="noise self-check: K runs per workload, spread vs bound")
    parser.add_argument("--smoke", action="store_true",
                        help="2 short segments on a small tree (self-test)")
    args = parser.parse_args(argv)
    _bootstrap()
    from serve_harness import BenchError
    from serve_workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    try:
        if args.repeat:
            return run_repeat(args)
        if args.workload is None:
            _fail("--workload is required")
        return run_once(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
