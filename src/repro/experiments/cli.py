"""Command-line interface: regenerate any paper experiment from a shell.

Usage (after ``pip install -e .`` / ``python setup.py develop``)::

    python -m repro fig4 --runs 5
    python -m repro fig8 --runs 2 --peers 80
    python -m repro table1 --runs 3 --workers 8
    python -m repro table2
    python -m repro query_cost
    python -m repro bench --suite micro
    python -m repro paper --out out/paper
    python -m repro sweep --shard 0/4 --store /mnt/shared/repro-results
    python -m repro run --workload flash_crowd:S3L --units 120 --trace t.jsonl
    python -m repro run --replay t.jsonl --lb kc:k=8
    python -m repro serve --peers 8 --demo
    python -m repro list

The positional names are the keys of the artifact registry
(:data:`repro.experiments.ARTIFACTS`); each prints the text ``repro paper``
writes for it — figures an ASCII plot plus the per-unit series table,
tables the paper-layout text table.  ``--runs`` defaults to the artifact's
own (the paper's) repetition count.  ``--workers`` > 1 runs the artifact's
batch of configs on one process pool (default: the ``REPRO_WORKERS``
environment variable if set, else 1).  ``run`` executes one configuration under
any workload spec (see :mod:`repro.workloads.spec`), optionally recording
the workload to a ``repro-trace/1`` JSONL file (``--trace``) or replaying
one (``--replay``), and reports a per-phase breakdown.  ``paper`` and
``sweep`` are the one-command reproduction pipeline (result store,
sharding, manifest — see :mod:`repro.sweeps` and ``docs/reproduction.md``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import ARTIFACTS
from .parallel import env_workers
from .runner import run_labeled_series
from .tables import phase_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Regenerate the figures and tables of Caron, Desprez, Tedeschi: "
            "'Efficiency of Tree-Structured P2P Service Discovery Systems' "
            "(INRIA RR-6557, 2008)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[*ARTIFACTS, "list"],
        help="which experiment to regenerate (or 'list' to enumerate)",
    )
    parser.add_argument("--runs", type=int, default=None,
                        help="repetitions per configuration (default: paper values)")
    parser.add_argument("--peers", type=int, default=100,
                        help="platform size (default 100, the paper's)")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool size for figure sweeps (default: "
                        "the REPRO_WORKERS env var if set, else 1)")
    parser.add_argument("--no-plot", action="store_true",
                        help="skip the ASCII plot, print series table only")
    return parser


def _run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description=(
            "Run one simulation under any workload spec; optionally record "
            "the workload to a repro-trace/1 JSONL file or replay one."
        ),
    )
    parser.add_argument("--workload", default=None,
                        help="workload spec, e.g. uniform, zipf:1.2, hotspot:S3L, "
                        "figure8, flash_crowd:S3L:onset=40, "
                        "diurnal:period=24:amplitude=0.5, adversarial:S3L")
    parser.add_argument("--peers", type=int, default=100, help="platform size")
    parser.add_argument("--units", type=int, default=None,
                        help="time units (default 50; a replay runs the trace's length)")
    parser.add_argument("--growth", type=int, default=None,
                        help="units during which the tree grows (default 10; "
                        "a replay registers what the trace recorded)")
    parser.add_argument("--load", type=float, default=None,
                        help="requests per unit / aggregate capacity (default 0.10)")
    parser.add_argument("--lb", default="nolb",
                        help="balancer spec: nolb, mlt[:fraction=..], kc[:k=..]")
    parser.add_argument("--faults", default=None,
                        help="fault spec, e.g. crash_storm:0.02, "
                        "crash_storm:0.05:r=2:repair_every=4, "
                        "correlated:0.3@40, partition:8@40:fraction=0.25; "
                        "with --replay the trace supplies the events and "
                        "only the spec's r=/repair_every= policy applies "
                        "(omit it to replay with no replication)")
    parser.add_argument("--queries", default=None,
                        help="set-query spec (see docs/queries.md), e.g. "
                        "mixed, mixed:n=6, prefix:n=4:len=2, "
                        "range:n=4:span=16, exact:n=2")
    parser.add_argument("--churn", choices=("stable", "dynamic", "frozen"),
                        default=None, help="churn model (default stable)")
    parser.add_argument("--accounting", choices=("destination", "transit"),
                        default="destination")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (default: the config's)")
    parser.add_argument("--run-index", type=int, default=None,
                        help="which common-random-numbers run to execute "
                        "(default 0; a replay uses the trace's)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record the workload to a repro-trace/1 JSONL file")
    parser.add_argument("--replay", default=None, metavar="PATH",
                        help="replay a recorded trace instead of generating traffic")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the run's metrics JSON (stable layout)")
    return parser


def _run_main(argv) -> int:
    from ..peers import churn as churn_mod
    from ..util.specs import parse_spec
    from ..workloads.traces import TraceError, WorkloadTrace
    from .config import ExperimentConfig
    from .metrics import phase_breakdown, run_metrics_dict
    from .runner import record_single, run_single

    parser = _run_parser()
    args = parser.parse_args(argv)
    if args.trace and args.replay:
        parser.error("--trace records and --replay replays; pick one")
    if args.replay:
        # The trace records the workload side (requests, churn events,
        # growth) and pins seed/run-index in its header; rejecting these
        # flags beats silently running something other than what the user
        # asked for.
        # --faults stays legal with --replay: the trace fixes the fault
        # *events*, while the spec's policy half (r=, repair_every=) selects
        # the system's response — pass the recording's spec to reproduce it
        # byte-identically, a different policy for a controlled comparison.
        for flag, value in (("--units", args.units), ("--growth", args.growth),
                            ("--run-index", args.run_index),
                            ("--workload", args.workload), ("--load", args.load),
                            ("--queries", args.queries),
                            ("--churn", args.churn), ("--seed", args.seed)):
            if value is not None:
                parser.error(f"{flag} conflicts with --replay: the trace "
                             "already fixes it")

    churn = {"stable": churn_mod.STABLE, "dynamic": churn_mod.DYNAMIC,
             "frozen": churn_mod.FROZEN}[args.churn or "stable"]
    kwargs = dict(
        n_peers=args.peers,
        total_units=args.units if args.units is not None else 50,
        growth_units=args.growth if args.growth is not None else 10,
        load_fraction=args.load if args.load is not None else 0.10,
        workload=args.workload,
        faults=args.faults,
        queries=args.queries,
        churn=churn,
        accounting=args.accounting,
    )
    if args.seed is not None:
        kwargs["seed"] = args.seed
    try:
        config = ExperimentConfig(lb=parse_spec("balancer", args.lb), **kwargs)
    except ValueError as exc:
        parser.error(str(exc))

    start = time.perf_counter()
    if args.replay:
        try:
            trace = WorkloadTrace.load(args.replay)
        except (OSError, TraceError) as exc:
            parser.error(str(exc))
        result = run_single(config, replay=trace)
        windows = [(f"replay:{args.replay}", 0, trace.n_units)]
        # Describe only the system side under test; workload, churn, length
        # and seed all come from the trace, not the config.
        print(f"# replay of {args.replay} ({trace.n_units} units, "
              f"{trace.total_requests} requests, seed={trace.seed}) | "
              f"lb={config.lb.name} | {config.n_peers} peers | "
              f"accounting={config.accounting}")
    else:
        run_index = args.run_index if args.run_index is not None else 0
        if args.trace:
            result, trace = record_single(config, run_index)
            path = trace.dump(args.trace)
            print(f"[run] recorded trace -> {path}")
        else:
            result = run_single(config, run_index)
        windows = config.schedule.phase_windows(config.total_units)
        print(f"# {config.describe()}")
    elapsed = time.perf_counter() - start

    print()
    print(phase_table(phase_breakdown(result, windows)))
    pct = 100.0 * result.total_satisfied / result.total_issued if result.total_issued else 0.0
    print(f"\ntotal: {result.total_satisfied}/{result.total_issued} "
          f"satisfied ({pct:.1f}%) in {elapsed:.1f}s")
    _print_fault_summary(result)
    _print_query_summary(result)
    if args.metrics_out:
        # Label with the system side only (balancer), never the workload
        # source: a recorded run and its replay must serialise identically.
        doc = run_metrics_dict(result, label=config.lb.name)
        with open(args.metrics_out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[run] wrote metrics -> {args.metrics_out}")
    return 0


def _print_query_summary(result) -> None:
    """Set-query report of a run with a ``--queries`` axis (silent when no
    set query was issued)."""
    from .metrics import percentile_from_counts

    units = result.units
    issued = sum(u.queries_issued for u in units)
    if issued == 0:
        return
    satisfied = sum(u.queries_satisfied for u in units)
    results = sum(u.query_results for u in units)
    logical = sum(u.query_logical_hops for u in units)
    physical = sum(u.query_physical_hops for u in units)
    hist: dict[int, int] = {}
    for u in units:
        for hops, count in u.query_hop_histogram.items():
            hist[hops] = hist.get(hops, 0) + count
    print("\nqueries:")
    print(f"  issued: {issued} | satisfied: {satisfied} "
          f"({100.0 * satisfied / issued:.1f}%) | results: {results}")
    if satisfied:
        print(f"  hops/query: {logical / satisfied:.2f} logical, "
              f"{physical / satisfied:.2f} physical"
              + (f" | logical p95: {percentile_from_counts(hist, 95.0):.0f}"
                 if hist else ""))


def _print_fault_summary(result) -> None:
    """Availability/durability report of a fault-bearing run (silent when
    no fault event occurred)."""
    from .metrics import percentile_from_counts

    units = result.units
    crashes = sum(u.crashes for u in units)
    partitioned = sum(u.partitioned for u in units)
    if crashes == 0 and partitioned == 0:
        return
    lost = sum(u.keys_lost for u in units)
    recovered = sum(u.keys_recovered for u in units)
    unrecoverable = sum(u.keys_unrecoverable for u in units)
    repair_cost = sum(u.repair_cost for u in units)
    ttr: dict[int, int] = {}
    for u in units:
        for delay, count in u.ttr_histogram.items():
            ttr[delay] = ttr.get(delay, 0) + count
    availability = [u.key_availability_pct for u in units if u.keys_expected]
    failures = 100.0 * sum(u.not_found for u in units) / result.total_issued \
        if result.total_issued else 0.0
    print("\nfaults:")
    print(f"  crashes: {crashes} | partitioned peer-units: {partitioned}")
    print(f"  keys lost: {lost} | recovered from replicas: {recovered} | "
          f"unrecoverable: {unrecoverable}")
    print(f"  repair cost: {repair_cost} re-registrations"
          + (f" ({repair_cost / crashes:.1f}/crash)" if crashes else ""))
    if ttr:
        print(f"  time-to-repair p95: {percentile_from_counts(ttr, 95.0):.0f} units")
    if availability:
        print(f"  key availability: mean {sum(availability) / len(availability):.1f}% | "
              f"final {availability[-1]:.1f}%")
    print(f"  lookup-failure rate: {failures:.1f}% of requests")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "bench":
        # The bench subcommand owns its options; delegate before the
        # experiment parser rejects them.
        from ..perf.bench import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "run":
        return _run_main(argv[1:])
    if argv and argv[0] == "paper":
        from ..sweeps.cli import paper_main

        return paper_main(argv[1:])
    if argv and argv[0] == "sweep":
        from ..sweeps.cli import sweep_main

        return sweep_main(argv[1:])
    if argv and argv[0] == "serve":
        from ..net.serve import main as serve_main

        return serve_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name in [*ARTIFACTS, "bench", "paper", "run", "serve", "sweep"]:
            print(name)
        return 0

    try:
        if args.runs is not None and args.runs < 1:
            raise ValueError("--runs must be >= 1")
        if args.peers < 2:
            raise ValueError("--peers must be >= 2")
        if args.workers is None:
            args.workers = env_workers(default=1)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    artifact = ARTIFACTS[args.experiment]
    # The artifact hands its whole batch of configs to one runner; bind the
    # worker count so all the batch's runs share one pool.
    result = artifact.run(
        args.runs,
        functools.partial(run_labeled_series, workers=args.workers),
        n_peers=args.peers,
    )
    print(artifact.render(result, no_plot=args.no_plot), end="")
    elapsed = time.perf_counter() - start
    print(f"\n[{args.experiment} regenerated in {elapsed:.1f}s]")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
