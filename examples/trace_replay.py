#!/usr/bin/env python
"""Record a workload trace, replay it under every balancer.

Extends the Section 4 methodology (common random numbers across the three
curves of Figures 4–8) to its logical end: record the *entire workload* of
one run — churn arrivals and departures, registrations, every request with
its entry node — into a ``repro-trace/1`` JSONL stream, then replay the
identical traffic against MLT, KC and No-LB.  Replaying against the
recording configuration reproduces its metrics byte-for-byte; replaying
against the others is the paper's comparison on literally frozen traffic.

The workload here is a flash crowd on the S3L library (the Figure 8 hot
spot) with a diurnal rate cycle underneath — two of the generators the
workload subsystem adds beyond the paper's uniform/hot-spot regimes.

Run:  python examples/trace_replay.py
"""

from __future__ import annotations

import json
import tempfile

from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import phase_breakdown, run_metrics_dict
from repro.experiments.runner import record_single, replay_single
from repro.experiments.tables import phase_table
from repro.peers.churn import DYNAMIC
from repro.util.specs import parse_spec
from repro.workloads.traces import WorkloadTrace


def main() -> None:
    config = ExperimentConfig(
        n_peers=60,
        total_units=60,
        growth_units=10,
        load_fraction=0.4,
        churn=DYNAMIC,
        workload={
            "kind": "diurnal",
            "period": 30,
            "amplitude": 0.4,
            "inner": "flash_crowd:S3L:onset=25:half_life=6",
        },
        lb=parse_spec("balancer", "mlt"),
    )

    print(f"recording:  {config.describe()}")
    result, trace = record_single(config)
    with tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False) as fh:
        path = fh.name
        fh.write(trace.dumps())
    print(f"trace: {trace.n_units} units, {trace.total_requests} requests -> {path}\n")
    print(phase_table(phase_breakdown(result, config.schedule.phase_windows(config.total_units))))

    reloaded = WorkloadTrace.load(path)
    replayed = replay_single(config, reloaded)
    identical = json.dumps(run_metrics_dict(result), sort_keys=True) == json.dumps(
        run_metrics_dict(replayed), sort_keys=True
    )
    print(f"\nreplay vs recording metrics identical: {identical}")

    print("\nsame trace, every balancer:")
    for spec in ("mlt", "kc", "nolb"):
        res = replay_single(config.with_lb(parse_spec("balancer", spec)), reloaded)
        pct = 100.0 * res.total_satisfied / res.total_issued
        print(f"  {spec:>4}: {res.total_satisfied}/{res.total_issued} satisfied ({pct:.1f}%)")


if __name__ == "__main__":
    main()
