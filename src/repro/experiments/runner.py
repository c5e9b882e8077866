"""The discrete-time experiment loop (paper Section 4).

"Each time unit is composed of several steps. (1) If MLT is enabled, a fixed
fraction of the peers executes the MLT load balancing. (2) A fixed fraction
of peers join the system (applying the KC algorithm if enabled, or just the
protocol detailed in Section 3, otherwise). (3) A fixed fraction of peers
leaves the system. (4) A fixed fraction of new services are added in the
tree (possibly resulting in the creation of new nodes). (5) Discovery
requests are sent to the tree (and results on the number of satisfied
discovery requests are collected)."

Common random numbers: every stochastic decision draws from a named stream
derived from the config seed, so runs that differ only in the balancer see
identical churn, identical capacities and identical request sequences —
the paper's three curves are then directly comparable.

Fault injection (extension): when the config carries a fault plan
(:mod:`repro.faults`), a step (3b) between departures and registrations
applies the unit's fault events — fail-stop crashes, partitions — and runs
the replication/repair policy, with availability and durability metrics
accounted per unit.

Record/replay: the workload side of a unit (churn arrivals, departures,
fault events, registrations, requests, set queries) is one
:class:`repro.workloads.traces.TraceUnit`, and every run applies one such
record per unit.  A live run draws each step's events into the unit's record
just before applying them; a replay takes the unit from a recorded
:class:`~repro.workloads.traces.WorkloadTrace` and applies it the same way; a
recording is the list of units the run applied.  A trace replayed against
its own configuration reproduces the run exactly (byte-identical metrics);
replayed against a different balancer or mapping it holds the traffic fixed
while the system under test varies.

Repetition: the unit that runs is a batch of labelled configs
(:func:`run_labeled_series`), every ``(config, run_index)`` task of it on
one pool (:func:`run_many_configs`); :func:`run_many` and
:func:`compare_balancers` are its one-config and per-balancer spellings.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..dlpt.system import DLPTSystem, corpus_peer_id_sampler
from ..faults.injector import REPLAY_POLICY_PLAN, FaultInjector
from ..util.rng import RngStreams
from ..workloads.queries import query_from_event
from ..workloads.traces import TraceUnit, WorkloadTrace
from .config import ExperimentConfig
from .metrics import ExperimentSeries, RunResult, UnitStats
from .parallel import default_workers


def build_system(
    config: ExperimentConfig,
    streams: RngStreams,
    system_factory: Callable[..., DLPTSystem] = DLPTSystem,
) -> DLPTSystem:
    """Bootstrap the platform: peers only, no services yet.

    ``system_factory`` is the class to construct — :class:`DLPTSystem`, or
    a subclass with the same constructor (the bench harness hands in its
    frozen reference, :class:`repro.perf.reference.SeedDLPTSystem`)."""
    sampler = (
        corpus_peer_id_sampler(config.corpus, config.alphabet)
        if config.peer_ids == "corpus"
        else None
    )
    system = system_factory(
        alphabet=config.alphabet,
        capacity_model=config.capacity_model,
        mapping_factory=config.mapping_factory,
        peer_id_sampler=sampler,
    )
    boot = streams.stream("bootstrap")
    cap = streams.stream("capacity")
    # Capacities are pre-drawn in peer order: the "capacity" and
    # "bootstrap" streams are independent, so a batched and a per-peer
    # ``add_peers`` consume each stream in exactly the same sequence.
    capacities = [config.capacity_model.sample(cap) for _ in range(config.n_peers)]
    system.add_peers(boot, config.n_peers, capacities=capacities)
    return system


def growth_batches(config: ExperimentConfig, streams: RngStreams) -> List[List[str]]:
    """Split the (shuffled) corpus into one registration batch per growth
    unit — the tree grows during the first ``growth_units`` units and then
    "remains the same"."""
    keys = list(config.corpus)
    streams.stream("corpus").shuffle(keys)
    n = config.growth_units
    base, extra = divmod(len(keys), n)
    batches, start = [], 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        batches.append(keys[start : start + size])
        start += size
    return batches


def _load_imbalance(system: DLPTSystem) -> float:
    """Hottest peer's received load over the mean received load this unit
    (1.0 = perfectly even, 0.0 = no request arrived)."""
    peak = 0
    total = 0
    count = 0
    for peer in system.ring.peers_unordered():
        load = peer.load
        total += load
        count += 1
        if load > peak:
            peak = load
    if total == 0 or count == 0:
        return 0.0
    return peak * count / total


def run_single(
    config: ExperimentConfig,
    run_index: int = 0,
    record: Optional[List[TraceUnit]] = None,
    replay: Optional[WorkloadTrace] = None,
    system_factory: Callable[..., DLPTSystem] = DLPTSystem,
) -> RunResult:
    """Execute one full simulation run and return its per-unit series.

    ``record`` (optional) is a list the run appends each unit's applied
    :class:`TraceUnit` to; pass a trace's ``units``.  ``replay`` (optional,
    exclusive with ``record``) drives the run from a recorded trace instead
    of the workload RNG streams: the trace's joins, leaves, fault events,
    registrations, requests and queries are re-issued verbatim while the
    balancer and mapping under test react live.  ``system_factory`` is the
    system class the run is executed on (see :func:`build_system`); it never
    changes a run's metrics.
    """
    if record is not None and replay is not None:
        raise ValueError("cannot record and replay in the same run")
    live = replay is None
    master_seed = config.seed
    if not live:
        # The trace header pins the recording's seed and run index; the
        # system-side streams (bootstrap, lb) must re-derive from them or
        # the replay is a different run than the recording.
        run_index = replay.run_index
        master_seed = replay.seed
    streams = RngStreams(master_seed).spawn(run_index)
    system = build_system(config, streams, system_factory)
    batches = growth_batches(config, streams) if live else []

    # Fault injection: driven by the config's fault plan, or — when a
    # fault-bearing trace is replayed under a fault-free config — by the
    # default replay policy (recorded events applied, repair every unit, no
    # replication).  The injector draws from its own "faults" stream, so a
    # fault-free run is bit-identical with or without this subsystem.
    fault_plan = config.fault_plan
    if fault_plan is None and not live and any(u.faults for u in replay.units):
        fault_plan = REPLAY_POLICY_PLAN
    injector = (
        FaultInjector(fault_plan, system, streams.stream("faults"))
        if fault_plan is not None
        else None
    )

    churn_rng = streams.stream("churn")
    cap_rng = streams.stream("capacity")
    lb_rng = streams.stream("lb")
    req_rng = streams.stream("requests")
    entry_rng = streams.stream("entry")
    # The "queries" stream exists only when the config carries a query
    # plan: query-free runs consume exactly the streams they always did,
    # so their results stay bit-identical with or without this axis.
    query_plan = config.query_plan
    query_rng = streams.stream("queries") if query_plan is not None else None

    available: List[str] = []
    result = RunResult()
    total_units = config.total_units if live else replay.n_units
    schedule = config.schedule

    for unit in range(total_units):
        stats = UnitStats()
        # The unit's workload events: drawn step by step below on a live
        # run (each draw sees the system the earlier steps left), read
        # whole from the trace on a replay.  Either way they are applied
        # by the same code.
        events = TraceUnit() if live else replay.units[unit]

        # (1) periodic load balancing (MLT) — uses last unit's history.
        if unit > 0:
            stats.migrations += config.lb.run_balancing(system, lb_rng)

        # (2) peer joins — capacity from the model, placement by the
        # balancer (KC) or random.
        if live:
            events.joins = [
                config.capacity_model.sample(cap_rng)
                for _ in range(config.churn.joins(len(system.ring), churn_rng))
            ]
        for capacity in events.joins:
            peer_id = config.lb.choose_join_id(system, capacity, lb_rng)
            system.add_peer(lb_rng, peer_id=peer_id, capacity=capacity)

        # (3) peer leaves — uniformly random victims.  The workload-side
        # randomness is the ring-position draw; it is applied modulo the
        # live ring size so the same trace drives any system.  ``id_at``
        # draws the same victim as indexing a full ``ids()`` copy (both are
        # the sorted id sequence) without the O(P) copy per leave.
        if live:
            events.leaves = [
                churn_rng.randrange(len(system.ring) - k)
                for k in range(config.churn.leaves(len(system.ring), churn_rng))
            ]
        for index in events.leaves:
            victim = system.ring.id_at(index % len(system.ring))
            departed = system.remove_peer(victim)
            if injector is not None:
                injector.on_peer_departed(departed)

        # (3b) fault injection — fail-stop crashes, partitions, repair.
        if injector is not None:
            if live:
                events.faults = injector.draw(unit)
            injector.begin_unit(unit, stats, events.faults)

        # (4) service registrations — the tree grows for growth_units units.
        if live and unit < len(batches):
            events.registrations = batches[unit]
        if events.registrations:
            if injector is not None:
                # Never grow a crash-damaged forest: force the repair first.
                injector.before_registrations(unit, stats)
            # One batched registration.  Replica refreshes run after the
            # batch: hosts and data are the same as under per-key
            # interleaving within one step, so the order is equivalent.
            system.register_batch(events.registrations)
            available.extend(events.registrations)
            if injector is not None:
                for key in events.registrations:
                    injector.on_registered(key)

        # (5) discovery requests under the per-unit capacity budget, scaled
        # by the schedule's rate multiplier (diurnal cycles, crowd surges).
        # The unit's keys and entry nodes are sampled up front — key draws
        # and entry draws come from two independent streams, so hoisting
        # them out of the serving loop consumes both streams identically —
        # and the whole batch is served in one indexed pass.  (n_nodes
        # guard: a crash wave can empty the whole tree before repair; no
        # entry node means no requests this unit.)
        capacity_total = system.ring.aggregate_capacity()
        if live and available and system.n_nodes:
            rate = schedule.rate_multiplier(unit)
            n_requests = max(1, round(config.load_fraction * capacity_total * rate))
            sample = schedule.sample
            keys = [sample(unit, req_rng, available) for _ in range(n_requests)]
            entries = system.random_entry_labels(entry_rng, n_requests)
            events.requests = list(zip(keys, entries))
        if events.requests:
            # ``skip_missing_entries``: a recorded entry node may not exist
            # in *this* system (a fault trace replayed under a weaker repair
            # policy) — the client knocked on a dead node.
            stats.absorb_requests(
                system.discover_batch(
                    events.requests,
                    accounting=config.accounting,
                    skip_missing_entries=True,
                )
            )

        # (5b) set queries — prefix completions, ranges and exact probes
        # through the routed scan path, drawn from the dedicated "queries"
        # stream.  A replay serves the trace's query events whenever
        # present, even under a query-free config.
        if live and query_plan is not None and available and system.n_nodes:
            drawn = query_plan.sample_unit(query_rng, available)
            entries = system.random_entry_labels(query_rng, len(drawn))
            events.queries = [event + [entry] for event, entry in zip(drawn, entries)]
        if events.queries:
            items = []
            for event in events.queries:
                query, entry = query_from_event(event)
                if system.tree.node(entry) is None:
                    # The recorded entry node does not exist in *this*
                    # system (cross-config replay): enter at the scan root.
                    entry = None
                items.append((query, entry))
            stats.absorb_queries(system.search_batch(items))

        if record is not None:
            record.append(events)
        stats.peers = system.n_peers
        stats.nodes = system.n_nodes
        stats.aggregate_capacity = capacity_total
        stats.load_imbalance = _load_imbalance(system)
        stats.keys_expected = len(available)
        # With fault injection keys can be missing; the O(1) filled-node
        # counter replaces the seed's O(nodes) tree walk per unit.  Without
        # injection no key can ever be missing.
        stats.keys_present = (
            system.registered_key_count if injector is not None else len(available)
        )
        system.end_time_unit()
        result.units.append(stats)

    return result


def record_single(
    config: ExperimentConfig,
    run_index: int = 0,
    meta: Optional[dict] = None,
) -> Tuple[RunResult, WorkloadTrace]:
    """Run once while recording; returns the run and its workload trace.

    The recorded run is bit-identical to an unrecorded ``run_single`` with
    the same arguments — a live run builds every unit's record anyway;
    recording only keeps them.
    """
    header = {"config": config.describe(), **(meta or {})}
    trace = WorkloadTrace(seed=config.seed, run_index=run_index, meta=header)
    result = run_single(config, run_index, record=trace.units)
    return result, trace


def replay_single(config: ExperimentConfig, trace: WorkloadTrace) -> RunResult:
    """Replay a recorded trace against ``config``'s balancer and mapping."""
    return run_single(config, replay=trace)


def run_many_configs(
    tasks: Sequence[Tuple[ExperimentConfig, int]],
    workers: Optional[int] = None,
) -> List[RunResult]:
    """Execute heterogeneous ``(config, run_index)`` tasks over one shared
    pool, preserving order.

    The one pool primitive: every batch — a figure's curves, a sweep
    wave's cells — submits *all* its tasks here, so every worker stays
    busy even when a configuration repeats fewer times than there are
    workers.  In-process for a single task or worker (``workers=None``
    takes ``REPRO_WORKERS`` / the CPU count).  Results are identical to
    sequential execution because each run derives its RNG streams from
    ``(seed, run_index)`` regardless of which process executes it.
    """
    workers = workers if workers is not None else default_workers()
    if workers <= 1 or len(tasks) <= 1:
        return [run_single(config, index) for config, index in tasks]
    pool_workers = min(workers, len(tasks))
    configs, indices = zip(*tasks)
    # ~4 chunks per worker balances IPC overhead (one pickle round-trip
    # per chunk) against tail latency when run times vary.
    chunksize = max(1, len(tasks) // (pool_workers * 4))
    with ProcessPoolExecutor(max_workers=pool_workers) as pool:
        return list(pool.map(run_single, configs, indices, chunksize=chunksize))


#: Anything that runs a batch of labelled configurations ``n_runs`` times
#: each: ``run_series(labeled_configs, n_runs) -> {label: series}``, where
#: ``labeled_configs`` is a sequence of ``(config, label)`` pairs.  The
#: batch is the only unit that runs: :func:`run_labeled_series` is the
#: default (the CLI binds its ``workers``), and :mod:`repro.sweeps` serves
#: the same contract from its result store.
SeriesRunner = Callable[
    [Sequence[Tuple[ExperimentConfig, str]], int], Dict[str, ExperimentSeries]
]


def unique_labels(labeled_configs: Sequence[Tuple[ExperimentConfig, str]]) -> List[str]:
    """The batch's labels in order; refuses a repeated one.  A batch's
    result is keyed by label, so two configs under one label could only be
    dropped or merged — every :data:`SeriesRunner` checks before any run
    starts."""
    labels: List[str] = []
    for _, label in labeled_configs:
        if label in labels:
            raise ValueError(
                f"duplicate series label {label!r}: every config of a batch "
                "needs its own label"
            )
        labels.append(label)
    return labels


def run_labeled_series(
    labeled_configs: Sequence[Tuple[ExperimentConfig, str]],
    n_runs: int,
    workers: Optional[int] = 1,
) -> Dict[str, ExperimentSeries]:
    """Run every ``(config, label)`` pair ``n_runs`` times; the default
    :data:`SeriesRunner`.

    All ``(config, run_index)`` tasks of the batch share one pool
    (:func:`run_many_configs`), in-process at the default ``workers=1``.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    labels = unique_labels(labeled_configs)
    runs = run_many_configs(
        [(config, i) for config, _ in labeled_configs for i in range(n_runs)],
        workers=workers,
    )
    return {
        label: ExperimentSeries(label=label, runs=runs[k * n_runs : (k + 1) * n_runs])
        for k, label in enumerate(labels)
    }


def run_many(
    config: ExperimentConfig,
    n_runs: int,
    label: Optional[str] = None,
) -> ExperimentSeries:
    """Repeat a configuration ``n_runs`` times (paper: 30/50/100): the
    batch of one."""
    label = label or config.lb.name
    return run_labeled_series([(config, label)], n_runs)[label]


def compare_balancers(
    config: ExperimentConfig,
    balancers,
    n_runs: int,
    run_series: Optional[SeriesRunner] = None,
) -> Dict[str, ExperimentSeries]:
    """Run the same experiment under each balancer (common random numbers);
    the figures' three-curve layout.  ``run_series`` overrides how the
    batch is run (a worker count, the result-store cache)."""
    return (run_series or run_labeled_series)(
        [(config.with_lb(lb), lb.name) for lb in balancers], n_runs
    )
