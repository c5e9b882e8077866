"""Experiment configuration (all Section 4 parameters in one place).

Paper defaults: ~100 peers, ~1000 tree nodes, capacity heterogeneity ratio 4,
KC with k = 4, 50 time units (Figures 4–7) of which the first 10 grow the
tree, 160 units for the hot-spot experiments (Figures 8–9), 30/50/100
repetitions.  The *load* of a run is the ratio between the number of
requests issued per unit and the aggregated capacity of all peers (Table 1's
left column).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from ..core.alphabet import PRINTABLE, Alphabet
from ..lb.base import LoadBalancer
from ..peers.capacity import UniformCapacity
from ..peers.churn import STABLE, ChurnModel
from ..util.specs import parse_spec, spec_signature
from ..workloads.keys import grid_service_corpus
from ..workloads.requests import PhasedSchedule, Phase, UniformRequests, generator_name


def default_schedule() -> PhasedSchedule:
    """Uniform requests for the whole run (Figures 4–7)."""
    return PhasedSchedule([Phase(0, 10_000, UniformRequests())])


@dataclass
class ExperimentConfig:
    """Everything one simulation run needs.

    ``load_fraction`` is Table 1's load: requests issued per unit divided by
    the platform's aggregate capacity at that unit.

    Every field is part of *what* is simulated and enters
    :meth:`signature`.  Which implementation simulates it is not a config
    matter: the runner takes the system class as an argument
    (``run_single(config, system_factory=...)``).
    """

    # platform
    n_peers: int = 100
    capacity_model: UniformCapacity = field(default_factory=UniformCapacity)
    alphabet: Alphabet = PRINTABLE
    mapping_factory: Optional[Callable] = None  # None -> lexicographic

    # workload
    corpus: Sequence[str] = field(default_factory=grid_service_corpus)
    growth_units: int = 10
    total_units: int = 50
    load_fraction: float = 0.10
    #: A workload spec (string, dict, generator, or schedule — see
    #: :mod:`repro.workloads.spec`), or ``None`` for
    #: :func:`default_schedule`.  Parsed at config time into ``schedule``,
    #: the schedule the runner draws requests from.
    workload: Optional[object] = None
    #: A set-query spec (string, dict, or :class:`QueryWorkload` — see
    #: :mod:`repro.workloads.queries`), or ``None`` for no query axis.
    #: Parsed at config time into ``query_plan``; the runner issues the
    #: per-unit prefix/range/exact stream from it.
    queries: Optional[object] = None
    #: Capacity accounting: "destination" charges the destination peer only
    #: (the model consistent with the paper's min(L,C)+min(L,C) objective);
    #: "transit" charges every peer along the route (ablation).
    accounting: str = "destination"
    #: Peer identifiers: "corpus" draws them from the service-key namespace
    #: (peers and nodes share the id space; ring density follows key
    #: density), "uniform" draws uniform random digit strings (ablation —
    #: leaves service-name clusters on very few peers).
    peer_ids: str = "corpus"

    # dynamics
    churn: ChurnModel = STABLE
    #: A fault spec (string, dict, schedule, or :class:`FaultPlan` — see
    #: :mod:`repro.faults.spec`), or ``None`` for a fault-free run.  Parsed
    #: at config time into ``fault_plan``; the runner injects crashes,
    #: partitions, replication and repair from it.
    faults: Optional[object] = None

    # load balancing
    lb: LoadBalancer = field(default_factory=LoadBalancer)

    # reproducibility
    seed: int = 20080617  # the report's HAL submission date

    def __post_init__(self) -> None:
        if self.n_peers < 2:
            raise ValueError("need at least 2 peers")
        if not self.corpus:
            raise ValueError("corpus must not be empty")
        if self.growth_units < 1 or self.growth_units > self.total_units:
            raise ValueError("growth_units must be within the run length")
        if self.load_fraction <= 0:
            raise ValueError("load_fraction must be positive")
        # Workload validation happens here, at config-parse time: specs are
        # built (raising WorkloadSpecError on bad input) and pre-built
        # objects are checked against the runtime protocols; a bare
        # RequestGenerator is wrapped into a steady schedule.  The runner
        # never sees an invalid workload.
        workload = default_schedule() if self.workload is None else self.workload
        self.schedule = parse_spec("workload", workload)
        # Fault specs are validated here too (FaultSpecError on bad input);
        # the runner consumes the parsed plan, never the raw spec.
        self.fault_plan = parse_spec("faults", self.faults)
        # Query specs likewise (QuerySpecError on bad input).
        self.query_plan = parse_spec("queries", self.queries)

    def with_lb(self, lb: LoadBalancer) -> "ExperimentConfig":
        """The same experiment under a different balancer — the controlled
        comparison every figure makes (common seed, common workload)."""
        return replace(self, lb=lb)

    def signature(self) -> dict:
        """Canonical, JSON-serialisable description of every semantic field.

        Two configs that would simulate identically produce equal
        signatures; changing any parameter that affects the simulation —
        platform size, workload, balancer options, seed — changes it.  The
        corpus is content-hashed (it can run to thousands of keys) and the
        balancer/capacity models contribute their public constructor state,
        so presentation details (labels, reprs) never enter.  This is the
        identity the sweep result store (:mod:`repro.sweeps`) keys cells on.

        Caveat: ``mapping_factory`` is identified by its qualified name —
        distinct *named* factories (classes, functions) are distinguished,
        but two anonymous callables defined at the same spot (lambdas,
        ``functools.partial`` over different arguments) are not; give custom
        factories distinct names before caching sweeps over them.
        """
        model = self.capacity_model
        if dataclasses.is_dataclass(model):
            capacity: dict = dataclasses.asdict(model)
        else:  # duck-typed models: public attributes only
            capacity = {k: v for k, v in vars(model).items() if not k.startswith("_")}
        capacity["kind"] = type(model).__name__
        corpus_blob = "\n".join(self.corpus).encode()
        signature: dict = {
            "n_peers": self.n_peers,
            "growth_units": self.growth_units,
            "total_units": self.total_units,
            "load_fraction": self.load_fraction,
            "accounting": self.accounting,
            "peer_ids": self.peer_ids,
            "seed": self.seed,
            "alphabet": {
                "name": self.alphabet.name,
                "digits": "".join(self.alphabet.digits),
            },
            "mapping": (
                "lexicographic"
                if self.mapping_factory is None
                else "{}.{}".format(
                    getattr(self.mapping_factory, "__module__", "?"),
                    getattr(
                        self.mapping_factory,
                        "__qualname__",
                        type(self.mapping_factory).__name__,
                    ),
                )
            ),
            "capacity_model": capacity,
            "churn": {
                "join_fraction": self.churn.join_fraction,
                "leave_fraction": self.churn.leave_fraction,
            },
            "lb": {
                "kind": type(self.lb).__name__,
                "params": {
                    k: v for k, v in vars(self.lb).items() if not k.startswith("_")
                },
            },
            "corpus": {
                "n_keys": len(self.corpus),
                "sha256": hashlib.sha256(corpus_blob).hexdigest(),
            },
            "workload": spec_signature("workload", self.schedule),
        }
        if self.fault_plan is not None:
            # Added only when a fault axis exists: fault-free configs keep
            # the pre-fault signature bytes, so sweep-store cells computed
            # before this axis existed stay addressable.
            signature["faults"] = spec_signature("faults", self.fault_plan)
        if self.query_plan is not None:
            # Added only when a query axis exists: query-free configs keep
            # the pre-query signature bytes (same rule as ``faults``).
            signature["queries"] = spec_signature("queries", self.query_plan)
        return signature

    def describe(self) -> str:
        # The paper's "stable network" still trickles 2% churn per unit;
        # "dynamic" is the 10% regime — split the label halfway between.
        net = "stable" if self.churn.join_fraction <= 0.05 else "dynamic"
        text = (
            f"{self.lb.name} | {net} network | load={self.load_fraction:.0%} | "
            f"{self.n_peers} peers | {len(self.corpus)} keys | "
            f"{self.total_units} units | workload={generator_name(self.schedule)}"
        )
        if self.fault_plan is not None:
            schedule = self.fault_plan.schedule
            name = getattr(schedule, "name", type(schedule).__name__)
            text += (
                f" | faults={name} (r={self.fault_plan.replication}, "
                f"repair_every={self.fault_plan.repair_every})"
            )
        return text
