"""Workloads: service-key corpora, request generators, time-varying
dynamics, spec parsing, and trace record/replay.

Every phase timeline — :class:`MixedSchedule`, the paper's
:class:`PhasedSchedule` and the fault axis's
:class:`repro.faults.MixedFaults` — is a list of one record,
:class:`Phase`, looked up per unit by :func:`phase_at` and read from a
``mixed`` spec by :func:`read_phases`."""

from .dynamics import (
    AdversarialPrefixStacking,
    DiurnalSchedule,
    FlashCrowd,
    MixedSchedule,
    Phase,
    PhasedSchedule,
    SteadySchedule,
    as_schedule,
    figure8_schedule,
    phase_at,
)
from .keys import (
    blas_routines,
    grid_service_corpus,
    lapack_routines,
    paper_figure1_binary_keys,
    random_binary_keys,
    s3l_routines,
    scalapack_routines,
)
from .requests import (
    HotSpotRequests,
    RequestGenerator,
    UniformRequests,
    WorkloadSchedule,
    ZipfRequests,
    generator_name,
)
from .queries import (
    QUERY_KINDS,
    QueryWorkload,
    parse_query_event,
    queries_signature,
    query_from_event,
)
from .spec import (
    WORKLOAD_KINDS,
    WorkloadSpecError,
    read_phases,
    workload_signature,
)
from .traces import (
    TRACE_SCHEMA,
    TraceError,
    TraceUnit,
    WorkloadTrace,
)

__all__ = [
    "grid_service_corpus", "blas_routines", "lapack_routines",
    "scalapack_routines", "s3l_routines", "paper_figure1_binary_keys",
    "random_binary_keys",
    "RequestGenerator", "WorkloadSchedule", "generator_name",
    "UniformRequests", "HotSpotRequests", "ZipfRequests",
    "FlashCrowd", "DiurnalSchedule", "AdversarialPrefixStacking",
    "SteadySchedule", "as_schedule",
    "Phase", "phase_at", "MixedSchedule", "PhasedSchedule", "figure8_schedule",
    "WORKLOAD_KINDS", "WorkloadSpecError", "read_phases", "workload_signature",
    "QUERY_KINDS", "QueryWorkload", "parse_query_event",
    "queries_signature", "query_from_event",
    "TRACE_SCHEMA", "TraceError", "TraceUnit", "WorkloadTrace",
]
