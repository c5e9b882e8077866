"""Workloads: service-key corpora, request generators, time-varying
dynamics, spec parsing, and trace record/replay."""

from .dynamics import (
    AdversarialPrefixStacking,
    DiurnalSchedule,
    FlashCrowd,
    MixedSchedule,
    SchedulePhase,
    SteadySchedule,
    as_schedule,
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
    Phase,
    PhasedSchedule,
    RequestGenerator,
    UniformRequests,
    WorkloadSchedule,
    ZipfRequests,
    figure8_schedule,
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
    "Phase", "PhasedSchedule", "figure8_schedule",
    "FlashCrowd", "DiurnalSchedule", "AdversarialPrefixStacking",
    "MixedSchedule", "SchedulePhase", "SteadySchedule", "as_schedule",
    "WORKLOAD_KINDS", "WorkloadSpecError", "workload_signature",
    "QUERY_KINDS", "QueryWorkload", "parse_query_event",
    "queries_signature", "query_from_event",
    "TRACE_SCHEMA", "TraceError", "TraceUnit", "WorkloadTrace",
]
