"""One-command paper reproduction: profiles, plan derivation, assembly.

This module is the bridge between the declarative sweep machinery and the
paper's artifact registry (:data:`repro.experiments.ARTIFACTS`).  Both
halves derive from one declaration — :func:`artifact_cells` lists an
artifact's ``configs`` as sweep cells, :func:`build_artifact` runs the same
``configs`` through a :data:`~repro.experiments.runner.SeriesRunner` and
renders the result — so the plan can only list what the builder consumes.

``python -m repro paper`` (see :mod:`repro.sweeps.cli`) drives
:func:`reproduce_paper`: sweep the plan into the result store (resumable,
shardable), then assemble every artifact from the warm store and write a
``repro-manifest/1`` manifest.  Artifacts are plain text (ASCII plot +
series table — the repository's figure format throughout) and are
byte-stable: re-assembling from the same store yields identical files, so
equal manifest hashes certify an exact reproduction.

Profiles scale repetition counts: ``paper`` is full fidelity (each
artifact's own ``n_runs`` — the 30/50/100 repetitions of
conf_ipps_CaronDT08 Section 4), ``quick`` is the minutes-scale default,
``smoke`` the seconds-scale CI grade.  The per-cell seed is the profile's;
within one figure every balancer variant shares it — the paper's
common-random-numbers comparison — while run indices fan out the per-run
streams.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..experiments import ARTIFACTS, Artifact
from ..experiments.runner import SeriesRunner
from .plan import SweepCell, SweepPlan, plan_from_cells


@dataclass(frozen=True)
class SweepProfile:
    """How hard to push a reproduction: platform size and repetitions."""

    name: str
    description: str
    n_peers: int
    seed: int
    #: artifact name -> repetitions per cell; an artifact not listed runs
    #: its own (the paper's) ``n_runs``.
    runs: Mapping[str, int]

    def runs_for(self, artifact: Artifact) -> int:
        return self.runs.get(artifact.name, artifact.n_runs)


PROFILES: Dict[str, SweepProfile] = {
    "smoke": SweepProfile(
        name="smoke",
        description="seconds-scale CI grade: 20 peers, 1 run per cell",
        n_peers=20,
        seed=20080617,
        runs=dict.fromkeys(ARTIFACTS, 1),
    ),
    "quick": SweepProfile(
        name="quick",
        description="minutes-scale default: the paper's platform, few runs",
        n_peers=100,
        seed=20080617,
        runs={**dict.fromkeys(ARTIFACTS, 3),
              "table1": 2, "fault_availability": 2, "fault_repair": 2},
    ),
    "paper": SweepProfile(
        name="paper",
        description="full fidelity: the paper's 30/50/100 repetitions",
        n_peers=100,
        seed=20080617,
        runs={},
    ),
}

#: The default profile of ``python -m repro paper``.
DEFAULT_PROFILE = "quick"


def artifact_cells(artifact: Artifact, profile: SweepProfile) -> List[SweepCell]:
    """The sweep cells behind ``artifact``: one per labelled config."""
    configs = artifact.configs(n_peers=profile.n_peers, seed=profile.seed)
    return [
        SweepCell(config=config, n_runs=profile.runs_for(artifact), label=label)
        for label, config in configs.items()
    ]


def build_artifact(
    artifact: Artifact, profile: SweepProfile, run_series: Optional[SeriesRunner]
) -> str:
    """``artifact``'s text under ``profile``, its batch run by ``run_series``
    (the store-cached runner during ``repro paper``)."""
    result = artifact.run(
        profile.runs_for(artifact), run_series,
        n_peers=profile.n_peers, seed=profile.seed,
    )
    return artifact.render(result, include_params=True)


def paper_plan(
    profile: SweepProfile, only: Optional[Sequence[str]] = None
) -> SweepPlan:
    """The full (de-duplicated) cell grid behind the selected artifacts."""
    names = list(only) if only else list(ARTIFACTS)
    unknown = [n for n in names if n not in ARTIFACTS]
    if unknown:
        raise ValueError(
            f"unknown artifact(s) {unknown!r} (known: {', '.join(ARTIFACTS)})"
        )
    cells: List[SweepCell] = []
    for name in names:
        cells.extend(artifact_cells(ARTIFACTS[name], profile))
    return plan_from_cells(f"paper-{profile.name}", cells)


def reproduce_paper(
    out_dir: str | pathlib.Path,
    store: "ResultStore",
    profile: SweepProfile,
    workers: Optional[int] = None,
    force: bool = False,
    only: Optional[Sequence[str]] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Tuple[Dict[str, object], pathlib.Path]:
    """Regenerate every selected artifact into ``out_dir``; returns the
    manifest document and its path.

    Two phases: first the plan is swept into the store (so an interrupted
    reproduction resumes, and a prior ``repro sweep`` — sharded across
    machines or not — turns this into pure assembly), then each artifact
    is assembled via the store-cached runner and written with its SHA-256
    recorded in the manifest.  ``force`` recomputes the sweep's cells once,
    not once per consuming artifact.
    """
    from .manifest import (
        ArtifactRecord,
        build_manifest,
        file_sha256,
        write_manifest,
    )
    from .orchestrator import cached_series_runner, run_sweep

    emit = log or (lambda message: None)
    names = list(only) if only else list(ARTIFACTS)
    plan = paper_plan(profile, names)  # validates names
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()

    report = run_sweep(plan, store, workers=workers, force=force, log=log)
    swept = {outcome.key for outcome in report.computed}

    records: List[ArtifactRecord] = []
    assembly_computed: List[str] = []
    for name in names:
        artifact = ARTIFACTS[name]
        consumed: List[Tuple[str, str]] = []
        runner = cached_series_runner(
            store,
            workers=workers,
            on_cell=lambda cell, key, action, sink=consumed: sink.append((key, action)),
        )
        t0 = time.perf_counter()
        text = build_artifact(artifact, profile, runner)
        elapsed = time.perf_counter() - t0
        path = out / f"{name}.txt"
        path.write_text(text)
        assembly_computed.extend(
            key for key, action in consumed if action == "computed"
        )
        records.append(
            ArtifactRecord(
                name=name,
                path=path.name,
                sha256=file_sha256(path),
                anchor=artifact.anchor,
                elapsed_s=elapsed,
                cells=[key for key, _ in consumed],
                # "Fresh" means computed during this invocation — normally
                # in the sweep phase; assembly computes only on plan drift.
                computed_cells=[
                    key
                    for key, action in consumed
                    if action == "computed" or key in swept
                ],
            )
        )
        emit(f"[paper] wrote {path} ({artifact.anchor}, {elapsed:.1f}s)")

    doc = build_manifest(
        profile=profile.name,
        store_root=str(store.root),
        artifacts=records,
        elapsed_s=time.perf_counter() - start,
        sweep={
            "computed": len(report.computed),
            "cached": len(report.cached),
            "stolen": len(report.stolen),
        },
        assembly_computed=assembly_computed,
    )
    manifest_path = write_manifest(out / "manifest.json", doc)
    emit(f"[paper] wrote {manifest_path}")
    return doc, manifest_path
