"""Sweep orchestration: declarative plans, a content-addressed result
store, sharded execution with work stealing, and one-command paper
reproduction (``python -m repro paper``).

The pieces, bottom-up:

* :mod:`repro.sweeps.plan` — :class:`SweepCell` / :class:`SweepPlan` and
  the stable cell hash (SHA-256 over the resolved config signature);
* :mod:`repro.sweeps.store` — the ``repro-result/1`` on-disk store:
  atomic publishes, exact series round-trips, corruption detection;
* :mod:`repro.sweeps.orchestrator` — resumable sharded execution
  (``--shard i/n``) with cross-shard work stealing, plus the store-cached
  :data:`~repro.experiments.runner.SeriesRunner` the harnesses consume;
* :mod:`repro.sweeps.paper` — profiles, and the two derivations from the
  artifact registry (:data:`repro.experiments.ARTIFACTS`): an artifact's
  sweep cells and its assembled text, plus ``reproduce_paper``;
* :mod:`repro.sweeps.manifest` — the ``repro-manifest/1`` document tying
  artifact hashes to store cells, git revision and wall time;
* :mod:`repro.sweeps.cli` — the ``repro sweep`` / ``repro paper``
  subcommands.

End-to-end usage is documented in ``docs/reproduction.md``.
"""

from .manifest import MANIFEST_SCHEMA, build_manifest, git_revision, load_manifest
from .orchestrator import (
    CellOutcome,
    SweepReport,
    cached_series_runner,
    run_sweep,
)
from .paper import (
    DEFAULT_PROFILE,
    PROFILES,
    SweepProfile,
    artifact_cells,
    build_artifact,
    paper_plan,
    reproduce_paper,
)
from .plan import (
    SweepCell,
    SweepPlan,
    canonical_json,
    parse_shard,
    plan_from_cells,
    signature_hash,
)
from .store import RESULT_SCHEMA, ResultStore, ResultStoreError

__all__ = [
    "SweepCell", "SweepPlan", "canonical_json", "signature_hash", "parse_shard",
    "plan_from_cells",
    "RESULT_SCHEMA", "ResultStore", "ResultStoreError",
    "CellOutcome", "SweepReport", "run_sweep",
    "cached_series_runner",
    "PROFILES", "DEFAULT_PROFILE", "SweepProfile",
    "artifact_cells", "build_artifact", "paper_plan", "reproduce_paper",
    "MANIFEST_SCHEMA", "build_manifest", "git_revision", "load_manifest",
]
