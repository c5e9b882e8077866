"""CLI for the sweep orchestrator: ``repro sweep`` and ``repro paper``.

``python -m repro paper`` is the one-command reproduction: sweep the full
paper plan into the result store, assemble every figure/table into
``--out`` (default ``out/paper``), and write the ``repro-manifest/1``
manifest.  A second invocation is pure cache assembly — byte-identical
artifacts, an order of magnitude faster.

``python -m repro sweep`` runs only the store-filling phase, with
``--shard i/n`` for multi-machine sweeps over a shared store: each machine
computes its hash-slice of the grid, then steals whatever is still
missing.  Afterwards ``repro paper`` on any machine assembles from the
warm store.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..experiments.parallel import env_workers
from .orchestrator import run_sweep
from .paper import ARTIFACTS, DEFAULT_PROFILE, PROFILES, paper_plan, reproduce_paper
from .plan import parse_shard
from .store import ResultStore, ResultStoreError

#: Default result-store directory (relative to the invocation directory;
#: point every shard of a multi-machine sweep at the same shared path).
DEFAULT_STORE = "repro-results"


def _common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", choices=sorted(PROFILES), default=DEFAULT_PROFILE,
                        help=f"repetition/scale profile (default {DEFAULT_PROFILE}): "
                        + "; ".join(f"{p.name} = {p.description}" for p in PROFILES.values()))
    parser.add_argument("--store", default=DEFAULT_STORE, metavar="DIR",
                        help=f"result-store directory (default {DEFAULT_STORE}/; "
                        "share it between shards/machines to split a sweep)")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool size (default: REPRO_WORKERS "
                        "env var, else CPU count capped at 16)")
    parser.add_argument("--force", action="store_true",
                        help="recompute cached cells (this shard's own slice)")
    parser.add_argument("--only", action="append", default=None, metavar="NAME",
                        choices=sorted(ARTIFACTS),
                        help="restrict to named artifact(s); repeatable "
                        f"(known: {', '.join(ARTIFACTS)})")


def sweep_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Fill the result store with the paper plan's cells "
        "(resumable; shard with --shard i/n across machines sharing the store).",
    )
    _common_arguments(parser)
    parser.add_argument("--shard", default="0/1", metavar="I/N",
                        help="compute shard i of n (default 0/1 = everything); "
                        "idle shards steal still-missing foreign cells")
    args = parser.parse_args(argv)
    try:
        shard = parse_shard(args.shard)
        workers = args.workers if args.workers is not None else env_workers()
        plan = paper_plan(PROFILES[args.profile], args.only)
    except ValueError as exc:
        parser.error(str(exc))
    store = ResultStore(args.store)
    print(f"[sweep] plan {plan.name}: {len(plan)} cells -> {store.root}/")
    try:
        run_sweep(
            plan, store, shard=shard, workers=workers, force=args.force, log=print
        )
    except ResultStoreError as exc:
        # Data-integrity failures are not usage errors: no usage block.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def paper_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro paper",
        description="One-command paper reproduction: sweep every supported "
        "figure/table into the result store, assemble the artifacts, and "
        "write a manifest (repro-manifest/1) recording hashes and timings.",
    )
    _common_arguments(parser)
    parser.add_argument("--out", default="out/paper", metavar="DIR",
                        help="artifact output directory (default out/paper)")
    args = parser.parse_args(argv)
    try:
        workers = args.workers if args.workers is not None else env_workers()
    except ValueError as exc:
        parser.error(str(exc))
    profile = PROFILES[args.profile]
    try:
        doc, manifest_path = reproduce_paper(
            args.out,
            ResultStore(args.store),
            profile,
            workers=workers,
            force=args.force,
            only=args.only,
            log=print,
        )
    except ResultStoreError as exc:
        # A corrupted store cell is a data problem, not a flag problem.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    artifacts = doc["artifacts"]
    fresh = doc["sweep"].get("computed", 0) + len(doc["assembly_computed"])
    print(
        f"[paper] {len(artifacts)} artifacts in {doc['elapsed_s']:.1f}s "
        f"({fresh} cells computed, profile={profile.name}, rev={doc['git_rev'][:12]})"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via `-m repro`
    sys.exit(paper_main())
