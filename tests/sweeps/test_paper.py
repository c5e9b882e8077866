"""One-command reproduction: plan coverage, manifest, CLI, determinism."""

from __future__ import annotations

import json

import pytest

from repro.experiments import ARTIFACTS
from repro.experiments.cli import main
from repro.sweeps import (
    PROFILES,
    ResultStore,
    load_manifest,
    paper_plan,
    reproduce_paper,
)

#: The CI-grade profile: every test below runs the real 10-artifact
#: pipeline at 20 peers / 1 run per cell (a few seconds in total).
SMOKE = PROFILES["smoke"]


@pytest.fixture(scope="module")
def reproduction(tmp_path_factory):
    """One shared cold reproduction (module-scoped: the pipeline is the
    expensive part; every test only reads its outputs)."""
    root = tmp_path_factory.mktemp("paper")
    store = ResultStore(root / "store")
    doc, manifest_path = reproduce_paper(root / "out", store, SMOKE)
    return root, store, doc, manifest_path


class TestPlanCoversAssembly:
    def test_assembly_after_sweep_is_all_cache_hits(self, reproduction):
        """The declarative plan and the artifact builders must never drift.

        ``reproduce_paper`` sweeps the plan *before* assembling, so even on
        a cold store the assembly phase must be pure cache hits — a
        non-empty ``assembly_computed`` means the plan missed a cell some
        builder needs."""
        _, _, doc, _ = reproduction
        assert doc["assembly_computed"] == [], (
            f"plan drifted from assembly; missing cells: {doc['assembly_computed']}"
        )

    def test_store_holds_exactly_the_plan(self, reproduction):
        _, store, _, _ = reproduction
        assert sorted(store.keys()) == sorted(paper_plan(SMOKE).keys())


class TestDirectPathMatchesStorePath:
    """`python -m repro <name>` and `repro paper` derive from one registry
    entry; at the same (n_peers, seed, runs) they must agree to the byte."""

    @pytest.mark.parametrize("name", ["fig4", "fault_repair", "table1"])
    def test_same_text_and_table(self, tmp_path, capsys, name):
        artifact = ARTIFACTS[name]
        reproduce_paper(
            tmp_path / "out", ResultStore(tmp_path / "store"), SMOKE, only=[name]
        )
        stored = (tmp_path / "out" / f"{name}.txt").read_text()
        runs = SMOKE.runs_for(artifact)
        direct = artifact.run(runs, n_peers=SMOKE.n_peers, seed=SMOKE.seed)
        assert stored == artifact.render(direct, include_params=True)
        assert stored.endswith(direct.as_text() + "\n")
        # ... and the CLI prints that same header and table.
        argv = [name, "--runs", str(runs), "--peers", str(SMOKE.n_peers), "--no-plot"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert printed.startswith(stored.splitlines()[0] + "\n")
        assert direct.as_text() in printed


class TestReproducePaper:
    def test_all_artifacts_written(self, reproduction):
        root, _, doc, _ = reproduction
        assert set(doc["artifacts"]) == set(ARTIFACTS)
        for record in doc["artifacts"].values():
            path = root / "out" / record["path"]
            assert path.exists() and path.stat().st_size > 0

    def test_manifest_records_provenance(self, reproduction):
        _, _, doc, manifest_path = reproduction
        assert doc["schema"] == "repro-manifest/1"
        assert doc["profile"] == "smoke"
        assert doc["git_rev"] != "unknown"  # resolved from the source checkout
        assert doc["elapsed_s"] > 0
        # The cold run computed exactly the plan (fault grids overlap on
        # shared (r, rate) cells, which the plan de-duplicates).
        assert doc["sweep"]["computed"] == len(paper_plan(SMOKE))
        reloaded = load_manifest(manifest_path)
        assert reloaded["artifacts"].keys() == doc["artifacts"].keys()
        fig4 = doc["artifacts"]["fig4"]
        assert len(fig4["cells"]) == 3  # MLT, KC, NoLB
        assert fig4["computed_cells"] == fig4["cells"]  # cold: all fresh
        assert fig4["anchor"].startswith("Figure 4")

    def test_second_reproduction_is_byte_identical(self, reproduction):
        root, store, doc, _ = reproduction
        doc2, _ = reproduce_paper(root / "out2", store, SMOKE)
        for name, record in doc["artifacts"].items():
            assert doc2["artifacts"][name]["sha256"] == record["sha256"], name
        # ... and pure assembly: the warm pass computed no cells.
        assert all(not a["computed_cells"] for a in doc2["artifacts"].values())

    def test_only_restricts_artifacts(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        doc, _ = reproduce_paper(
            tmp_path / "out", store, SMOKE, only=["table2"]
        )
        assert set(doc["artifacts"]) == {"table2"}
        assert len(store) == 0  # table2 bypasses the store


class TestCLI:
    def test_paper_subcommand(self, tmp_path, capsys):
        code = main([
            "paper", "--profile", "smoke", "--only", "table2",
            "--store", str(tmp_path / "store"), "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "manifest.json" in out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["schema"] == "repro-manifest/1"

    def test_sweep_subcommand_resumes(self, tmp_path, capsys):
        args = [
            "sweep", "--profile", "smoke", "--only", "fig4",
            "--store", str(tmp_path / "store"),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "3 computed" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "0 computed" in warm and "3 cache hits" in warm

    def test_sweep_rejects_bad_shard(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--shard", "5/2", "--store", str(tmp_path / "s")])

    def test_list_names_the_new_subcommands(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "paper" in out and "sweep" in out
