"""Parallel runner determinism and the regeneration CLI."""

from __future__ import annotations

import functools

import pytest

from repro.experiments import ARTIFACTS
from repro.experiments import cli
from repro.experiments.cli import build_parser, main
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import default_workers, env_workers
from repro.experiments.runner import compare_balancers, run_labeled_series, run_many
from repro.lb.mlt import MLT
from repro.lb.nolb import NoLB
from repro.workloads.keys import blas_routines

TINY = dict(
    n_peers=10, corpus=blas_routines()[:40], growth_units=2,
    total_units=5, load_fraction=0.2,
)

#: The batch runner the CLI builds for ``--workers 2``.
TWO_WORKERS = functools.partial(run_labeled_series, workers=2)


class TestParallelRunner:
    def test_matches_sequential_exactly(self):
        cfg = ExperimentConfig(**TINY)
        seq = run_many(cfg, 3)
        par = run_labeled_series([(cfg, "NoLB")], 3, workers=3)["NoLB"]
        for a, b in zip(seq.runs, par.runs):
            assert a.satisfied_pct == b.satisfied_pct

    def test_single_worker_avoids_pool(self):
        cfg = ExperimentConfig(**TINY)
        series = run_labeled_series([(cfg, "NoLB")], 2, workers=1)["NoLB"]
        assert series.n_runs == 2

    def test_requires_runs(self):
        with pytest.raises(ValueError):
            run_labeled_series([(ExperimentConfig(**TINY), "NoLB")], 0)

    def test_compare_balancers_pooled_layout(self):
        cfg = ExperimentConfig(**TINY)
        out = compare_balancers(cfg, [MLT(), NoLB()], 2, run_series=TWO_WORKERS)
        assert set(out) == {"MLT", "NoLB"}
        assert all(s.n_runs == 2 for s in out.values())

    def test_compare_matches_sequential(self):
        cfg = ExperimentConfig(**TINY)
        seq = compare_balancers(cfg, [MLT(), NoLB()], 2)
        par = compare_balancers(cfg, [MLT(), NoLB()], 2, run_series=TWO_WORKERS)
        for name in seq:
            for a, b in zip(seq[name].runs, par[name].runs):
                assert a.satisfied_pct == b.satisfied_pct

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    @pytest.mark.parametrize("workers", [1, 3])
    def test_batch_equals_run_many_run_for_run(self, workers):
        batch = [(ExperimentConfig(**TINY, lb=lb), lb.name) for lb in (MLT(), NoLB())]
        out = run_labeled_series(batch, 2, workers=workers)
        assert list(out) == ["MLT", "NoLB"]
        for cfg, label in batch:
            assert out[label].label == label
            assert out[label].runs == run_many(cfg, 2).runs

    @pytest.mark.parametrize(
        "run_series", [None, TWO_WORKERS], ids=["sequential", "workers=2"]
    )
    def test_duplicate_labels_are_refused_before_any_run(self, run_series, monkeypatch):
        """Two variants of one balancer share its name: the batch could
        only drop one or merge both into one curve, so it refuses."""
        started = []
        monkeypatch.setattr(
            "repro.experiments.runner.run_many_configs",
            lambda tasks, workers=None: started.append(tasks),
        )
        variants = [MLT(fraction=0.25), MLT(fraction=1.0)]
        with pytest.raises(ValueError, match="duplicate series label 'MLT'"):
            compare_balancers(ExperimentConfig(**TINY), variants, 1, run_series)
        assert started == []


class TestEnvWorkers:
    """REPRO_WORKERS: the documented override for every pool size."""

    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert env_workers() is None
        assert env_workers(default=3) == 3

    def test_set_overrides_and_is_not_capped(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "24")
        assert env_workers() == 24
        assert default_workers() == 24  # explicit override beats the CPU cap

    def test_blank_treated_as_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "  ")
        assert env_workers(default=2) == 2

    @pytest.mark.parametrize("bad", ["abc", "0", "-3", "2.5"])
    def test_invalid_values_raise_naming_the_variable(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            env_workers()


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig4", "fig8", "fig9", "table1", "table2"):
            assert name in out

    def test_list_names_every_registry_key(self, capsys):
        """The CLI's names are the registry's: an artifact `repro paper`
        can build is one `python -m repro <name>` can build."""
        assert main(["list"]) == 0
        listed = capsys.readouterr().out.split()
        assert set(ARTIFACTS) <= set(listed)
        for name in ARTIFACTS:
            assert build_parser().parse_args([name]).experiment == name

    def test_query_cost_runs(self, capsys):
        assert main(["query_cost"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# query_cost: " + ARTIFACTS["query_cost"].title)
        assert "P-Grid" in out and "PHT" in out

    @pytest.mark.parametrize("argv, flag", [
        (["fig4", "--runs", "0"], "--runs"),
        (["table1", "--runs", "0"], "--runs"),
        (["fig4", "--peers", "1"], "--peers"),
    ])
    def test_bad_runs_and_peers_exit_2_with_one_error_line(self, capsys, argv, flag):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and flag in line

    @pytest.mark.parametrize("name", ["fig8", "table1", "fault_repair"])
    def test_runs_defaults_to_the_artifacts_own(self, monkeypatch, name):
        """`--runs` unset means the declaration's (the paper's) n_runs for
        every artifact — table1 included, which used to run 5."""
        class Requested(Exception):
            pass

        def capture(labeled_configs, n_runs, workers):
            raise Requested(n_runs)

        monkeypatch.setattr(cli, "run_labeled_series", capture)
        with pytest.raises(Requested) as asked:
            main([name, "--peers", "20"])
        assert asked.value.args == (ARTIFACTS[name].n_runs,)

    def test_parser_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_table2_runs(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "DLPT" in out and "O(D)" in out

    def test_figure_run_small(self, capsys):
        assert main(["fig4", "--runs", "1", "--peers", "20", "--no-plot"]) == 0
        out = capsys.readouterr().out
        assert "MLT enabled" in out and "time" in out


class TestCLISubprocess:
    def test_parallel_workers_path(self):
        """`--workers > 1` routes the sweep through the process pool; run
        in a subprocess so the CLI's module patching cannot leak into this
        test session."""
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "fig4", "--runs", "1",
             "--peers", "20", "--workers", "2", "--no-plot"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "MLT enabled" in proc.stdout
        assert "regenerated in" in proc.stdout

    def test_module_entry_point_list(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "table2" in proc.stdout
