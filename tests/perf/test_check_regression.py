"""``benchmarks/check_regression.py``: the verdict of the macro perf gate.

``compare`` is judged on hand-made bench documents, so every rule runs
without timing anything: a floored scenario against its floor, any other
against the baseline's speedup within ``--threshold``, and a scenario
either document lacks.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.perf.bench import SCHEMA

REPO = pathlib.Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "check_regression", REPO / "benchmarks" / "check_regression.py"
)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)
compare = check_regression.compare
SPEEDUP_FLOORS = check_regression.SPEEDUP_FLOORS

#: One scenario judged by drift, one by its floor.
DRIFT = "churn_storm"
FLOORED = "sustained"


def doc(**speedups: float) -> dict:
    return {
        "schema": SCHEMA,
        "scenarios": {name: {"speedup_median": s} for name, s in speedups.items()},
    }


def test_the_example_scenarios_are_judged_as_named():
    assert DRIFT not in SPEEDUP_FLOORS
    assert SPEEDUP_FLOORS[FLOORED] == 2.0


class TestFloors:
    def test_a_speedup_at_its_floor_passes(self):
        assert compare(doc(**{FLOORED: 7.0}), doc(**{FLOORED: 2.0}), 0.25) == []

    def test_a_speedup_below_its_floor_fails(self):
        (failure,) = compare(doc(**{FLOORED: 7.0}), doc(**{FLOORED: 1.99}), 0.25)
        assert failure.startswith(f"{FLOORED}: ") and "hard floor of 2x" in failure

    def test_a_floor_ignores_drift_from_the_baseline(self):
        assert compare(doc(**{FLOORED: 70.0}), doc(**{FLOORED: 2.5}), 0.25) == []


class TestDrift:
    def test_a_shrink_just_inside_the_threshold_passes(self):
        # baseline / now = 1.249 <= 1.25
        assert compare(doc(**{DRIFT: 12.49}), doc(**{DRIFT: 10.0}), 0.25) == []

    def test_a_shrink_just_outside_the_threshold_fails(self):
        # baseline / now = 1.251 > 1.25
        (failure,) = compare(doc(**{DRIFT: 12.51}), doc(**{DRIFT: 10.0}), 0.25)
        assert failure.startswith(f"{DRIFT}: ") and "threshold +25%" in failure

    def test_the_threshold_is_the_callers(self):
        assert compare(doc(**{DRIFT: 12.51}), doc(**{DRIFT: 10.0}), 0.30) == []

    def test_a_faster_fresh_run_passes(self):
        assert compare(doc(**{DRIFT: 5.0}), doc(**{DRIFT: 50.0}), 0.25) == []


class TestCoverage:
    def test_a_baseline_scenario_missing_from_the_fresh_run_fails(self):
        failures = compare(doc(**{DRIFT: 5.0, FLOORED: 7.0}), doc(**{DRIFT: 5.0}), 0.25)
        assert failures == [f"{FLOORED}: missing from fresh run"]

    def test_a_fresh_scenario_missing_from_the_baseline_fails(self):
        (failure,) = compare(doc(), doc(**{DRIFT: 5.0}), 0.25)
        assert failure.startswith(f"{DRIFT}: ") and "regenerate the baseline" in failure

    @pytest.mark.parametrize("now, failed", [(2.0, False), (1.5, True)])
    def test_a_floored_fresh_scenario_is_held_to_its_floor_without_a_baseline(
        self, now, failed
    ):
        failures = compare(doc(), doc(**{FLOORED: now}), 0.25)
        assert bool(failures) == failed
        assert all("hard floor" in f for f in failures)

    def test_a_baseline_without_speedups_fails(self):
        baseline = doc(**{DRIFT: 5.0})
        del baseline["scenarios"][DRIFT]["speedup_median"]
        (failure,) = compare(baseline, doc(**{DRIFT: 5.0}), 0.25)
        assert "lacks 'speedup_median'" in failure


def test_a_schema_mismatch_fails_before_any_scenario():
    baseline = {**doc(**{DRIFT: 5.0}), "schema": "repro-bench/0"}
    (failure,) = compare(baseline, doc(**{DRIFT: 1.0}), 0.25)
    assert "repro-bench/0" in failure and "regenerate the baseline" in failure
