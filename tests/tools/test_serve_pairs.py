"""``tools/serve_pairs.py``: the paired-run arithmetic, on canned result
lines (no live benchmark run in tier-1)."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location("serve_pairs", REPO / "tools" / "serve_pairs.py")
serve_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(serve_pairs)

OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.25}
LAT = {"name": "lat_p50_ms", "better": "lower", "bound": 0.25}


def _stdout(ops, lat=1.0, wire=291.5, hops=3.8, failed=0):
    """What ``benchmarks/serve/run.py`` prints: metric lines, then the JSON line."""
    metrics = {"ops_per_s": (ops, "1/s"), "lat_p50_ms": (lat, "ms"),
               "wire_bytes_per_op": (wire, "B"), "hops_per_lookup": (hops, "1")}
    doc = {"correct": failed == 0, "attempted": 1000, "failed": failed,
           "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    return f"ops_per_s   {ops:14.6f} 1/s\n# a comment\n{json.dumps(doc)}\n"


def test_parse_result_reads_the_last_line():
    assert serve_pairs.parse_result(_stdout(4200.5, lat=1.75, failed=2)) == {
        "failed": 2, "ops_per_s": 4200.5, "lat_p50_ms": 1.75,
        "wire_bytes_per_op": 291.5, "hops_per_lookup": 3.8,
    }


def test_quartiles_are_inclusive_and_a_single_run_is_its_own():
    assert serve_pairs.quartiles([1, 2, 3, 4, 5]) == (2.0, 3.0, 4.0)
    assert serve_pairs.quartiles([10, 20]) == (12.5, 15.0, 17.5)
    assert serve_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_gain_on_a_higher_is_better_metric():
    parent = [4000, 4100, 4200, 4300, 4400, 4000, 4100, 4200, 4300, 4400]
    change = [p * 2 for p in parent]
    row = serve_pairs.judge(OPS, parent, change)
    assert row["parent"] == (4200.0, 4100.0, 4300.0) and row["change"] == (8400.0, 8200.0, 8600.0)
    assert row["wins"] == 10 and row["pairs"] == 10
    assert row["adverse"] == pytest.approx(-1.0)  # the median doubled: no adverse move
    assert row["spread"] == 400.0 and row["spread_limit"] == pytest.approx(0.25 * 4200)
    assert row["separated"] and row["gain"]


def test_direction_comes_from_the_metric():
    parent = [2.0, 2.1, 1.9, 2.0, 2.2, 2.0, 2.1, 1.9, 2.0, 2.2]
    change = [1.0, 1.0, 1.1, 0.9, 1.0, 1.0, 1.0, 1.1, 0.9, 1.0]
    lower = serve_pairs.judge(LAT, parent, change)
    assert lower["wins"] == 10 and lower["gain"] and lower["separated"]
    assert lower["adverse"] == pytest.approx(-0.5)
    higher = serve_pairs.judge({**LAT, "better": "higher"}, parent, change)
    assert higher["wins"] == 0 and not higher["gain"] and not higher["separated"]
    assert higher["adverse"] == pytest.approx(0.5) and higher["adverse"] > higher["bound"]


def test_nine_of_ten_and_the_parents_own_spread_gate_a_gain():
    parent = [100, 102, 98, 101, 99, 100, 102, 98, 101, 99]
    nine = [p + 10 for p in parent[:9]] + [parent[9] - 1]
    eight = [p + 10 for p in parent[:8]] + [parent[8] - 1, parent[9] - 1]
    assert serve_pairs.judge(OPS, parent, nine)["gain"]
    assert not serve_pairs.judge(OPS, parent, eight)["gain"]  # 8/10 < 9/10
    # Wins every pair, but by less than the parent's inter-quartile spread.
    wide = [100, 140, 60, 120, 80, 100, 140, 60, 120, 80]
    row = serve_pairs.judge(OPS, wide, [p + 5 for p in wide])
    assert row["wins"] == 10 and not row["gain"] and not row["separated"]
    # Ties count for neither side: 9 wins of 9 decided pairs.
    tied = [p + 10 for p in parent[:9]] + [parent[9]]
    row = serve_pairs.judge(OPS, parent, tied)
    assert row["wins"] == 9 and row["gain"]


def test_a_spread_wider_than_the_bound_is_flagged_not_hidden():
    """The rule PR 18 had to reverse-engineer: the *change's* inter-quartile
    spread against ``bound x parent median``."""
    parent = [2200, 2210, 2190, 2205, 2195, 2200, 2210, 2190, 2205, 2195]
    change = [2200, 3400, 2300, 3300, 2250, 3350, 2280, 3380, 2220, 3320]
    row = serve_pairs.judge(OPS, parent, change)
    assert row["spread_limit"] == pytest.approx(550.0) and row["spread"] > row["spread_limit"]
    table = serve_pairs.report("lookup_serial", [OPS],
                               [{"ops_per_s": p, "failed": 0, "wire_bytes_per_op": 1,
                                 "hops_per_lookup": 1} for p in parent],
                               [{"ops_per_s": c, "failed": 0, "wire_bytes_per_op": 1,
                                 "hops_per_lookup": 1} for c in change])
    assert "NOISY" in table and "WORSE" not in table


def test_report_checks_the_deterministic_counts_pair_by_pair():
    parent = [serve_pairs.parse_result(_stdout(4000 + k, hops=3.8 + k)) for k in range(3)]
    change = [serve_pairs.parse_result(_stdout(8000 + k, hops=3.8 + k)) for k in range(3)]
    assert serve_pairs.unequal_pairs(parent, change) == []
    table = serve_pairs.report("lookup_fanin", [OPS, LAT], parent, change)
    assert "lookup_fanin: 3 pairs" in table
    assert "equal inside every pair: yes" in table
    assert "failed: parent 0, change 0" in table
    change[1] = serve_pairs.parse_result(_stdout(8001, hops=9.9, failed=4))
    assert serve_pairs.unequal_pairs(parent, change) == [(2, "hops_per_lookup")]
    table = serve_pairs.report("lookup_fanin", [OPS, LAT], parent, change)
    assert "NO pair 2 hops_per_lookup" in table and "change 4" in table


# -- the exit status: one test per cause, one clean pass -------------------

STEADY = [100, 102, 98, 101, 99, 100, 102, 98, 101, 99]


def _runs(ops, lat=None, hops=3.8, failed=0):
    """Synthetic :func:`parse_result` dicts, one per pair."""
    lat = lat or [1.0] * len(ops)
    return [{"ops_per_s": o, "lat_p50_ms": v, "wire_bytes_per_op": 291.5,
             "hops_per_lookup": hops, "failed": failed} for o, v in zip(ops, lat)]


def test_a_clean_run_with_its_claimed_gain_has_no_objection():
    parent, change = _runs(STEADY), _runs([p + 50 for p in STEADY])
    assert serve_pairs.objections("w", [OPS, LAT], parent, change) == []
    assert serve_pairs.objections("w", [OPS, LAT], parent, change, {"ops_per_s"}) == []


def test_a_claimed_row_without_the_gain_verdict_is_an_objection():
    parent, change = _runs(STEADY), _runs([p + 1 for p in STEADY])  # wins, inside the spread
    assert serve_pairs.objections("w", [OPS, LAT], parent, change) == []
    assert serve_pairs.objections("w", [OPS, LAT], parent, change, {"ops_per_s"}) == [
        "w: claimed ops_per_s shows no gain"
    ]


def test_a_worse_row_is_an_objection_even_beside_a_claimed_gain():
    parent = _runs(STEADY, lat=[1.0] * 10)
    change = _runs([p + 50 for p in STEADY], lat=[1.5] * 10)
    assert serve_pairs.objections("w", [OPS, LAT], parent, change, {"ops_per_s"}) == [
        "w: lat_p50_ms is WORSE"
    ]


def test_a_noisy_row_is_an_objection():
    change = _runs([100, 160, 105, 155, 102, 158, 104, 156, 101, 157])
    assert serve_pairs.objections("w", [OPS], _runs(STEADY), change) == ["w: ops_per_s is NOISY"]


def test_a_deterministic_count_differing_inside_a_pair_is_an_objection():
    parent, change = _runs(STEADY), _runs(STEADY)
    change[3]["hops_per_lookup"] = 3.9
    assert serve_pairs.objections("w", [OPS], parent, change) == [
        "w: hops_per_lookup differs inside pair 4"
    ]


def test_more_failures_than_the_parent_is_an_objection():
    parent, change = _runs(STEADY, failed=1), _runs(STEADY, failed=1)
    assert serve_pairs.objections("w", [OPS], parent, change) == []
    change[0]["failed"] = 2
    assert serve_pairs.objections("w", [OPS], parent, change) == [
        "w: the change failed 11 operations, the parent 10"
    ]


def _checkout(root: pathlib.Path) -> pathlib.Path:
    """A directory holding the benchmark's script, as a parent checkout does."""
    script = root / "benchmarks" / "serve" / "run.py"
    script.parent.mkdir(parents=True)
    script.write_text("")
    return root


def test_main_exits_by_the_objections(monkeypatch, capsys, tmp_path):
    """``main`` used to return 0 whatever the table said.  ``run`` is
    stubbed: the change (this checkout) is 40% faster on every workload."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())

    def canned(checkout, command, workload, seed):
        flat = {m["name"]: 1.0 for m in spec["end_to_end"]}
        ops = STEADY[seed - 1] * (1.4 if checkout == serve_pairs.REPO else 1.0)
        return {**flat, "ops_per_s": ops, "failed": 0}

    monkeypatch.setattr(serve_pairs, "run", canned)
    argv = ["--parent", str(_checkout(tmp_path)), "--workload", "register_churn"]
    assert serve_pairs.main(argv) == 0
    assert serve_pairs.main(argv + ["--claim", "ops_per_s@register_churn"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert serve_pairs.main(argv + ["--claim", "lat_p50_ms@register_churn"]) == 1
    assert "FAIL register_churn: claimed lat_p50_ms shows no gain" in capsys.readouterr().out
    with pytest.raises(SystemExit):  # a claim on a workload that is not run
        serve_pairs.main(argv + ["--claim", "ops_per_s@scan_batch"])


def test_metrics_and_bounds_are_read_from_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    names = {metric["name"] for metric in spec["end_to_end"]}
    assert set(serve_pairs.DETERMINISTIC) <= names
    source = (REPO / "tools" / "serve_pairs.py").read_text()
    for name in names - set(serve_pairs.DETERMINISTIC):
        assert name not in source, f"{name} is restated in the tool"
    assert "0.25" not in source and "0.05" not in source


@pytest.mark.parametrize("bad", ["pairs", "missing parent", "parent without the script"])
def test_bad_arguments_exit_two_before_anything_runs(bad, monkeypatch, capsys, tmp_path):
    """``--pairs 0`` used to raise ``StatisticsError`` after the runs and a
    missing parent ``FileNotFoundError`` at the first one; both, and a
    parent without ``benchmarks/serve/run.py``, now stop at the arguments."""

    def never(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(serve_pairs, "run", never)
    argv = ["--workload", "lookup_serial"]
    if bad == "pairs":
        argv += ["--parent", str(_checkout(tmp_path)), "--pairs", "0"]
    elif bad == "missing parent":
        argv += ["--parent", str(tmp_path / "nonexistent")]
    else:
        argv += ["--parent", str(tmp_path)]
    with pytest.raises(SystemExit) as exit_info:
        serve_pairs.main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
