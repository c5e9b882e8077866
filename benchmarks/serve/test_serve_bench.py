"""Self-tests of the ``serve`` benchmark harness.

Tier-1 (no sockets, well under 3 s): generator determinism, the oracle
on a hand-built key set, calibration/segment arithmetic, span self-time
arithmetic, and BENCHMARK.json <-> harness agreement.  One ``net``-marked
smoke drives every workload against a live server.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import serve_calib as calib
import serve_harness as harness
import serve_trace as trace
from serve_workloads import N_PEERS, WORKLOADS, Oracle, Plan

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json() -> dict:
    with open(os.path.join(harness.REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- generators ------------------------------------------------------------------


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_same_stream(workload):
    a, b = Plan(workload, 7, 300, 200), Plan(workload, 7, 300, 200)
    assert a.preload == b.preload and a.ops == b.ops and a.sha256() == b.sha256()
    assert Plan(workload, 8, 300, 200).sha256() != a.sha256()
    assert len(a.ops) == 300 and len(set(a.preload)) == 200


def test_keys_share_prefixes_and_misses_avoid_internal_labels():
    plan = Plan("lookup_serial", 1, 2000, 500)
    assert all(re.fullmatch(r"p[a-h]{2,8}", k) for k in plan.preload + plan.misses)
    assert not set(plan.misses) & set(plan.preload)
    ordered = sorted(plan.preload)
    internal = {os.path.commonprefix(p) for p in zip(ordered, ordered[1:])}
    assert not set(plan.misses) & internal
    looked_up = [op[1] for op in plan.ops]
    miss_share = sum(k in set(plan.misses) for k in looked_up) / len(looked_up)
    assert 0.05 < miss_share < 0.15
    # Skewed but not single-key: the 100 hottest of 500 keys draw most hits,
    # the hottest one only a few percent.
    hits = [k for k in looked_up if k in set(plan.preload)]
    hot = set(plan.preload[:100])
    assert 0.55 < sum(k in hot for k in hits) / len(hits) < 0.85
    assert hits.count(plan.preload[0]) / len(hits) < 0.08


def test_churn_stream_is_self_consistent():
    plan = Plan("register_churn", 3, 6000, 300)
    live, registered = set(plan.peers), set(plan.preload)
    kinds = {}
    for op in plan.ops:
        kinds[op[0]] = kinds.get(op[0], 0) + 1
        if op[0] == "register":
            assert op[1] not in registered
            registered.add(op[1])
        elif op[0] == "discover":
            assert op[1] in registered  # read-your-writes: never a miss
        elif op[0] == "peer_join":
            assert op[1] not in live
            live.add(op[1])
        else:
            live.remove(op[1])
        assert N_PEERS - 8 <= len(live) <= N_PEERS + 8
    assert 0.65 < kinds["register"] / 6000 < 0.75
    assert kinds["peer_join"] > 100 and kinds["peer_leave"] > 100


def test_scan_stream_shapes():
    plan = Plan("scan_batch", 5, 400, 300)
    for op in plan.ops:
        if op[0] == "discover_batch":
            assert len(op[1]) == 16
        elif op[0] == "complete":
            assert len(op[1]) == 3
        else:
            assert op[0] == "range" and op[1] <= op[2] and op[2] == op[1][:3] + "hhhhhhh"


# -- the oracle ----------------------------------------------------------------------


KEYS = ["pab", "pabc", "pabd", "pac", "pba", "pbah", "pbb"]
PEERS = ["paaa", "pbaa", "pcaa"]


def _row(key, found, hops=2):
    return {"key": key, "found": found, "data": [key] if found else [], "hops": hops}


def test_oracle_expected_answers():
    o = Oracle(KEYS, PEERS)
    assert o.complete("pab") == ["pab", "pabc", "pabd"]
    assert o.complete("pz") == []
    assert o.range("pabd", "pbah") == ["pabd", "pac", "pba", "pbah"]
    assert o.successor("pazz") == "pbaa" and o.successor("pzzz") == "paaa"


def test_oracle_accepts_right_and_rejects_wrong_replies():
    o = Oracle(KEYS, PEERS)
    assert o.check(("discover", "pac"), _row("pac", True, 3)) == (None, 1, 3)
    assert o.check(("discover", "pzz"), _row("pzz", False, 1)) == (None, 1, 1)
    assert o.check(("discover", "pzz"), _row("pzz", True))[0]  # phantom hit
    assert o.check(("discover", "pac"), _row("pac", False))[0]  # lost key
    assert o.check(("discover", "pac"), RuntimeError("busy"))[0]  # error reply
    batch = ("discover_batch", ["pac", "pzz"])
    assert o.check(batch, [_row("pac", True, 1), _row("pzz", False, 2)]) == (None, 2, 3)
    assert o.check(batch, [_row("pzz", False), _row("pac", True)])[0]  # per-key order
    assert o.check(("complete", "pab"), {"keys": ["pab", "pabc", "pabd"], "hops": 4}) == (None, 1, 4)
    assert o.check(("complete", "pab"), {"keys": ["pab", "pabc"], "hops": 4})[0]
    assert o.check(("range", "pabd", "pbah"), {"keys": ["pabd", "pac", "pba"], "hops": 1})[0]


def test_oracle_tracks_writes_and_membership():
    o = Oracle(KEYS, PEERS)
    assert o.check(("register", "pca"), {"key": "pca", "host": "pcaa"})[0] is None
    assert o.check(("discover", "pca"), _row("pca", True))[0] is None
    assert o.check(("register", "pcb"), {"key": "pcb", "host": "gone"})[0]  # dead host
    assert o.check(("peer_join", "pbzz"), {"peer": "pbzz", "successor": "pcaa"})[0] is None
    assert o.check(("peer_join", "pbzy"), {"peer": "pbzy", "successor": "pcaa"})[0]  # now pbzz
    assert o.check(("peer_leave", "pbaa"), {"peer": "pbaa", "peers": 4})[0] is None
    assert o.check(("register", "pcc"), {"key": "pcc", "host": "pbaa"})[0]  # host left
    good = {"keys": sorted(KEYS + ["pca", "pcb", "pcc"]), "peers": 4}
    assert o.final_mismatch(good) is None
    assert o.final_mismatch(dict(good, keys=good["keys"][:-1]))
    assert o.final_mismatch(dict(good, peers=5))


# -- calibration and segment arithmetic ---------------------------------------------------


def test_factor_is_reference_over_mean_unit():
    assert calib.factor(calib.REF_UNIT_MS, calib.REF_UNIT_MS) == 1.0
    assert calib.factor(4.0, 4.0) == 0.5  # host at half speed: times are halved
    assert calib.factor(1.0, 3.0) == 1.0


def test_calib_unit_is_frozen():
    # The unit's shape is part of every committed number.
    assert calib.REF_UNIT_MS == 2.0
    assert json.dumps(calib.CALIB_FRAME, sort_keys=True, separators=(",", ":")) == (
        '{"d":"@broker","f":{"id":12345,"key":"pabcdefgh","op":"discover",'
        '"reply_to":"@bench-0"},"s":"@bench-0","t":"json","w":"repro-wire/1"}'
    )
    assert 0.0 < calib.calib_unit() < 1000.0


def test_percentile_is_nearest_rank():
    data = [i / 1000.0 for i in range(1, 201)]  # 1..200 ms
    assert calib.percentile(data, 50) == 0.100
    assert calib.percentile(data, 95) == 0.190
    assert calib.percentile(data, 100) == 0.200
    assert calib.samples_beyond(200, 95) == 10
    assert calib.samples_beyond(400, 99) == 4
    with pytest.raises(ValueError):
        calib.percentile([], 50)


def test_segment_stats_and_median_over_segments():
    lat = [0.001] * 190 + [0.003] * 10
    slow = calib.segment_stats(lat, wall_s=0.5, unit_before_ms=4.0, unit_after_ms=4.0)
    assert slow["factor"] == 0.5
    assert slow["raw.ops_per_s"] == 400.0 and slow["ops_per_s"] == 800.0
    assert slow["raw.lat_p50_ms"] == 1.0 and slow["lat_p50_ms"] == 0.5
    assert slow["raw.lat_p95_ms"] == 1.0 and slow["raw.lat_p99_ms"] == 3.0
    fast = calib.segment_stats(lat, 0.25, 2.0, 2.0)
    other = calib.segment_stats(lat, 0.2, 2.0, 2.0)
    assert fast["ops_per_s"] == 800.0  # same work on the reference machine
    assert calib.median_over_segments([slow, fast, other], "ops_per_s") == 800.0


def test_spread_is_iqr_over_median():
    values = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert calib.spread_pct(values) == pytest.approx(100 * (q3 - q1) / 104.5)
    assert calib.spread_pct([5.0]) == 0.0


def test_cpu_blocks_span_at_least_a_second():
    seg = dict(cpu_s=0.2, wall_s=0.4, ops=400, factor=0.5)
    blocks = calib.cpu_blocks([seg] * 6)  # 3 segments = 1.2 s per block
    assert len(blocks) == 2
    assert blocks[0] == pytest.approx(0.6 * 1e3 / 1200 * 0.5)
    assert calib.cpu_blocks([seg]) == [pytest.approx(0.2 * 1e3 / 400 * 0.5)]


# -- span arithmetic -----------------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _trace_one_request():
    """root 0..100; client 0..10 (encode 2..6); admit 20..24;
    service 30..80 with engine call 30..34, drain 36..70 holding a handler
    40..50 (send 44..46) and a decode 55..60; reply send 78..80."""
    clock = _Clock()
    t = trace.Tracer()
    t.clock = clock

    def at(when):
        clock.t = float(when)

    at(0); root = t.open("rpc.discover"); c = t.begin("client.discover")
    at(2); e = t.begin("wire.encode")
    at(6); t.end(e)
    at(10); t.end(c)
    at(20); a = t.begin("broker.admit")
    at(24); t.end(a)
    at(30); g = t.begin("engine.discover")
    at(34); t.end(g)
    at(36); d = t.open("transport.drain")
    at(40); h = t.begin("engine.handler")
    at(44); s = t.begin("transport.send")
    at(46); t.end(s)
    at(50); t.end(h)
    at(55); w = t.begin("wire.decode")
    at(60); t.end(w)
    at(70); t.close(d)
    at(78); s2 = t.begin("transport.send")
    at(80); t.end(s2)
    at(100); t.close(root)
    t.services.append((30.0, 80.0, ("@bench-0", 1)))
    return t


def test_self_time_is_span_minus_children():
    t = _trace_one_request()
    selfs = dict(zip([s[trace.NAME] for s in t.spans], trace.sync_self_times(t.spans)))
    assert selfs["client.discover"] == 6.0  # 10 - encode 4
    assert selfs["wire.encode"] == 4.0
    assert selfs["engine.handler"] == 8.0  # 10 - send 2
    assert selfs["rpc.discover"] == 100.0  # roots keep their duration
    assert not t.stack


def test_ledger_partitions_the_busy_time():
    t = _trace_one_request()
    part = trace.ledger(t.spans, trace.sync_self_times(t.spans), t.services, 0.0, 100.0)
    assert part["busy"] == 100.0
    assert part["client"] == 6.0 and part["wire"] == 9.0 and part["broker"] == 4.0
    assert part["engine"] == 12.0 and part["transport"] == 4.0
    assert part["drain_wait"] == 34.0 - 10.0 - 5.0  # drain minus handler and decode
    assert part["broker_service"] == 50.0 - 4.0 - 34.0 - 2.0  # service idle outside the drain
    claimed = sum(part[k] for k in ("client", "wire", "transport", "broker", "engine"))
    assert claimed + part["drain_wait"] + part["broker_service"] + part["residual"] == 100.0
    assert part["residual"] == 10.0 + 6.0 + 20.0  # 10..20, 24..30, 80..100


# -- BENCHMARK.json agrees with the harness ---------------------------------------------------


def test_benchmark_json_matches_what_the_harness_emits():
    doc = _benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/serve"]
    assert os.path.isfile(os.path.join(harness.REPO_ROOT, doc["command"][1]))
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60

    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == WORKLOADS[w["name"]]["why"]
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]

    assert [m["name"] for m in doc["end_to_end"]] == list(harness.END_TO_END)
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert (m["unit"], m["better"], m["bound"]) == harness.END_TO_END[m["name"]]
        assert 0 < m["bound"] <= 0.25
    assert harness.END_TO_END["setup_s"][:2] == ("s", "lower")
    assert harness.END_TO_END["setup_s"][2] == max(b for _, _, b in harness.END_TO_END.values())

    assert [m["name"] for m in doc["per_layer"]] == list(trace.PER_LAYER)
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert (m["unit"], m["better"]) == trace.PER_LAYER[m["name"]]
    assert len(doc["per_layer"]) <= 128

    names = [w["name"] for w in doc["workloads"]] + [
        m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(m["better"] in ("lower", "higher") for m in doc["end_to_end"] + doc["per_layer"])


# -- live smoke (tier-2) ----------------------------------------------------------------------


def _run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.net
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_end_to_end(workload):
    out = _run("--workload", workload, "--seed", "11", "--smoke", "--trace", "0")
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 100
    assert list(result["metrics"]) == list(harness.END_TO_END)
    for name, cell in result["metrics"].items():
        assert cell["unit"] == harness.END_TO_END[name][0] and cell["value"] > 0
    assert re.search(r"op-stream sha256 [0-9a-f]{64}$", out, re.M)
    assert "Traceback" not in out and re.search(r"^# lat_p95_ms +[0-9.]+$", out, re.M)


@pytest.mark.net
def test_smoke_traced_ledger_sums():
    out = _run("--workload", "lookup_serial", "--seed", "11", "--smoke", "--trace", "1")
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is True
    m = {name: cell["value"] for name, cell in result["metrics"].items()}
    assert list(m) == list(trace.PER_LAYER)
    layers = sum(m[f"{layer}.self_us_per_op"]
                 for layer in ("client", "wire", "transport", "broker", "engine"))
    residual = m["client.rpc_us"] * m["ledger.residual_pct"] / 100.0
    assert layers + residual == pytest.approx(m["client.rpc_us"], rel=1e-6)
    assert m["engine.hops_per_lookup"] > 1 and m["broker.max_pending"] == 1
