"""Alternating parent/change pairs of the serve benchmark, judged by ``BENCHMARK.json``.

    python3 tools/serve_pairs.py --parent CHECKOUT [--pairs 10] [--workload W]...
                                 [--claim METRIC@WORKLOAD]...

Pair ``k`` runs the benchmark's ``command`` with ``--workload W --seed k`` in
the parent checkout and in this one (odd ``k`` parent first, even ``k`` change
first) and keeps each run's final JSON line.  Per end-to-end metric — names,
direction and bounds come from ``BENCHMARK.json`` — it prints each side's median
[q1, q3], the change's wins, the adverse move of the median against the bound,
the change's inter-quartile spread against ``bound x parent median`` (a spread
wider than that is a run "too noisy to judge"), whether every change run beats
every parent run, and whether the change wins >= 9/10 of the pairs by more than
the parent's own inter-quartile spread (the rule for a claimed gain); then that
the two deterministic counts are equal inside every pair, and the failures.

Exit status 1 when any row of any workload run is ``WORSE`` or ``NOISY``, a
deterministic count differs inside a pair, the change's ``failed`` total exceeds
the parent's, or a ``--claim``-ed row lacks the ``gain`` verdict; the reasons
are printed after the tables.  Exit status 2, with one ``error:`` line and
before anything runs, on bad arguments: ``--pairs`` below 1, a ``--parent``
that lacks the benchmark's script, a claim on a workload not being run.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

#: Counts the program makes that repeat exactly per seed: equal inside a pair or explained.
DETERMINISTIC = ("wire_bytes_per_op", "hops_per_lookup")

#: The verdict words that fail a run, whatever else the row earns.
CONDEMNING = ("WORSE", "NOISY")


def parse_result(output: str) -> dict:
    """``{"failed": n, metric: value, ...}`` from a run's stdout (its last line is the JSON)."""
    doc = json.loads(output.strip().splitlines()[-1])
    return {"failed": doc["failed"], **{n: m["value"] for n, m in doc["metrics"].items()}}


def quartiles(values) -> tuple:
    """``(q1, median, q3)``, inclusive method (a single run is its own quartiles)."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def judge(metric: dict, parent: list, change: list) -> dict:
    """One end-to-end metric over paired runs (``parent[i]`` and ``change[i]`` share a seed)."""
    sign = 1.0 if metric["better"] == "lower" else -1.0  # sign * (change - parent) > 0 is worse
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    decided = sum(c != p for p, c in zip(parent, change))  # ties count for neither side
    return {
        "name": metric["name"],
        "parent": (pm, p1, p3),
        "change": (cm, c1, c3),
        "wins": wins,
        "pairs": len(parent),
        "adverse": sign * (cm - pm) / pm if pm else 0.0,
        "bound": metric["bound"],
        "spread": c3 - c1,
        "spread_limit": metric["bound"] * abs(pm),
        "separated": all(sign * (c - p) < 0 for p in parent for c in change),
        "gain": decided > 0 and wins >= 0.9 * decided and sign * (cm - pm) < -(p3 - p1),
    }


def unequal_pairs(parent_runs: list, change_runs: list) -> list:
    """``(pair number, metric)`` wherever a deterministic count differs inside a pair."""
    return [
        (k, name)
        for k, (p, c) in enumerate(zip(parent_runs, change_runs), start=1)
        for name in DETERMINISTIC
        if p[name] != c[name]
    ]


def verdict(row: dict) -> list:
    """The words a :func:`judge` row earns: ``WORSE`` / ``NOISY`` condemn it,
    ``gain`` / ``separated`` credit it."""
    words = {
        "WORSE": row["adverse"] > row["bound"],
        "NOISY": row["spread"] > row["spread_limit"],
        "gain": row["gain"],
        "separated": row["separated"],
    }
    return [word for word, earned in words.items() if earned]


def judge_all(metrics: list, parent_runs: list, change_runs: list) -> list:
    """One :func:`judge` row per metric; ``*_runs`` are :func:`parse_result` dicts in pair order."""
    return [
        judge(
            metric,
            [run[metric["name"]] for run in parent_runs],
            [run[metric["name"]] for run in change_runs],
        )
        for metric in metrics
    ]


def failed_totals(parent_runs: list, change_runs: list) -> tuple:
    return tuple(sum(run["failed"] for run in runs) for runs in (parent_runs, change_runs))


def report(workload: str, metrics: list, parent_runs: list, change_runs: list) -> str:
    """The table for one workload."""
    lines = [
        f"{workload}: {len(parent_runs)} pairs",
        f"  {'metric':<18} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30} "
        f"{'wins':>5} {'adverse/bound':>14} {'spread/limit':>20}  verdict",
    ]
    for row in judge_all(metrics, parent_runs, change_runs):
        lines.append(
            "  {:<18} {:<30} {:<30} {:>2}/{:<2} {:>+6.1%}/{:<6.0%} {:>9.4g}/{:<9.4g}  {}".format(
                row["name"],
                "{:.4g} [{:.4g}, {:.4g}]".format(*row["parent"]),
                "{:.4g} [{:.4g}, {:.4g}]".format(*row["change"]),
                row["wins"], row["pairs"], row["adverse"], row["bound"],
                row["spread"], row["spread_limit"],
                " ".join(verdict(row)) or "-",
            )
        )
    unequal = unequal_pairs(parent_runs, change_runs)
    lines.append(
        f"  {' / '.join(DETERMINISTIC)} equal inside every pair: "
        + ("yes" if not unequal else "NO " + ", ".join(f"pair {k} {name}" for k, name in unequal))
    )
    lines.append("  failed: parent {}, change {}".format(*failed_totals(parent_runs, change_runs)))
    return "\n".join(lines)


def objections(
    workload: str, metrics: list, parent_runs: list, change_runs: list, claimed=()
) -> list:
    """Why one workload's pairs fail the protocol (module doc), as sentences;
    empty when they pass.  ``claimed`` names the metrics that must show ``gain``."""
    found = []
    for row in judge_all(metrics, parent_runs, change_runs):
        words = verdict(row)
        found += [f"{row['name']} is {word}" for word in words if word in CONDEMNING]
        if row["name"] in claimed and "gain" not in words:
            found.append(f"claimed {row['name']} shows no gain")
    found += [
        f"{name} differs inside pair {k}" for k, name in unequal_pairs(parent_runs, change_runs)
    ]
    parent_failed, change_failed = failed_totals(parent_runs, change_runs)
    if change_failed > parent_failed:
        found.append(f"the change failed {change_failed} operations, the parent {parent_failed}")
    return [f"{workload}: {reason}" for reason in found]


def run(checkout: pathlib.Path, command: list, workload: str, seed: int) -> dict:
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {done.returncode}\n{done.stderr}")
    return parse_result(done.stdout)


def main(argv=None) -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=pathlib.Path, required=True,
                        help="root of the parent commit's checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--raw", type=pathlib.Path,
                        help="also append every run as a JSON line (workload, seed, side, result)")
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC@WORKLOAD",
                        help="repeatable; exit 1 unless this row earns the gain verdict")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs {args.pairs}: need at least one pair")
    # The benchmark's own files (its script) must exist in the parent too.
    missing = [
        part for part in spec["command"]
        if (REPO / part).is_file() and not (args.parent / part).is_file()
    ]
    if missing:
        parser.error(f"--parent {args.parent}: no {', '.join(missing)} in that checkout")
    workloads = args.workload or names
    claims = {workload: set() for workload in workloads}
    for claim in args.claim:
        metric, _, workload = claim.partition("@")
        if workload not in claims or metric not in {m["name"] for m in spec["end_to_end"]}:
            parser.error(f"--claim {claim}: not an end-to-end metric of a workload being run")
        claims[workload].add(metric)
    found = []
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for seed in range(1, args.pairs + 1):
            for side in ("parent", "change") if seed % 2 else ("change", "parent"):
                checkout = args.parent if side == "parent" else REPO
                result = run(checkout, spec["command"], workload, seed)
                runs[side].append(result)
                if args.raw:
                    with open(args.raw, "a", encoding="utf-8") as fh:
                        record = {"workload": workload, "seed": seed, "side": side, "result": result}
                        fh.write(json.dumps(record) + "\n")
        judged = (workload, spec["end_to_end"], runs["parent"], runs["change"])
        print(report(*judged), flush=True)
        found += objections(*judged, claims[workload])
    for reason in found:
        print(f"FAIL {reason}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
