"""Physical lines per ``src/repro`` package, then the ``tests`` and ``benchmarks`` trees (``--baseline DIR``: diff vs another checkout)."""
import argparse
import collections
import pathlib
import sys

#: Rows printed last: the ``src/repro`` sum, then the two trees outside it.
TOTALS = ("total", "tests", "benchmarks")


def physical_lines(path: pathlib.Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def count(root: pathlib.Path) -> collections.Counter:
    """``{package: physical lines}`` under ``root/src/repro`` (top-level modules count as ``.``), plus ``TOTALS``."""
    pkg = root / "src" / "repro"
    lines: collections.Counter = collections.Counter()
    for path in pkg.rglob("*.py"):
        parts = path.relative_to(pkg).parts
        lines[parts[0] if len(parts) > 1 else "."] += physical_lines(path)
    lines["total"] = sum(lines.values())
    for tree in TOTALS[1:]:
        lines[tree] = sum(physical_lines(path) for path in (root / tree).rglob("*.py"))
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=pathlib.Path, help="root of the checkout to diff against")
    args = parser.parse_args()
    if args.baseline and not (args.baseline / "src" / "repro").is_dir():
        print(f"error: --baseline {args.baseline}: no src/repro there, not a checkout", file=sys.stderr)
        sys.exit(2)
    now = count(pathlib.Path(__file__).resolve().parent.parent)
    base = count(args.baseline) if args.baseline else None
    for name in sorted((set(now) | set(base or ())) - set(TOTALS)) + list(TOTALS):
        row = f"{name:<12} {now[name]:>7}"
        if base is not None:
            row += f" {base[name]:>7} {now[name] - base[name]:>+6}"
        print(row)
