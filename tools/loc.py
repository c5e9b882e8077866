"""Physical lines per ``src/repro`` package (``--baseline DIR``: diff vs another checkout)."""
import argparse
import collections
import pathlib


def count(root: pathlib.Path) -> collections.Counter:
    """``{package: physical lines}`` under ``root/src/repro`` (top-level modules count as ``.``)."""
    pkg = root / "src" / "repro"
    lines: collections.Counter = collections.Counter()
    for path in pkg.rglob("*.py"):
        parts = path.relative_to(pkg).parts
        with open(path, encoding="utf-8") as fh:
            lines[parts[0] if len(parts) > 1 else "."] += sum(1 for _ in fh)
    lines["total"] = sum(lines.values())
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=pathlib.Path, help="root of the checkout to diff against")
    args = parser.parse_args()
    now = count(pathlib.Path(__file__).resolve().parent.parent)
    base = count(args.baseline) if args.baseline else None
    for name in sorted(set(now) | set(base or ()), key=lambda n: (n == "total", n)):
        row = f"{name:<12} {now[name]:>7}"
        if base is not None:
            row += f" {base[name]:>7} {now[name] - base[name]:>+6}"
        print(row)
