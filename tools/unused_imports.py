"""Unused imports under ``src/repro`` (or the given paths) — ruff's F401, stdlib only.

``__init__.py`` files are skipped (re-exports, as in ``ruff.toml``) and so is a
line carrying ``# noqa``.  Exit status 1 when anything is found.
"""
import ast
import pathlib
import sys


def _names(tree: ast.AST) -> set:
    """Every identifier the module reads, including inside quoted annotations
    and ``__all__``-style string lists."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def find_unused(path: pathlib.Path) -> list:
    """``[(line, name)]`` for each name ``path`` imports and never reads."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = _names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            line = getattr(alias, "lineno", node.lineno)
            if bound != "*" and bound not in used and "# noqa" not in lines[line - 1]:
                unused.append((line, bound))
    return sorted(unused)


def main(argv: list) -> int:
    repo = pathlib.Path(__file__).resolve().parent.parent
    roots = [pathlib.Path(arg) for arg in argv] or [repo / "src" / "repro"]
    found = 0
    for root in roots:
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            if path.name == "__init__.py":
                continue
            for line, name in find_unused(path):
                print(f"{path}:{line}: {name!r} imported but unused")
                found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
