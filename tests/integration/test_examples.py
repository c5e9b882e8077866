"""``examples/*.py`` are run by no test or CI step; resolve their imports.

Every ``import repro…`` / ``from repro… import name`` of every example is
resolved against the installed package (``ast`` + ``importlib``; no example
is executed), so moving or deleting a public name cannot strand one.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # `from package import submodule`
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_examples_exist():
    assert EXAMPLES, "examples/ holds no scripts; drop this test with them"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_every_repro_import_resolves(path):
    missing = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "repro":
                missing += [
                    f"{node.module}.{alias.name} (line {node.lineno})"
                    for alias in node.names
                    if not _resolves(node.module, alias.name)
                ]
    assert not missing, f"{path.name} imports names that do not exist: {missing}"
