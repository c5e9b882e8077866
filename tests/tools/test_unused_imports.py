"""``tools/unused_imports.py``: the stdlib stand-in for ruff's F401, and
the tier-1 gate that keeps ``src/repro``, ``examples``, ``tools`` and
``tests`` clean against it."""

from __future__ import annotations

import importlib.util
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "unused_imports", REPO / "tools" / "unused_imports.py"
)
unused_imports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unused_imports)


def test_src_repro_has_no_unused_imports(capsys):
    assert unused_imports.main([]) == 0, capsys.readouterr().out


def test_examples_and_tools_have_no_unused_imports(capsys):
    roots = [str(REPO / "examples"), str(REPO / "tools")]
    assert unused_imports.main(roots) == 0, capsys.readouterr().out


def test_tests_have_no_unused_imports(capsys):
    assert unused_imports.main([str(REPO / "tests")]) == 0, capsys.readouterr().out


def test_reports_what_ruff_would(tmp_path, capsys):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import json as js\n"
        "import xml.dom  # noqa: F401\n"
        "from typing import Dict, List, Optional\n"
        "from pathlib import Path\n"
        "def f(x: 'Optional[int]') -> Dict:\n"
        "    import random\n"
        "    return {os.sep: x}\n"
        "__all__ = ['Path']\n"
    )
    assert unused_imports.find_unused(module) == [
        (2, "sys"), (3, "js"), (5, "List"), (8, "random"),
    ]
    # Re-exporting package namespaces are exempt, as in ruff.toml.
    (tmp_path / "__init__.py").write_text("import os\n")
    assert unused_imports.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out.count("imported but unused") == 4 and "__init__" not in out
