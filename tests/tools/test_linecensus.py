"""``tools/linecensus.py``: the line accounting of the unreached-line census."""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location("linecensus", REPO / "tools" / "linecensus.py")
linecensus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecensus)

#: Blank lines and the comment (line 12) run nothing; the docstring (1)
#: does, and a decorated function counts its decorator (13), its ``def``
#: (14) and its body.
MODULE = '''"""A module."""

def used(flag):
    if flag:
        return 1
    return 2


def unused():
    return 3

# a comment
@staticmethod
def decorated():
    return 4


class Box:
    size = 2

    def grow(self):
        self.size += 1
'''


def _load(path: pathlib.Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_executable_lines_come_from_every_code_object(tmp_path):
    path = tmp_path / "small.py"
    path.write_text(MODULE, encoding="utf-8")
    assert linecensus.executable_lines(path) == {
        1, 3, 4, 5, 6, 9, 10, 13, 14, 15, 18, 19, 21, 22,
    }


def test_unreached_lines_are_the_branches_and_bodies_not_run(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "small.py").write_text(MODULE, encoding="utf-8")
    (pkg / "never.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    census = linecensus.Census(pkg)
    census.start()
    try:
        module = _load(pkg / "small.py", "census_small")
        module.used(True)
        module.Box().grow()
    finally:
        census.stop()
    assert census.unreached() == {
        "never.py": {"executable": 2, "unreached": [1, 2]},
        "small.py": {"executable": 14, "unreached": [6, 10, 15]},
    }


def test_report_names_failures_and_keeps_pytest_status(tmp_path, monkeypatch, capsys):
    tests = tmp_path / "test_two.py"
    tests.write_text("def test_ok():\n    pass\n\ndef test_bad():\n    assert False\n",
                     encoding="utf-8")
    out = tmp_path / "census.json"
    monkeypatch.setattr(linecensus, "ROOT", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() prepends src
    monkeypatch.setenv("PYTHONPATH", os.environ.get("PYTHONPATH", ""))
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "mod.py").write_text("a = 1\n", encoding="utf-8")
    status = linecensus.main(["--out", str(out), "--", str(tests), "-q",
                              "-p", "no:cacheprovider"])
    printed = capsys.readouterr().out
    report = json.loads(out.read_text(encoding="utf-8"))
    assert status == report["pytest_exit"] == 1
    assert report["schema"] == "repro-census/1"
    (failed,) = report["failed"]
    assert failed.endswith("test_two.py::test_bad")
    assert f"FAILED {failed}" in printed
    assert report["modules"] == {"mod.py": {"executable": 1, "unreached": [1]}}
