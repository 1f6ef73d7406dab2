"""numpy stays the only runtime dependency: the package imports nothing else."""

import ast
import sys
from pathlib import Path

import pytest

import evit

SOURCES = sorted(Path(evit.__file__).parent.glob("*.py"))


def _foreign_imports(path):
    """``(line, module)`` for each import that is not stdlib, numpy or package-relative."""
    found = []
    for node in ast.walk(ast.parse(path.read_bytes(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top != "numpy" and top not in sys.stdlib_module_names:
                found.append((node.lineno, name))
    return found


def test_sources_are_found():
    assert {"analysis.py", "tensor.py", "cli.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    assert _foreign_imports(path) == []


def test_flags_a_foreign_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os, scipy.linalg\nfrom . import tensor\nfrom numpy import linalg\n"
        "def f():\n    from evit import cli\n"
    )
    assert _foreign_imports(probe) == [(1, "scipy.linalg"), (5, "evit")]
