"""Every name a cdcheck module imports is used in that module, and the
CLI starts without scipy.optimize.

An AST scan stands in for a linter's unused-import rule. ``__init__.py``
is skipped because its imports are the package's re-exports, and
``from __future__`` imports bind no name.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cdcheck

MODULES = sorted(p for p in Path(cdcheck.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_cli_import_skips_scipy_optimize():
    # scipy.optimize serves only solve_discrete_ot and would make up most
    # of the CLI's start-up time; it is imported there, on first use
    src = str(Path(cdcheck.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, cdcheck.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"
