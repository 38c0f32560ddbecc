"""Every name a cdcheck module imports is used in that module, no module
imports scipy, and the CLI starts without loading scipy.

An AST scan stands in for a linter's unused-import rule. ``__init__.py``
is skipped there because its imports are the package's re-exports, and
``from __future__`` imports bind no name.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cdcheck

ALL_MODULES = sorted(Path(cdcheck.__file__).parent.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


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


def _imported_modules(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_scipy_import(path):
    # the package needs numpy only; scipy is a test dependency
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [m for m in _imported_modules(tree)
            if m.split(".")[0] == "scipy"] == []


def test_cli_import_skips_scipy_optimize():
    # the core is numpy-only, so starting the CLI loads no scipy module
    src = str(Path(cdcheck.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, cdcheck.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"
