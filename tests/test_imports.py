"""Every name a cdcheck module imports is used in that module, every
function, method and class it defines has a caller in the package or the
benchmark, and so has every module-level name it assigns; no module
imports scipy, and the CLI starts without loading scipy.

AST scans stand in for a linter's unused-import and dead-code rules.
``__init__.py`` is skipped in the import scan because its imports are the
package's re-exports, and ``from __future__`` imports bind no name.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

import cdcheck

ALL_MODULES = sorted(Path(cdcheck.__file__).parent.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]
REPO = Path(__file__).resolve().parent.parent
# the files whose calls keep a definition alive: src and the benchmark;
# code that only tests reach belongs in the tests
CALLERS = ALL_MODULES + sorted(REPO.glob("perfbench/*.py"))


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


def _references(tree: ast.AST):
    """Names a tree refers to: variables, attributes, and the parts of
    dotted-name strings (the benchmark's tracer names functions that way).
    Import statements refer to nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
            yield from node.value.split(".")


def _definitions(tree: ast.Module):
    """(node, name) of every function, method and class a module defines,
    and of every name its top-level assignments bind."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node, node.name
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for name in ast.walk(ast.Tuple(elts=targets)):
                if isinstance(name, ast.Name):
                    yield node, name.id


def _dead_definitions(modules, callers) -> list[str]:
    refs = Counter()
    for path in callers:
        refs.update(_references(ast.parse(path.read_text(), filename=str(path))))
    dead = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        dead += [f"{path.name}:{node.lineno} {name}"
                 for node, name in sorted(_definitions(tree),
                                          key=lambda d: d[0].lineno)
                 if not re.fullmatch(r"__\w+__", name)
                 and refs[name] == Counter(_references(node))[name]]
    return dead


def test_no_dead_definitions():
    # a definition whose name is referenced only inside its own body, or a
    # module-level name only in its own assignment, has no reader (dunder
    # methods are called by the interpreter)
    assert _dead_definitions(ALL_MODULES, CALLERS) == []


def test_dead_definition_scan_sees_an_uncalled_function(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def used():\n    return 1\n\n\n"
                   "def unused(n):\n    return unused(n - 1) if n else used()\n")
    assert _dead_definitions([mod], [mod]) == ["mod.py:5 unused"]


def test_dead_definition_scan_sees_an_unread_constant(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("READ, UNREAD = 1, 2\nLONE: int = READ\n\n\n"
                   "def used():\n    return READ\n\n\nused()\n")
    assert _dead_definitions([mod], [mod]) == ["mod.py:1 UNREAD",
                                               "mod.py:2 LONE"]


def _passed(callers) -> dict[str, set]:
    """Per called name (a function, attribute or class), the positions and
    keywords its calls pass, and "*" if one passes *args or **kw."""
    passed = defaultdict(set)
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = isinstance(node, ast.Call) and (getattr(
                node.func, "id", None) or getattr(node.func, "attr", None))
            if not name:
                continue
            passed[name].update(range(len(node.args)),
                                (k.arg or "*" for k in node.keywords))
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                passed[name].add("*")
    return passed


def _unset_defaults(modules, callers) -> list[str]:
    """The keyword defaults no call sets: a call sets one by keyword or by
    position, a class call sets those of ``__init__``, and a call with *args
    or **kw sets every one."""
    passed, unset = _passed(callers), []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {fn: cls for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = methods.get(fn)
            names = {fn.name} | ({cls.name} if cls and fn.name == "__init__"
                                 else set())
            got = set().union(*(passed[name] for name in names))
            # a method's calls do not pass self
            args = fn.args.posonlyargs + fn.args.args
            skip = int(cls is not None)
            defaults = [(i - skip, arg.arg) for i, arg in enumerate(args)][
                len(args) - len(fn.args.defaults):]
            defaults += [(None, arg.arg) for arg, value in zip(
                fn.args.kwonlyargs, fn.args.kw_defaults) if value is not None]
            unset += [f"{path.name}:{fn.lineno} {fn.name}({name})"
                      for i, name in defaults if not {"*", i, name} & got]
    return unset


def test_every_default_is_set_by_a_caller():
    # a keyword default that no src or benchmark call sets is one value in
    # use: a constant, not a knob that only tests turn
    assert _unset_defaults(ALL_MODULES, CALLERS) == []


def test_default_scan_sees_an_unset_knob(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def f(a, b=1, *, c=2, d=3):\n    return a\n\n\n"
                   "class K:\n    def __init__(self, x=0, y=0):\n"
                   "        self.x = x\n\n    def m(self, u=0, v=0):\n"
                   "        return u\n\n\n"
                   "def g(p=0, q=0):\n    return p\n\n\n"
                   "f(0, 1, d=4)\nK(1).m(2)\ng(*[1])\n")
    assert _unset_defaults([mod], [mod]) == [
        "mod.py:1 f(c)", "mod.py:6 __init__(y)", "mod.py:9 m(v)"]


def _is_call_of(node: ast.AST, name: str) -> bool:
    """``node`` is a call of ``name`` or of an attribute ``.name``."""
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def _binds(node: ast.AST, name: str) -> bool:
    """``node`` imports, defines or assigns ``name``."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return any((alias.asname or alias.name) == name for alias in node.names)
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    return (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            and node.id == name)


def _coefficient_copies(path: Path) -> list[str]:
    """The marks of a beta, b or bfrak formula written out in a module:
    c_kappa bound outside params and coefficients, and np.log of an
    s_kappa call outside coefficients."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    if path.name not in ("params.py", "coefficients.py"):
        hits += [f"{path.name}:{node.lineno} binds c_kappa"
                 for node in ast.walk(tree) if _binds(node, "c_kappa")]
    if path.name != "coefficients.py":
        hits += [f"{path.name}:{node.lineno} takes the log of s_kappa"
                 for node in ast.walk(tree) if _is_call_of(node, "log")
                 and any(_is_call_of(sub, "s_kappa")
                         for arg in node.args for sub in ast.walk(arg))]
    return hits


def test_coefficients_have_one_home():
    # every beta, b and bfrak comes from coefficients (``__init__.py`` is
    # skipped: its c_kappa is a re-export)
    assert [hit for path in MODULES for hit in _coefficient_copies(path)] == []


def test_coefficient_copy_scan_sees_both_marks(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import numpy as np\nfrom .params import c_kappa, s_kappa\n"
                   "\n\ndef b(d):\n    return -np.log(2 * s_kappa(1.0, d))\n")
    assert _coefficient_copies(mod) == ["mod.py:2 binds c_kappa",
                                        "mod.py:6 takes the log of s_kappa"]


def _interp_calls(path: Path) -> list[str]:
    """The calls of np.interp (or of any ``.interp``) in a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno} calls interp"
            for node in ast.walk(tree) if _is_call_of(node, "interp")]


def test_axis_lookups_have_one_reader():
    # every read of a uniform grid goes through ot.UniformTable, which is
    # np.interp in O(1) per point; no src module calls np.interp
    assert [hit for path in ALL_MODULES for hit in _interp_calls(path)] == []


def test_interp_scan_sees_a_planted_call(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import numpy as np\n\n\ndef read(x, xs, g):\n"
                   "    return np.interp(x, xs, g)\n")
    assert _interp_calls(mod) == ["mod.py:5 calls interp"]


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


def test_benchmark_tracer_finds_every_span(monkeypatch):
    # the benchmark's tracer wraps src functions by module and name; a src
    # rename must not leave one of its spans without a function
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    import cdcheck.cli  # noqa: F401 - loads every module the tracer spans

    with tracer.Tracer() as tr:
        assert tr.absent == []
