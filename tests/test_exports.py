"""Every public name a module exports resolves, and every module uses
what it imports.

A name left in ``__all__`` after its definition is deleted makes
``from <module> import *`` raise; this walks the whole package so that no
module can carry such an entry.  An import left behind after the code that
used it is deleted is caught the same way, from each module's syntax tree.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sitawim

MODULES = sorted(
    ["sitawim"]
    + [info.name for info in pkgutil.walk_packages(sitawim.__path__, prefix="sitawim.")]
)


def test_the_walk_finds_every_layer():
    for name in ("sitawim.exactpoly.groebner", "sitawim.feasibility", "sitawim.solver"):
        assert name in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate entries in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


IMPORT_EVERY_MODULE = """
import importlib, pkgutil, sys
import sitawim
names = [info.name for info in pkgutil.walk_packages(sitawim.__path__, prefix="sitawim.")]
for name in names:
    importlib.import_module(name)
print(len(names), "multiprocessing" in sys.modules)
"""


def test_importing_every_module_leaves_multiprocessing_out():
    """Only a pooled search imports the process pool, so a serial process
    never pays for multiprocessing."""
    src = str(Path(sitawim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_EVERY_MODULE], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(len(MODULES) - 1), "False"]


IMPORT_THE_PIPELINE = """
import sys
import sitawim.solver, sitawim.spectra, sitawim.feasibility, sitawim.structcheck, sitawim.varietygen
print("mpmath" in sys.modules)
"""


def test_the_pipeline_runs_without_mpmath():
    """Spectra and the battery work on integers alone, so mpmath is a test
    dependency and importing the pipeline leaves it out."""
    src = str(Path(sitawim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_THE_PIPELINE], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_every_top_level_import_is_used():
    """A name bound by a top-level import is read somewhere in its module
    or listed in its ``__all__`` (a re-export)."""
    unused = []
    for path in sorted(Path(sitawim.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]
    assert unused == []
