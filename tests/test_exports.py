"""Every public name a module exports resolves.

A name left in ``__all__`` after its definition is deleted makes
``from <module> import *`` raise; this walks the whole package so that no
module can carry such an entry.
"""

import importlib
import pkgutil

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
