"""Every name a sqlab module lists in ``__all__`` exists, so that
``from sqlab.<module> import *`` works and no deleted name stays listed."""

import importlib
import pkgutil

import pytest

import sqlab

_MODULES = ["sqlab"] + [f"sqlab.{m.name}" for m in pkgutil.iter_modules(sqlab.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_all_entries_resolve_and_star_import_works(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [entry for entry in exported if not hasattr(module, entry)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
