import importlib
import pkgutil

import pytest

import levyfluid

MODULES = ["levyfluid"] + [f"levyfluid.{m.name}" for m in pkgutil.iter_modules(levyfluid.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [e for e in exported if not hasattr(module, e)] == []
