import importlib
import pkgutil

import pytest

import offdiag

MODULES = ["offdiag"] + sorted(m.name for m in pkgutil.iter_modules(offdiag.__path__, "offdiag."))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    """A stale name in __all__ breaks `from module import *`."""
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
