"""Every name a kacsim module exports must exist, so deleting a function
cannot leave a stale ``__all__`` entry behind."""

import importlib
import pkgutil

import pytest

import kacsim

MODULES = ["kacsim"] + [f"kacsim.{m.name}"
                        for m in pkgutil.iter_modules(kacsim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [x for x in getattr(module, "__all__", ())
               if not hasattr(module, x)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
    exec(f"from {name} import *", {})
