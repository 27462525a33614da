"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import centrex

MODULES = [
    info.name
    for info in pkgutil.iter_modules(centrex.__path__)
    if hasattr(importlib.import_module(f"centrex.{info.name}"), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"centrex.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    namespace = {}
    exec(f"from centrex.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
