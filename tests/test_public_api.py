"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib

import pytest


@pytest.mark.parametrize(
    "name", ["statfn", "wald", "centralized", "decentralized", "baselines", "harness"]
)
def test_all_names_resolve(name):
    module = importlib.import_module(f"centrex.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    namespace = {}
    exec(f"from centrex.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
