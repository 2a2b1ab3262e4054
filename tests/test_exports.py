"""Every name that a module's __all__ lists exists on it, once: the benchmark tracer wraps by __all__."""

import importlib

import pytest

MODULES = ("ccodes", "ccodes.arith", "ccodes.codes", "ccodes.enumerator", "ccodes.oracle",
           "ccodes.polyring")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists_once(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)
