"""Every name a module lists in ``__all__`` resolves in that module, so a
deleted function cannot leave a stale export behind."""

import importlib

import pytest

import siegelpw

SUBMODULES = [
    importlib.import_module(f"siegelpw.{name}") for name in siegelpw.__all__ if name != "__version__"
]
MODULES = [module for module in [siegelpw, *SUBMODULES] if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
