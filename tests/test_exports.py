"""Every exported name resolves.

A deletion that leaves its name behind in an __all__ list fails here, not
at a user's star import.
"""

import importlib
import pkgutil

import pytest

import underlaysim

# __main__ runs the CLI on import and exports nothing
_MODULES = ["underlaysim"] + [
    f"underlaysim.{info.name}" for info in pkgutil.iter_modules(underlaysim.__path__)
    if info.name != "__main__"]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
